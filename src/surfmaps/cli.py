"""Command line front end.

One executable, `surfmaps`, wiring every part of the package: map
validation and conversion, the opening/closure bijection, scheme
listings, exact series and constants, the brute-force censuses, the
uniform sampler, and `verify`, which runs the self-verification suite
and fails loudly.

Maps travel in the plain-text format of mapio; everything numeric is
printed as exact rationals, except sampler statistics, which are marked
as estimates.  Exit status: 0 on success, 1 when verification fails,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from .bijection import (
    close_rooted,
    close_rooted_pointed,
    open_rooted,
    open_rooted_pointed,
)
from .census import (
    MAX_N_ENV,
    enumerate_g_trees,
    enumerate_quadrangulations,
    enumerate_rooted_maps,
    enumerate_well_labeled_trees,
)
from .errors import PreconditionError, SurfmapError
from .labeling import (
    LabeledMap,
    has_small_variations,
    is_embedded,
    is_well_labeled,
)
from .mapio import parse_map_text, write_map_text
from .quad import bipartition, check_quadrangulation, map_to_quad, quad_to_map
from .sampler import distance_profile, sample_quadrangulation
from .schemes import MAX_GENUS_ENV, dominant_schemes, enumerate_schemes
from .series import (
    DEFAULT_ORDER,
    asympt_constant,
    rhat,
    series_B,
    series_Q_bullet,
    series_Qg,
    series_T,
    series_Tg,
    series_U,
    tau,
)
from .verify import LEVELS, run_verification

__all__ = ["run", "main"]


def _read_map(path: str):
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise PreconditionError(f"cannot read {path}: {exc}") from exc
    return parse_map_text(text)


@contextmanager
def _env_override(key: str, value):
    """Set an environment variable for the command's duration.

    Flags beat the environment, but only while the command runs; run()
    may be called in-process and must not leak state between calls.
    """
    if value is None:
        yield
        return
    old = os.environ.get(key)
    os.environ[key] = str(value)
    try:
        yield
    finally:
        if old is None:
            del os.environ[key]
        else:
            os.environ[key] = old


def _need_labels(m, labels) -> LabeledMap:
    if labels is None:
        raise PreconditionError(
            "the input map has no labels field; closing needs one")
    return LabeledMap(m, labels)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args) -> int:
    m, labels = _read_map(args.file)
    try:
        bipartition(m)
        bip = "yes"
    except PreconditionError:
        bip = "no"
    try:
        check_quadrangulation(m)
        quad = "yes"
    except PreconditionError:
        quad = "no"
    if labels is None:
        lab = "none"
    else:
        lm = LabeledMap(m, labels)
        if is_well_labeled(lm):
            lab = "well-labeled"
        elif is_embedded(lm):
            lab = "embedded"
        elif has_small_variations(lm):
            lab = "small-variations"
        else:
            lab = "unrestricted"
    for key, val in (("n_darts", m.n_darts), ("edges", m.n_edges),
                     ("vertices", m.n_vertices), ("faces", m.n_faces),
                     ("genus", m.genus), ("root", m.root),
                     ("bipartite", bip), ("quadrangulation", quad),
                     ("labels", lab)):
        print(f"{key} {val}")
    return 0


def _cmd_to_quad(args) -> int:
    m, _ = _read_map(args.file)
    sys.stdout.write(write_map_text(map_to_quad(m)))
    return 0


def _cmd_from_quad(args) -> int:
    q, _ = _read_map(args.file)
    sys.stdout.write(write_map_text(quad_to_map(q)))
    return 0


def _cmd_open(args) -> int:
    q, _ = _read_map(args.file)
    if args.pointed is None:
        t = open_rooted(q)
        sys.stdout.write(write_map_text(t.map, t.labels))
    else:
        t, sign = open_rooted_pointed(q, args.pointed)
        sys.stdout.write(write_map_text(t.map, t.labels))
        print(f"# sign {sign}")
    return 0


def _cmd_close(args) -> int:
    m, labels = _read_map(args.file)
    lm = _need_labels(m, labels)
    if args.sign is None:
        sys.stdout.write(write_map_text(close_rooted(lm)))
    else:
        pq = close_rooted_pointed(lm, args.sign)
        sys.stdout.write(write_map_text(pq.quad))
        print(f"# basepoint {pq.basepoint}")
    return 0


def _write_maps(texts) -> None:
    """Write map documents to stdout, a blank line between two."""
    sys.stdout.write("\n".join(texts))


def _cmd_schemes(args) -> int:
    with _env_override(MAX_GENUS_ENV, args.max_genus):
        items = (dominant_schemes(args.genus) if args.dominant
                 else enumerate_schemes(args.genus))
    _write_maps(write_map_text(s.shape, s.labels) for s in items)
    return 0


_GENUS_FREE = {"T": series_T, "U": series_U, "B": series_B}
_GENUS_BOUND = {"Rhat": rhat, "Tg": series_Tg, "Qg": series_Qg,
                "Qbullet": series_Q_bullet}


def _cmd_series(args) -> int:
    if args.what in _GENUS_FREE:
        if args.genus is not None:
            raise PreconditionError(
                f"series {args.what} does not take --genus")
        s = _GENUS_FREE[args.what](args.order)
    else:
        if args.genus is None:
            raise PreconditionError(
                f"series {args.what} needs --genus")
        s = _GENUS_BOUND[args.what](args.genus, args.order)
    for n in range(s.order + 1):
        c = s.coeff(n)
        print(f"{n} {c.numerator}/{c.denominator}")
    return 0


def _cmd_constants(args) -> int:
    print(f"tau {tau(args.genus)}")
    print(f"c {asympt_constant(args.genus)}")
    return 0


def _cmd_census(args) -> int:
    what, n, g = args.what, args.edges, args.genus
    if what in ("gtrees", "wltrees") and g is None:
        raise PreconditionError(f"census of {what} needs --genus")
    with _env_override(MAX_N_ENV, args.max_n):
        if what == "maps":
            items = enumerate_rooted_maps(n, g)
        elif what == "gtrees":
            items = enumerate_g_trees(n, g)
        elif what == "wltrees":
            items = enumerate_well_labeled_trees(n, g)
        else:
            items = enumerate_quadrangulations(n, g)
    if args.count_only:
        print(len(items))
        return 0
    if what == "wltrees":
        _write_maps(write_map_text(t.map, t.labels) for t in items)
    else:
        _write_maps(map(write_map_text, items))
    return 0


def _cmd_sample(args) -> int:
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2 ** 64)
    if args.profile:
        prof = distance_profile(args.faces, args.count, seed)
        print("# label statistics are estimates from random samples")
        print(f"faces {prof.n}")
        print(f"samples {prof.samples}")
        print(f"seed {seed}")
        print(f"mean_max_label {prof.mean_max_label:.6g}")
        print(f"mean_label {prof.mean_label:.6g}")
        for value, count in prof.max_label_histogram:
            print(f"max_label {value} count {count}")
        return 0
    rng = random.Random(seed)
    print(f"# seed {seed}")
    for i in range(args.count):
        if i:
            print()
        res = sample_quadrangulation(args.faces, rng)
        sys.stdout.write(write_map_text(res.quad.quad))
        print(f"# basepoint {res.quad.basepoint}")
        print(f"# sign {res.sign}")
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(args.level)
    if args.format == "json":
        print(json.dumps({
            "level": report.level,
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "seconds": c.seconds, "budget": c.budget,
                        "margin": c.budget - c.seconds, "detail": c.detail}
                       for c in report.checks],
        }, indent=2))
    elif args.format == "lines":
        for c in report.checks:
            status = "pass" if c.passed else "fail"
            print(f"{c.name} {status} {c.seconds:.2f}")
        for c in report.checks:
            if not c.passed:
                print(f"# {c.name}: {c.detail}")
    else:
        width = max(len(c.name) for c in report.checks)
        print(f"{'check':<{width}}  status  seconds")
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"{c.name:<{width}}  {status:<6} {c.seconds:8.2f}")
            print(f"{'':<{width}}    {c.detail}")
        good = sum(1 for c in report.checks if c.passed)
        total = sum(c.seconds for c in report.checks)
        print(f"{good} of {len(report.checks)} checks passed "
              f"in {total:.1f}s")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfmaps",
        description="Rooted maps on orientable surfaces: bijections, "
                    "exact enumeration, censuses and uniform sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_, with_file=False):
        p = sub.add_parser(name, help=help_)
        if with_file:
            p.add_argument("file", nargs="?", default="-",
                           help="map file, or - for standard input")
        p.set_defaults(func=func)
        return p

    cmd("validate", _cmd_validate,
        "parse a map and report its structure", with_file=True)
    cmd("to-quad", _cmd_to_quad,
        "turn a rooted map into its bipartite quadrangulation",
        with_file=True)
    cmd("from-quad", _cmd_from_quad,
        "turn a bipartite quadrangulation back into a rooted map",
        with_file=True)

    p = cmd("open", _cmd_open,
            "open a quadrangulation into a labeled one-face map",
            with_file=True)
    p.add_argument("--pointed", type=int, metavar="VERTEX",
                   help="open at this vertex index; also prints the sign")

    p = cmd("close", _cmd_close,
            "close a labeled one-face map into a quadrangulation",
            with_file=True)
    p.add_argument("--sign", type=int, choices=(1, -1),
                   help="close an embedded map with this sign; "
                        "also prints the basepoint")

    p = cmd("schemes", _cmd_schemes, "list the labeled schemes of a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dominant", action="store_true",
                   help="only schemes with all labels distinct and "
                        "trivalent shape")
    p.add_argument("--max-genus", type=int,
                   help=f"override the {MAX_GENUS_ENV} budget")

    p = cmd("series", _cmd_series, "print exact series coefficients")
    p.add_argument("--what", required=True,
                   choices=sorted(_GENUS_FREE) + sorted(_GENUS_BOUND))
    p.add_argument("--genus", type=int)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p = cmd("constants", _cmd_constants,
            "print the scheme sum tau and the counting constant")
    p.add_argument("--genus", type=int, required=True)

    p = cmd("census", _cmd_census, "enumerate small objects exhaustively")
    p.add_argument("--what", required=True,
                   choices=("maps", "gtrees", "wltrees", "quads"))
    p.add_argument("--edges", type=int, required=True,
                   help="edges, or faces for quadrangulations")
    p.add_argument("--genus", type=int,
                   help="restrict to one genus (required for trees)")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-n", type=int,
                   help=f"override the {MAX_N_ENV} budget")

    p = cmd("sample", _cmd_sample,
            "draw uniform rooted pointed planar quadrangulations")
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int,
                   help="64-bit seed; drawn and reported if omitted")
    p.add_argument("--profile", action="store_true",
                   help="summarize label statistics instead of "
                        "printing maps")

    p = cmd("verify", _cmd_verify, "run the self-verification suite")
    p.add_argument("--level", choices=sorted(LEVELS), default="desk")
    p.add_argument("--format", choices=("table", "lines", "json"),
                   default="table",
                   help="presentation of the report")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed the pipe; silence the shutdown flush too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except SurfmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
