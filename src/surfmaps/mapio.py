"""Plain-text serialization of rotation maps.

The format is line oriented; each line is a key followed by values:

    n_darts 4
    sigma 1 3 4 2
    alpha 2 1 4 3
    root 1
    labels 1 2

``sigma`` and ``alpha`` list the images of darts 1..2n.  The optional
``labels`` line carries one integer per vertex, ordered by each vertex's
least dart.  Blank lines and lines starting with '#' are ignored.

Writing normalizes dart names first: scanning darts in ascending order,
the k-th new edge met gets darts 2k-1 and 2k.  Reading accepts any valid
arrays, so write(read(text)) == write(read(write(read(text)))) holds
bit for bit.
"""

from __future__ import annotations

from typing import Optional

from .errors import MapFormatError, StructureError
from .rotmap import RotationMap, _relabeled_arrays


def _normal_perm(m: RotationMap) -> tuple[int, ...]:
    """The relabeling that gives edge k the darts 2k-1 and 2k, by first
    appearance in ascending dart order."""
    n = m.n_darts
    perm = [0] * (n + 1)
    nxt = 1
    for d in range(1, n + 1):
        if perm[d] == 0:
            perm[d] = nxt
            perm[m.alpha[d]] = nxt + 1
            nxt += 2
    return tuple(perm)


def normalize_darts(m: RotationMap) -> tuple[RotationMap, tuple[int, ...]]:
    """Rename darts so edge k uses darts 2k-1 and 2k, by first appearance.

    Returns (map, perm) with perm the 1-indexed relabeling applied.
    """
    perm = _normal_perm(m)
    return m.relabel(perm), perm


def write_map_text(m: RotationMap,
                   labels: Optional[tuple[int, ...]] = None) -> str:
    """Serialize a map, normalizing dart names first; builds no map."""
    perm = _normal_perm(m)
    sig, alf = _relabeled_arrays(m, perm)
    lines = [
        f"n_darts {m.n_darts}",
        "sigma " + " ".join(map(str, sig[1:])),
        "alpha " + " ".join(map(str, alf[1:])),
        f"root {perm[m.root]}",
    ]
    if labels is not None:
        if len(labels) != m.n_vertices:
            raise MapFormatError(
                f"got {len(labels)} labels for {m.n_vertices} vertices")
        # vertex order follows least darts, which the relabeling permutes
        relabeled = sorted(range(m.n_vertices),
                           key=lambda i: min(perm[d] for d in
                                             m.vertices[i]))
        lines.append("labels " + " ".join(str(labels[i]) for i in relabeled))
    return "\n".join(lines) + "\n"


def parse_map_text(text: str):
    """Parse serialized map text.

    Returns (RotationMap, labels or None).  Raises MapFormatError with
    the offending line or field named.
    """
    fields: dict[str, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key, vals = parts[0], parts[1:]
        if key not in ("n_darts", "sigma", "alpha", "root", "labels"):
            raise MapFormatError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise MapFormatError(f"line {lineno}: duplicate field {key!r}")
        try:
            fields[key] = [int(v) for v in vals]
        except ValueError:
            raise MapFormatError(
                f"line {lineno}: field {key!r} holds a non-integer") from None
    for key in ("n_darts", "sigma", "alpha", "root"):
        if key not in fields:
            raise MapFormatError(f"missing field {key!r}")
    if len(fields["n_darts"]) != 1:
        raise MapFormatError("field 'n_darts' needs exactly one value")
    if len(fields["root"]) != 1:
        raise MapFormatError("field 'root' needs exactly one value")
    n = fields["n_darts"][0]
    for key in ("sigma", "alpha"):
        if len(fields[key]) != n:
            raise MapFormatError(
                f"field {key!r} has {len(fields[key])} entries, expected {n}")
    try:
        m = RotationMap((0,) + tuple(fields["sigma"]),
                        (0,) + tuple(fields["alpha"]),
                        fields["root"][0])
    except StructureError as exc:
        raise MapFormatError(f"not a valid map: {exc}") from exc
    labels = None
    if "labels" in fields:
        if len(fields["labels"]) != m.n_vertices:
            raise MapFormatError(
                f"field 'labels' has {len(fields['labels'])} entries "
                f"for {m.n_vertices} vertices")
        labels = tuple(fields["labels"])
    return m, labels
