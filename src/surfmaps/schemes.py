"""Reduced cores and schemes of one-face labeled maps.

A one-face labeled map of positive genus retracts onto a core with no
degree-1 vertices; the trees that hang off the core are remembered per
corner so the retraction inverts exactly. Contracting the core's chains
of degree-2 vertices leaves a scheme: a one-face map with all degrees at
least 3, its vertices carrying the distinct chain-end labels squashed to
an integer interval. The labels along each contracted chain form a
Motzkin walk. Scheme shapes of a given genus are finitely many, which
turns questions about all one-face labeled maps into finite sums.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Optional

from .census import iter_one_face_maps
from .errors import BudgetError, InternalCheckError, PreconditionError
from .labeling import LabeledMap, _restrict_labeled
from .rotmap import RotationMap, face_corners

__all__ = ["ReducedTree", "Scheme", "MotzkinWalk", "SchemeDecomposition",
           "DProfile", "reduce", "graft", "extract_scheme", "rebuild",
           "iter_schemes", "enumerate_schemes", "dominant_schemes",
           "d_profile", "MAX_GENUS_ENV"]

MAX_GENUS_ENV = "SURFMAPS_MAX_SCHEME_GENUS"
_DEFAULT_MAX_GENUS = 2


def _max_genus() -> int:
    raw = os.environ.get(MAX_GENUS_ENV)
    if raw is None:
        return _DEFAULT_MAX_GENUS
    try:
        return int(raw)
    except ValueError:
        raise BudgetError(f"{MAX_GENUS_ENV} must be an integer, got {raw!r}")


def _check_genus(g: int) -> None:
    if not isinstance(g, int):
        raise PreconditionError(f"genus must be an integer, got {g!r}")
    if g < 1:
        raise PreconditionError(
            "schemes exist for genus 1 and up; the planar case has no core")
    cap = _max_genus()
    if g > cap:
        raise BudgetError(
            f"genus {g} exceeds the scheme generation cap {cap}; "
            f"raise {MAX_GENUS_ENV} to override")


@dataclass(frozen=True)
class ReducedTree:
    """A one-face labeled map with no degree-1 vertices, plus the trees
    that were pruned off it, one per corner in face-walk order from the
    root corner. ``second_root`` marks an arc of the first attachment
    when the original root sat there."""

    core: LabeledMap
    attachments: tuple[Optional[LabeledMap], ...]
    second_root: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "attachments", tuple(self.attachments))
        m = self.core.map
        if m.n_faces != 1:
            raise PreconditionError("core must have one face")
        if m.genus < 1:
            raise PreconditionError("core must have positive genus")
        if any(len(orb) == 1 for orb in m.vertices):
            raise PreconditionError("core has a degree-1 vertex")
        if len(self.attachments) != m.n_darts:
            raise PreconditionError(
                f"{len(self.attachments)} attachments for "
                f"{m.n_darts} corners")
        for i, a in enumerate(self.attachments):
            if a is not None and a.map.genus != 0:
                raise PreconditionError(f"attachment {i} is not planar")
        if self.second_root is not None:
            first = self.attachments[0]
            if first is None:
                raise PreconditionError(
                    "second root given but the first attachment is trivial")
            if not (1 <= self.second_root <= first.map.n_darts):
                raise PreconditionError("second root is out of range")


def _check_shape(shape: RotationMap) -> None:
    """The conditions a scheme puts on its shape, labels aside."""
    if shape.n_faces != 1:
        raise PreconditionError("scheme shape must have one face")
    if any(len(orb) < 3 for orb in shape.vertices):
        raise PreconditionError("scheme shape has a vertex of degree < 3")
    if shape.genus < 1:
        raise PreconditionError("scheme shape must have positive genus")
    # one face and min degree 3 force sum (deg-2) = 4g-2
    total = sum(len(orb) - 2 for orb in shape.vertices)
    if total != 4 * shape.genus - 2:
        raise InternalCheckError("degree identity failed")


@dataclass(frozen=True, slots=True)
class Scheme:
    """A rooted one-face map with all degrees >= 3, labeled by the
    integer interval 0..p."""

    shape: RotationMap
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        _check_shape(self.shape)
        q = self.shape.n_vertices
        if len(self.labels) != q:
            raise PreconditionError(
                f"{len(self.labels)} labels for {q} vertices")
        if set(self.labels) != set(range(max(self.labels) + 1)):
            raise PreconditionError(
                "scheme labels must fill an interval starting at 0")

    @property
    def k(self) -> int:
        return self.shape.n_edges

    @property
    def p(self) -> int:
        return max(self.labels)

    def sort_key(self) -> tuple:
        return (self.k, self.shape.sigma, self.shape.alpha, self.labels)


# the slot descriptors of Scheme's fields set them past the frozen guard
_set_shape = Scheme.shape.__set__
_set_labels = Scheme.labels.__set__


def _trusted_scheme(shape: RotationMap, labels: tuple[int, ...]) -> Scheme:
    """A Scheme built without __post_init__, for the generators below:
    the shape has passed _check_shape and the labels tuple is a
    surjection onto 0..p of length n_vertices by construction."""
    s = object.__new__(Scheme)
    _set_shape(s, shape)
    _set_labels(s, labels)
    return s


@dataclass(frozen=True)
class MotzkinWalk:
    steps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if any(s not in (-1, 0, 1) for s in self.steps):
            raise PreconditionError("walk steps must be -1, 0 or +1")

    @property
    def increment(self) -> int:
        return sum(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class SchemeDecomposition:
    """A scheme, one Motzkin walk per scheme edge, and the increasing
    positive values the nonzero scheme labels stand for."""

    scheme: Scheme
    walks: tuple[MotzkinWalk, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "walks", tuple(self.walks))
        object.__setattr__(self, "values", tuple(self.values))
        s = self.scheme
        if len(self.walks) != s.k:
            raise PreconditionError(
                f"{len(self.walks)} walks for {s.k} edges")
        if any(len(w) == 0 for w in self.walks):
            raise PreconditionError("every walk must be non-empty")
        if len(self.values) != s.p:
            raise PreconditionError(
                f"{len(self.values)} values for p = {s.p}")
        if any(v < 1 for v in self.values) or \
                any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise PreconditionError("values must be increasing and positive")
        vals = (0,) + self.values
        vi = s.shape.vertex_index
        for idx, (d, e) in enumerate(s.shape.edges):
            want = vals[s.labels[vi[e]]] - vals[s.labels[vi[d]]]
            got = self.walks[idx].increment
            if got != want:
                raise PreconditionError(
                    f"walk {idx} has increment {got} but edge "
                    f"({d},{e}) needs {want}")


# -- reduction ---------------------------------------------------------------


def _pendant_subtree(m: RotationMap, seeds: list[int]) -> list[int]:
    """All darts of the trees hanging below the given same-corner darts."""
    result = []
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        d = stack.pop()
        result.append(d)
        e = m.alpha[d]
        if e not in seen:
            for x in m.vertices[m.vertex_index[e]]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
    return result


def reduce(t: LabeledMap) -> ReducedTree:
    """Prune degree-1 vertices until none remain, remembering what hung
    where. Needs one face and positive genus."""
    m = t.map
    if m.n_faces != 1:
        raise PreconditionError("reduction needs a one-face map")
    if m.genus < 1:
        raise PreconditionError(
            "a planar one-face map has no cycles: nothing would remain")
    vdeg = [len(orb) for orb in m.vertices]
    alive = [True] * (m.n_darts + 1)
    dead_v = set()
    stack = [v for v in range(m.n_vertices) if vdeg[v] == 1]
    while stack:
        v = stack.pop()
        if vdeg[v] != 1:
            continue
        dead_v.add(v)
        vdeg[v] = 0
        d = next(x for x in m.vertices[v] if alive[x])
        alive[d] = alive[m.alpha[d]] = False
        w = m.vertex_index[m.alpha[d]]
        vdeg[w] -= 1
        if vdeg[w] == 1:
            stack.append(w)

    # group the pruned darts into runs, one per surviving corner
    runs: dict[int, list[int]] = {}
    for v in range(m.n_vertices):
        if vdeg[v] == 0:
            continue
        orbit = m.vertices[v]
        core_pos = [i for i, d in enumerate(orbit) if alive[d]]
        for j, i in enumerate(core_pos):
            stop = core_pos[(j + 1) % len(core_pos)]
            run = []
            i2 = (i + 1) % len(orbit)
            while i2 != stop:
                run.append(orbit[i2])
                i2 = (i2 + 1) % len(orbit)
            runs[orbit[i]] = run

    root_core = m.root
    second_old = None
    if not alive[m.root]:
        for x, run in runs.items():
            if run and m.root in set(_pendant_subtree(m, run)):
                root_core = x
                second_old = m.root
                break
        else:
            raise InternalCheckError("root fell outside every corner")

    kept = [d for d in range(1, m.n_darts + 1) if alive[d]]
    core, _ = _restrict_labeled(t, kept, root_core, frozenset(dead_v))

    cs = face_corners(core.map, core.map.root)
    i0 = cs.index(core.map.root)
    order = cs[i0:] + cs[:i0]
    attachments: list[Optional[LabeledMap]] = []
    second_root = None
    # an attachment keeps only its pendant darts, so any vertex may vanish
    all_vertices = frozenset(range(m.n_vertices))
    for y in order:
        run = runs[kept[y - 1]]
        if not run:
            attachments.append(None)
            continue
        att, ren = _restrict_labeled(
            t, sorted(_pendant_subtree(m, run)), run[0], all_vertices)
        attachments.append(att)
        if second_old is not None and second_old in ren:
            second_root = ren[second_old]
    if second_old is not None and second_root is None:
        raise InternalCheckError("root attachment lost the root arc")
    return ReducedTree(core, tuple(attachments), second_root)


def graft(r: ReducedTree) -> LabeledMap:
    """Hang the attachments back onto the core corners; inverse of reduce."""
    core = r.core.map
    cs = face_corners(core, core.root)
    i0 = cs.index(core.root)
    order = cs[i0:] + cs[:i0]

    n_total = core.n_darts + sum(a.map.n_darts for a in r.attachments
                                 if a is not None)
    sig = [0] * (n_total + 1)
    alf = [0] * (n_total + 1)
    lab: dict[int, int] = {}
    for d in range(1, core.n_darts + 1):
        sig[d] = core.sigma[d]
        alf[d] = core.alpha[d]
        lab[d] = r.core.labels[core.vertex_index[d]]

    root = core.root
    offset = core.n_darts
    for i, y in enumerate(order):
        a = r.attachments[i]
        if a is None:
            continue
        am = a.map
        corner_label = r.core.labels[core.vertex_index[y]]
        if a.root_label != corner_label:
            raise PreconditionError(
                f"attachment {i} has root label {a.root_label}, its "
                f"corner is labeled {corner_label}")
        for d in range(1, am.n_darts + 1):
            sig[offset + d] = offset + am.sigma[d]
            alf[offset + d] = offset + am.alpha[d]
            lab[offset + d] = a.labels[am.vertex_index[d]]
        rv = am.vertices[am.vertex_index[am.root]]
        j0 = rv.index(am.root)
        run = rv[j0:] + rv[:j0]
        sig[offset + run[-1]] = sig[y]
        sig[y] = offset + run[0]
        if i == 0 and r.second_root is not None:
            root = offset + r.second_root
        offset += am.n_darts

    out = RotationMap(tuple(sig), tuple(alf), root)
    labels = tuple(lab[orb[0]] for orb in out.vertices)
    return LabeledMap(out, labels)


# -- scheme extraction -------------------------------------------------------


def extract_scheme(r: ReducedTree) -> SchemeDecomposition:
    """Contract the core's degree-2 chains; the attachments drop out.

    The walk of each scheme edge reads the core labels along its chain,
    oriented from the edge's smaller dart. Labels are translated so the
    smallest becomes 0, then squashed to their rank.
    """
    m = r.core.map
    labels = r.core.labels
    vi = m.vertex_index
    branch = {d for v in range(m.n_vertices) if len(m.vertices[v]) >= 3
              for d in m.vertices[v]}
    if not branch:
        raise InternalCheckError("positive-genus core with all degrees 2")
    sigma_inv = [0] * (m.n_darts + 1)
    for d in range(1, m.n_darts + 1):
        sigma_inv[m.sigma[d]] = d

    def chain(d: int):
        # follow the chain leaving branch dart d; collect label steps
        steps = []
        x = d
        prev = labels[vi[x]]
        while True:
            e = m.alpha[x]
            cur = labels[vi[e]]
            steps.append(cur - prev)
            prev = cur
            if e in branch:
                return e, tuple(steps)
            x = m.sigma[e]

    bdarts = sorted(branch)
    ren = {d: i + 1 for i, d in enumerate(bdarts)}
    sig = [0] * (len(bdarts) + 1)
    alf = [0] * (len(bdarts) + 1)
    chain_steps: dict[int, tuple[int, ...]] = {}
    for d in bdarts:
        sig[ren[d]] = ren[m.sigma[d]]
        far, steps = chain(d)
        alf[ren[d]] = ren[far]
        chain_steps[ren[d]] = steps

    x = m.root
    while x not in branch:
        x = m.alpha[sigma_inv[x]]
    shape = RotationMap(tuple(sig), tuple(alf), ren[x])

    raw = [labels[vi[bdarts[orb[0] - 1]]] for orb in shape.vertices]
    vals = sorted(set(raw))
    shape_labels = tuple(vals.index(x) for x in raw)
    values = tuple(v - vals[0] for v in vals[1:])
    walks = tuple(MotzkinWalk(chain_steps[d])
                  for d, _ in shape.edges)
    return SchemeDecomposition(Scheme(shape, shape_labels), walks, values)


def rebuild(dec: SchemeDecomposition) -> ReducedTree:
    """Subdivide each scheme edge along its walk; inverse of
    extract_scheme up to the label translation it performed."""
    s = dec.scheme
    shape = s.shape
    vals = (0,) + dec.values
    vi = shape.vertex_index
    n_total = shape.n_darts + sum(2 * (len(w) - 1) for w in dec.walks)
    sig = [0] * (n_total + 1)
    alf = [0] * (n_total + 1)
    lab: dict[int, int] = {}
    for d in range(1, shape.n_darts + 1):
        sig[d] = shape.sigma[d]
        lab[d] = vals[s.labels[vi[d]]]

    nxt = shape.n_darts + 1
    for idx, (d, e) in enumerate(shape.edges):
        steps = dec.walks[idx].steps
        prev = d
        cur = lab[d]
        for stp in steps[:-1]:
            a, b = nxt, nxt + 1
            nxt += 2
            sig[a], sig[b] = b, a
            alf[prev], alf[a] = a, prev
            cur += stp
            lab[a] = lab[b] = cur
            prev = b
        alf[prev], alf[e] = e, prev
        if cur + steps[-1] != lab[e]:
            raise InternalCheckError("walk does not meet its far label")

    core_map = RotationMap(tuple(sig), tuple(alf), shape.root)
    labels = tuple(lab[orb[0]] for orb in core_map.vertices)
    core = LabeledMap(core_map, labels)
    return ReducedTree(core, (None,) * core_map.n_darts, None)


# -- generation --------------------------------------------------------------


@lru_cache(maxsize=None)
def _shapes(n_edges: int, genus: int) -> tuple[RotationMap, ...]:
    return tuple(iter_one_face_maps(n_edges, genus=genus, min_degree=3))


@lru_cache(maxsize=None)
def _interval_labelings(q: int) -> tuple[tuple[int, ...], ...]:
    """All surjections of q vertices onto {0..p}, every p < q."""
    return tuple(combo for p in range(q)
                 for combo in itertools.product(range(p + 1), repeat=q)
                 if len(set(combo)) == p + 1)


def iter_schemes(g: int):
    """Stream every rooted scheme of genus g, shapes in ascending edge
    count. Guarded by a genus cap; the count grows superexponentially."""
    _check_genus(g)
    for k in range(2 * g, 6 * g - 2):
        for shape in _shapes(k, g):
            _check_shape(shape)
            for combo in _interval_labelings(shape.n_vertices):
                yield _trusted_scheme(shape, combo)


def enumerate_schemes(g: int) -> list[Scheme]:
    """All rooted schemes of genus g in a stable order."""
    return sorted(iter_schemes(g), key=Scheme.sort_key)


def dominant_schemes(g: int) -> list[Scheme]:
    """The schemes with 4g-2 degree-3 vertices, all labels distinct.
    These carry the dominant weight in the counting series."""
    _check_genus(g)
    k = 6 * g - 3
    out = []
    for shape in _shapes(k, g):
        _check_shape(shape)
        # at the maximal edge count the degree identity forces all 3s
        if any(len(orb) != 3 for orb in shape.vertices):
            raise InternalCheckError("non-cubic shape at maximal edge count")
        out.extend(_trusted_scheme(shape, perm) for perm in
                   itertools.permutations(range(shape.n_vertices)))
    out.sort(key=Scheme.sort_key)
    return out


class DProfile(NamedTuple):
    """Edge statistics of a scheme, enough to assemble its weight."""

    k: int
    p: int
    e_eq: int
    e_ne: int
    d_levels: tuple[int, ...]
    d: int


# d_profile packs an edge's contribution to every count into one integer:
# field 0 counts edges with equal end labels, field j in 1..p the edges
# straddling level j. Field j holds bits width*j .. width*(j+1) - 1.


@lru_cache(maxsize=1 << 12)
def _edge_entries(ends: tuple[tuple[int, int], ...], q: int) -> itemgetter:
    """Picks, out of a _packed_row, each edge's entry and the top mark."""
    return itemgetter(*(a * q + b if a <= b else b * q + a for a, b in ends),
                      q * q)


@lru_cache(maxsize=1 << 13)
def _packed_row(labels: tuple[int, ...], width: int) -> tuple[int, ...]:
    """At index a*q + b, the packed counts of one edge between vertices
    a <= b: a 1 in field 0 if their labels are equal, else a 1 in every
    field lo+1..hi that the labels lo < hi straddle. The entry at q*q is
    the top mark, a 1 in field p+1, so a sum's bit length tells p."""
    q = len(labels)
    ones = (1 << width) - 1
    row = [0] * (q * q) + [1 << width * (max(labels) + 1)]
    for a in range(q):
        for b in range(a, q):
            lo, hi = sorted((labels[a], labels[b]))
            row[a * q + b] = 1 if lo == hi else (
                ((1 << width * (hi + 1)) - (1 << width * (lo + 1))) // ones)
    return tuple(row)


@lru_cache(maxsize=1 << 12)
def _unpacked_profile(total: int, k: int) -> DProfile:
    """The DProfile that a packed sum over all k edges stands for."""
    width = k.bit_length()
    p = (total.bit_length() - 1) // width - 1
    mask = (1 << width) - 1
    e_eq = total & mask
    d_levels = tuple((total >> width * j) & mask for j in range(1, p + 1))
    return DProfile(k, p, e_eq, k - e_eq, d_levels, sum(d_levels))


def d_profile(s: Scheme) -> DProfile:
    """Count, per level j in 1..p, the edges whose endpoint labels
    straddle j, and the edges whose endpoint labels are equal.

    The counts are summed in one integer, one bit field per count, of
    width k.bit_length() bits. No count exceeds the edge count k, and
    k < 2**width, so no field carries into the next.
    """
    labels = s.labels
    ends = s.shape.edge_ends
    k = len(ends)
    row = _packed_row(labels, k.bit_length())
    return _unpacked_profile(sum(_edge_entries(ends, len(labels))(row)), k)
