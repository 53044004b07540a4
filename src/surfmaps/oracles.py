"""Independent oracles for the exact counts.

Nothing here imports the rest of surfmaps except its errors: an oracle
must not share code with what it checks, so a fast wrong answer from
the scheme and series layers cannot also corrupt its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import InternalCheckError, PreconditionError

__all__ = ["one_face_map_counts", "rooted_map_counts",
           "scheme_shape_counts"]


def _check_naturals(g_max, n_max) -> None:
    for x, what in ((g_max, "g_max"), (n_max, "n_max")):
        if not isinstance(x, int) or x < 0:
            raise PreconditionError(
                f"{what} must be an integer >= 0, got {x!r}")


def _exact_div(num: int, den: int, where: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise InternalCheckError(f"recurrence is not integral at {where}")
    return q


def rooted_map_counts(g_max: int, n_max: int) -> list[list[int]]:
    """Q[g][n] for g <= g_max and n <= n_max: the rooted maps with n
    edges on the orientable surface of genus g, that is the rooted
    bipartite quadrangulations with n faces.

    The Carrell-Chapuy recurrence (J. Combin. Theory Ser. A 133 (2015),
    arXiv:1402.6300), multiplied through by 6, from Q_0(0) = 1:

      (n+1) Q_g(n) = 4(2n-1) Q_g(n-1) + (n-1)(2n-3)(2n-1) Q_{g-1}(n-2)
                     + 3 sum_{k+l=n-2} sum_{i+j=g} R_i(k) R_j(l)

    with R_g(k) = (2k+1) Q_g(k). It needs no map, scheme or series.
    """
    _check_naturals(g_max, n_max)
    Q = [[0] * (n_max + 1) for _ in range(g_max + 1)]
    R = [[0] * (n_max + 1) for _ in range(g_max + 1)]
    Q[0][0] = R[0][0] = 1
    for n in range(1, n_max + 1):
        for g in range(g_max + 1):
            acc = 4 * (2 * n - 1) * Q[g][n - 1]
            if g and n >= 2:
                acc += (n - 1) * (2 * n - 3) * (2 * n - 1) * Q[g - 1][n - 2]
            acc += 3 * sum(sum(map(mul, R[i][:n - 1],
                                   reversed(R[g - i][:n - 1])))
                           for i in range(g + 1))
            q = _exact_div(acc, n + 1, f"g={g}, n={n}")
            Q[g][n], R[g][n] = q, (2 * n + 1) * q
    return Q


def one_face_map_counts(g_max: int, n_max: int) -> list[list[int]]:
    """E[g][n] for g <= g_max and n <= n_max: the rooted one-face maps
    with n edges on the orientable surface of genus g.

    The Harer-Zagier recurrence ("The Euler characteristic of the moduli
    space of curves", Invent. Math. 85 (1986) 457-485), from
    E_0(0) = 1:

      (n+1) E_g(n) = 2(2n-1) E_g(n-1) + (n-1)(2n-1)(2n-3) E_{g-1}(n-2)
    """
    _check_naturals(g_max, n_max)
    E = [[0] * (n_max + 1) for _ in range(g_max + 1)]
    E[0][0] = 1
    for n in range(1, n_max + 1):
        for g in range(g_max + 1):
            acc = 2 * (2 * n - 1) * E[g][n - 1]
            if g and n >= 2:
                acc += (n - 1) * (2 * n - 1) * (2 * n - 3) * E[g - 1][n - 2]
            E[g][n] = _exact_div(acc, n + 1, f"g={g}, n={n}")
    return E


def scheme_shape_counts(g: int) -> dict[int, int]:
    """{k: s_k} for 2g <= k <= 6g-3: the rooted one-face maps of genus
    g >= 1 with k edges and every vertex degree at least 3 (the shapes
    of the genus-g schemes), solved from the one-face counts E_g.

    A genus-g one-face map prunes to its core, whose chains of degree-2
    vertices contract to a shape. Inversely each shape edge becomes a
    path of j >= 1 edges with a plane tree in each of its corners. With
    C the Catalan series and Y = zC^2 / (1 - zC^2), this reads

      sum_n E_g(n) z^n = 2z d/dz sum_k s_k / (2k) Y^k.

    Y^k starts at z^k with coefficient 1, so the coefficients of z^n,
    n = 1, 2, ..., give s_n one by one. The solve runs one edge count
    past 6g-3, where degree >= 3 leaves no shape, and raises
    InternalCheckError unless every s_n is a natural number that is 0
    outside [2g, 6g-3].
    """
    if not isinstance(g, int) or g < 1:
        raise PreconditionError(f"g must be an integer >= 1, got {g!r}")
    top = 6 * g - 2
    E = one_face_map_counts(g, top)
    eps = E[g]
    # the planar one-face maps are the plane trees, so E[0] is C, and
    # x = zC^2 = C - 1; then Y = x / (1 - x) = x + xY
    x = [0] + E[0][1:]
    y = [0] * (top + 1)
    for n in range(1, top + 1):
        y[n] = x[n] + sum(x[i] * y[n - i] for i in range(1, n))
    # powers[k] holds the coefficients of Y^k up to z^top
    powers = [None, y]
    for _ in range(2, top + 1):
        prev = powers[-1]
        powers.append([sum(prev[i] * y[n - i] for i in range(1, n))
                       for n in range(top + 1)])
    a = [Fraction(0)] * (top + 1)  # a[k] = s_k / (2k)
    counts = {}
    for n in range(1, top + 1):
        a[n] = (Fraction(eps[n], 2 * n)
                - sum(a[k] * powers[k][n] for k in range(1, n)))
        s = 2 * n * a[n]
        inside = 2 * g <= n <= 6 * g - 3
        if s.denominator != 1 or s < 0 or (s and not inside):
            raise InternalCheckError(
                f"shape count at genus {g}, {n} edges solves to {s}")
        if inside:
            counts[n] = int(s)
    return counts
