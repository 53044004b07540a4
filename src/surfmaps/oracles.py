"""Independent oracles for the exact counts.

Nothing here imports the rest of surfmaps except its errors: an oracle
must not share code with what it checks, so a fast wrong answer from
the scheme and series layers cannot also corrupt its own reference.
"""

from __future__ import annotations

from operator import mul

from .errors import InternalCheckError, PreconditionError

__all__ = ["rooted_map_counts"]


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
    for x, what in ((g_max, "g_max"), (n_max, "n_max")):
        if not isinstance(x, int) or x < 0:
            raise PreconditionError(
                f"{what} must be an integer >= 0, got {x!r}")
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
            q, r = divmod(acc, n + 1)
            if r:
                raise InternalCheckError(
                    f"recurrence is not integral at g={g}, n={n}")
            Q[g][n], R[g][n] = q, (2 * n + 1) * q
    return Q
