"""Exact values the benchmark checks surfmaps against.

Nothing here imports surfmaps: every expected value is either a closed
form, an independent recurrence, or a literal count, so a fast wrong
answer from the library cannot also corrupt its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# rooted bipartite quadrangulations with n faces (= rooted maps with n edges)
PLANAR_CENSUS = {1: 2, 2: 9, 3: 54, 4: 378, 5: 2916}
TORUS_CENSUS = {2: 1, 3: 20, 4: 307}
CENSUS = {0: PLANAR_CENSUS, 1: TORUS_CENSUS}

# tau(g) and the growth constant c(g) = rational * pi^(pi_power/2)
TAU = {1: Fraction(2, 3), 2: Fraction(896, 9)}
CONSTANT = {1: (Fraction(1, 24), 0), 2: (Fraction(7, 4320), -1)}
# rational part of Gamma((5g-3)/2); its sqrt(pi) is the -1 pi power above
GAMMA_RATIONAL = {1: Fraction(1), 2: Fraction(15, 8)}

# scheme-layer work counts: they are mathematical invariants
SHAPE_COUNTS = {1: {2: 1, 3: 1},
                2: {4: 21, 5: 168, 6: 483, 7: 651, 8: 420, 9: 105}}
SCHEME_COUNTS = {1: 4, 2: 774_564}
DOMINANT_COUNTS = {1: 2, 2: 75_600}
PROFILE_COUNTS = {1: 3, 2: 942}


def planar_count(n: int) -> int:
    """Rooted planar quadrangulations with n faces: 2 * 3^n * Cat(n) / (n+2)."""
    num = 2 * 3 ** n * comb(2 * n, n)
    den = (n + 1) * (n + 2)
    if num % den:
        raise ArithmeticError(f"closed form not integral at n={n}")
    return num // den


def tau_from_constant(g: int, rational: Fraction) -> Fraction:
    """Invert c(g) = 3^g tau(g) / ((6g-3) 2^(11g-7) Gamma((5g-3)/2))."""
    return (rational * (6 * g - 3) * 2 ** (11 * g - 7) * GAMMA_RATIONAL[g]
            / 3 ** g)


def rooted_map_counts(g_max: int, n_max: int) -> list[list[int]]:
    """Q[g][n], rooted maps with n edges on the genus-g surface, for
    g <= g_max and n <= n_max, by the Carrell-Chapuy recurrence
    (JCTA 2015, arXiv:1402.6300), with Q_0(0) = 1:

      (n+1)/6 Q_g(n) = (4n-2)/3 Q_g(n-1)
                       + (2n-3)(2n-2)(2n-1)/12 Q_{g-1}(n-2)
                       + 1/2 sum_{k+l=n-2} sum_{i+j=g} (2k+1)(2l+1) Q_i(k) Q_j(l)

    computed over the integers after multiplying through by 12.
    """
    Q = [[0] * (n_max + 1) for _ in range(g_max + 1)]
    Q[0][0] = 1
    for n in range(1, n_max + 1):
        for g in range(g_max + 1):
            acc = 4 * (4 * n - 2) * Q[g][n - 1]
            if g and n >= 2:
                acc += (2 * n - 3) * (2 * n - 2) * (2 * n - 1) * Q[g - 1][n - 2]
            conv = 0
            for k in range(n - 1):
                l = n - 2 - k
                w = (2 * k + 1) * (2 * l + 1)
                for i in range(g + 1):
                    conv += w * Q[i][k] * Q[g - i][l]
            acc += 6 * conv
            q, r = divmod(acc, 2 * (n + 1))
            if r:
                raise ArithmeticError(f"recurrence not integral at g={g} n={n}")
            Q[g][n] = q
    return Q


def _laurent_times(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v != 0}


def is_u_symmetric(num: dict, den: dict) -> bool:
    """num(U)/den(U) == num(1/U)/den(1/U), by cross multiplication.

    num and den map exponents of U to coefficients.
    """
    def flip(p: dict) -> dict:
        return {-k: v for k, v in p.items()}

    return _laurent_times(num, flip(den)) == _laurent_times(flip(num), den)
