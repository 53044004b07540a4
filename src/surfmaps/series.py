"""Exact generating series for surface map enumeration.

Coefficients are plain lists, constant term first, and four kernels do
all the arithmetic on them: the product kept through coefficient n
(_poly_mul), the power (_poly_pow), series division (_poly_div) and
evaluation at zT^2 (_at_zT2). Integer inputs stay integer in each.
TruncatedSeries (a power series cut at a fixed order, tagged z for
face-counted series and t for the Motzkin side), LaurentPoly and
ULaurentRational (rational functions of the Motzkin series U, where
scheme weights have a closed product form and the genus series is
assembled before any expansion) hold Fraction coefficients and do
their arithmetic through these kernels.

The weight sum is U -> 1/U symmetric, hence a rational function of
t = U/(1 + U + U^2). to_t_rational finds it in integers: one scale
clears the numerator, both parts are multiplied by the conjugate
denominator, and each product, a palindrome up to a power of U, is
peeled from its lowest term in the palindromic basis
U^j (1 + U + U^2)^(m-j) = U^m t^(j-m). A numerator that leaves a
remainder is not symmetric.

rhat and series_Tg both read that t-form (_weight_in_t): integer
parts, one scale that divides the numerator, and a denominator that
starts with 1, so each expansion is one integer division. rhat divides
the parts as series in t. series_Tg first sets t = zT^2 in both with no
series product: by Lagrange inversion [z^n](zT^2)^k =
(k/n) C(2n, n-k) 3^(n-k), so _at_zT2 evaluates them term by term.

Everything is exact. No float enters any computation; the only float
ever produced is AsymptoticConstant.approx() for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Counter as CounterT
from collections import Counter

from .errors import InternalCheckError, PreconditionError
from .schemes import (
    DProfile,
    Scheme,
    d_profile,
    dominant_schemes,
    iter_schemes,
    _profile_groups,
)

__all__ = [
    "TruncatedSeries",
    "LaurentPoly",
    "ULaurentRational",
    "AsymptoticConstant",
    "series_T",
    "series_U",
    "series_B",
    "series_M",
    "weight",
    "rhat",
    "rhat_exact",
    "series_Tg",
    "series_Q_bullet",
    "series_Qg",
    "tau",
    "asympt_constant",
    "u_symmetry_check",
    "to_t_rational",
]

DEFAULT_ORDER = 30


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise PreconditionError(f"coefficient {x!r} is not an exact rational")


def _check_natural(x, what: str) -> None:
    """The one gate on orders, powers, increments and genera."""
    if not isinstance(x, int) or x < 0:
        raise PreconditionError(f"{what} must be an integer >= 0, got {x!r}")


# ---------------------------------------------------------------------------
# coefficient-list kernels


def _poly_mul(a, b, n=None) -> list:
    """Product of coefficient lists through coefficient n (by default
    the whole product)."""
    if n is None:
        n = len(a) + len(b) - 2
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _poly_pow(a, k: int, n=None) -> list:
    """a^k by squaring, through coefficient n (by default the whole
    power)."""
    if n is None:
        n = (len(a) - 1) * k
    out = [1] + [0] * n
    while k:
        if k & 1:
            out = _poly_mul(out, a, n)
        k >>= 1
        if k:
            a = _poly_mul(a, a, n)
    return out


def _at_zT2(p, n: int) -> list:
    """p(zT^2) through coefficient n, for an integer polynomial p and
    T = 1 + 3zT^2: coefficient m sums the integers p[k] (k/m) b with
    b = C(2m, m-k) 3^(m-k), which steps down k by exact division."""
    out = [p[0]] + [0] * n
    for m in range(1, n + 1):
        b, acc = math.comb(2 * m, m - 1) * 3 ** (m - 1), 0
        for k, c in enumerate(p[1:m + 1], 1):
            acc += k * c * b
            b = b * (m - k) // (3 * (m + k + 1))
        out[m] = acc // m
    return out


def _poly_div(a, b, n: int) -> list:
    """a / b through coefficient n, for b with nonzero constant term;
    integer when a and b are and b starts with 1."""
    out = []
    for i in range(n + 1):
        acc = a[i] - sum(map(mul, b[1:i + 1], reversed(out)))
        out.append(acc if b[0] == 1 else Fraction(acc, b[0]))
    return out


# ---------------------------------------------------------------------------
# truncated power series


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series modulo x^(order+1) with exact rational coefficients.

    var is 't' or 'z'; mixing variables in arithmetic is an error.
    Binary operations truncate to the smaller order.
    """

    var: str
    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.var not in ("t", "z"):
            raise PreconditionError(f"unknown series variable {self.var!r}")
        _check_natural(self.order, "series order")
        cs = tuple(_frac(c) for c in self.coeffs)
        if len(cs) != self.order + 1:
            raise PreconditionError(
                f"need {self.order + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, var: str, order: int) -> "TruncatedSeries":
        return cls.constant(var, order, 0)

    @classmethod
    def constant(cls, var: str, order: int, c) -> "TruncatedSeries":
        _check_natural(order, "series order")
        return cls(var, order, (c,) + (0,) * order)

    def coeff(self, n: int) -> Fraction:
        _check_natural(n, "coefficient index")
        if n > self.order:
            raise PreconditionError(
                f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def _align(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise PreconditionError("expected a TruncatedSeries operand")
        if self.var != other.var:
            raise PreconditionError(
                f"cannot mix series in {self.var} and {other.var}")
        n = min(self.order, other.order)
        return n, self.coeffs, other.coeffs

    def __add__(self, other):
        n, a, b = self._align(other)
        return TruncatedSeries(
            self.var, n, tuple(a[i] + b[i] for i in range(n + 1)))

    def __sub__(self, other):
        n, a, b = self._align(other)
        return TruncatedSeries(
            self.var, n, tuple(a[i] - b[i] for i in range(n + 1)))

    def __mul__(self, other):
        n, a, b = self._align(other)
        return TruncatedSeries(self.var, n, _poly_mul(a, b, n))

    def scale(self, c) -> "TruncatedSeries":
        c = _frac(c)
        return TruncatedSeries(
            self.var, self.order, tuple(c * x for x in self.coeffs))

    def pow(self, k: int) -> "TruncatedSeries":
        _check_natural(k, "series power")
        return TruncatedSeries(
            self.var, self.order, _poly_pow(self.coeffs, k, self.order))

    def div(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Divide by a series with invertible constant term."""
        n, a, b = self._align(other)
        if b[0] == 0:
            raise PreconditionError("division by a series with zero constant term")
        return TruncatedSeries(self.var, n, _poly_div(a, b, n))


# ---------------------------------------------------------------------------
# base series: T, U, B, M_i


@lru_cache(maxsize=None, typed=True)
def series_T(N: int) -> TruncatedSeries:
    """Embedded plane tree series: the power series root of T = 1 + 3zT^2.

    Coefficient n is 3^n C(2n, n)/(n+1).
    """
    _check_natural(N, "order")
    cs = tuple(Fraction(3 ** n * math.comb(2 * n, n), n + 1)
               for n in range(N + 1))
    return TruncatedSeries("z", N, cs)


@lru_cache(maxsize=None, typed=True)
def series_U(N: int) -> TruncatedSeries:
    """Motzkin series: the power series root of U = t (1 + U + U^2).

    Coefficient n is coefficient n - 1 of 1 + U + U^2, which reads only
    coefficients below n, so one pass in integers fills them in order.
    """
    _check_natural(N, "order")
    u = [0] * (N + 1)
    for n in range(1, N + 1):
        m = n - 1
        u[n] = u[m] + sum(u[a] * u[m - a] for a in range(1, m)) if m else 1
    return TruncatedSeries("t", N, u)


@lru_cache(maxsize=None, typed=True)
def series_B(N: int) -> TruncatedSeries:
    """Bridge series: the power series root of B = t (1 + 2U)(1 + B),
    that is B = c / (1 - c) with c = t (1 + 2U)."""
    u = series_U(N).coeffs
    c = ([0, 1] + [2 * x for x in u[1:N]])[: N + 1]
    return TruncatedSeries("t", N, _poly_div(c, [1] + [-x for x in c[1:]], N))


def series_M(i: int, N: int) -> TruncatedSeries:
    """Walks of total increment i: M_0 = B, M_i = (1 + B) U^i for i >= 1."""
    _check_natural(i, "increment")
    B = series_B(N)
    if i == 0:
        return B
    one = TruncatedSeries.constant("t", N, 1)
    return (one + B) * series_U(N).pow(i)


# ---------------------------------------------------------------------------
# Laurent polynomials and rational functions in U


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial: coeffs[i] multiplies U^(offset+i).

    Stored stripped of zero coefficients at both ends; the zero
    polynomial has empty coeffs and offset 0.
    """

    offset: int
    coeffs: tuple

    def __post_init__(self):
        if not isinstance(self.offset, int):
            raise PreconditionError(
                f"offset must be an integer, got {self.offset!r}")
        cs = [_frac(c) for c in self.coeffs]
        off = self.offset
        lo = 0
        while lo < len(cs) and cs[lo] == 0:
            lo += 1
        hi = len(cs)
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            off, cs = 0, []
        else:
            off, cs = off + lo, cs[lo:hi]
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(0, (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def top(self) -> int:
        """Degree of the highest term (undefined on zero)."""
        if self.is_zero():
            raise PreconditionError("zero polynomial has no degree")
        return self.offset + len(self.coeffs) - 1

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.offset + other.offset,
                           _poly_mul(self.coeffs, other.coeffs))

    def scale(self, c) -> "LaurentPoly":
        c = _frac(c)
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly(self.offset, tuple(c * x for x in self.coeffs))

    def pow(self, k: int) -> "LaurentPoly":
        _check_natural(k, "Laurent power")
        return LaurentPoly(self.offset * k, _poly_pow(self.coeffs, k))

    def conj(self) -> "LaurentPoly":
        """Substitute U -> 1/U."""
        if self.is_zero():
            return self
        return LaurentPoly(-self.top, tuple(reversed(self.coeffs)))


@dataclass(frozen=True)
class ULaurentRational:
    """Quotient of Laurent polynomials in U.

    Normalized so the denominator is a genuine polynomial (offset 0)
    whose coefficients are coprime integers with positive lowest term;
    the numerator absorbs the compensating scalar and U power. Equality
    is equality of rational functions (by cross multiplication), so
    representations need not be in lowest terms.
    """

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        num, den = self.num, self.den
        if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
            raise PreconditionError("num and den must be LaurentPoly")
        if den.is_zero():
            raise PreconditionError("denominator is zero")
        if not num.is_zero():
            num = LaurentPoly(num.offset - den.offset, num.coeffs)
        den = LaurentPoly(0, den.coeffs)
        # scale both parts so den has integer content 1, lowest coeff > 0
        lcm = math.lcm(*(c.denominator for c in den.coeffs))
        scale = Fraction(lcm, math.gcd(*(int(c * lcm) for c in den.coeffs)))
        if den.coeffs[0] < 0:
            scale = -scale
        object.__setattr__(self, "num", num.scale(scale))
        object.__setattr__(self, "den", den.scale(scale))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ULaurentRational):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __mul__(self, other: "ULaurentRational") -> "ULaurentRational":
        return ULaurentRational(self.num * other.num, self.den * other.den)

    def scale(self, c) -> "ULaurentRational":
        return ULaurentRational(self.num.scale(c), self.den)


# ---------------------------------------------------------------------------
# scheme weights and the genus series


# the factors of scheme weights, as integer coefficients, constant first;
# ("C", d) stands for the chain factor 1 + U + ... + U^(d-1)
_FACTORS = {"1-U": (1, -1), "1+U": (1, 1), "1+2U": (1, 2)}


@lru_cache(maxsize=256)
def _factor_pow(key, e: int) -> tuple[int, ...]:
    """A weight factor to the power e, as integer coefficients."""
    base = _FACTORS[key] if isinstance(key, str) else (1,) * key[1]
    return tuple(_poly_pow(base, e))


def _weight_parts(prof: DProfile):
    """The weight attached to a d-profile, without its 1/k prefactor:
    the numerator as a power of U times integer coefficients (constant
    first), and the denominator as a factor multiset."""
    num = _poly_mul(_factor_pow("1+2U", prof.e_eq),
                    _factor_pow(("C", 3), prof.e_ne))
    den: CounterT = Counter()
    den["1-U"] = prof.k + prof.p
    den["1+U"] = prof.k
    for dj in prof.d_levels:
        if dj >= 2:
            den["C", dj] += 1
    return prof.d + prof.e_eq, num, den


def _assemble(terms) -> ULaurentRational:
    """Sum of coefficient * U^shift * num / product(den factors) over
    (coefficient, shift, num, den) terms, built on the least common
    denominator of the factor family.

    The rational coefficients are cleared into one integer scale, and
    the numerators of terms sharing a denominator are summed before the
    missing factor powers multiply them, so everything up to the final
    division by the scale is integer arithmetic.
    """
    terms = list(terms)
    scale = math.lcm(*(coef.denominator for coef, _, _, _ in terms))
    lcm: CounterT = Counter()
    groups: dict = {}
    for coef, shift, num, den in terms:
        for key, mult in den.items():
            lcm[key] = max(lcm[key], mult)
        acc = groups.setdefault(frozenset(den.items()), [])
        acc.extend([0] * (shift + len(num) - len(acc)))
        c = coef.numerator * (scale // coef.denominator)
        for i, x in enumerate(num):
            acc[shift + i] += c * x
    total = []
    for key, acc in groups.items():
        den = dict(key)
        for fac, mult in lcm.items():
            extra = mult - den.get(fac, 0)
            if extra:
                acc = _poly_mul(acc, _factor_pow(fac, extra))
        total.extend([0] * (len(acc) - len(total)))
        for i, x in enumerate(acc):
            total[i] += x
    full_den = [1]
    for fac, mult in lcm.items():
        full_den = _poly_mul(full_den, _factor_pow(fac, mult))
    return ULaurentRational(
        LaurentPoly(0, tuple(Fraction(x, scale) for x in total)),
        LaurentPoly(0, tuple(full_den)))


def weight(s: Scheme) -> ULaurentRational:
    """The rational weight in U carried by one scheme."""
    prof = d_profile(s)
    return _assemble([(Fraction(1, prof.k), *_weight_parts(prof))])


@lru_cache(maxsize=None)
def _profile_counts(g: int):
    return Counter({d_profile(rep): n
                    for rep, n in _profile_groups(iter_schemes(g))})


@lru_cache(maxsize=None)
def rhat_exact(g: int) -> ULaurentRational:
    """Sum of the weights of all schemes of genus g, as a rational
    function of U. Schemes sharing a d-profile share a weight, so the
    sum runs over profiles."""
    return _assemble((Fraction(count, prof.k), *_weight_parts(prof))
                     for prof, count in _profile_counts(g).items())


# ---------------------------------------------------------------------------
# symmetric rational functions of U as rational functions of t


def _conj_product(x: ULaurentRational):
    """num * conj(den) of x in integers, as (scale, offset, coeffs):
    the product is U^offset * coeffs / scale. Since den * conj(den) is
    U -> 1/U symmetric, x is iff this product is."""
    if not isinstance(x, ULaurentRational):
        raise PreconditionError(f"expected a ULaurentRational, got {x!r}")
    scale = math.lcm(*(c.denominator for c in x.num.coeffs))
    num = [c.numerator * (scale // c.denominator) for c in x.num.coeffs]
    dstar = [c.numerator for c in reversed(x.den.coeffs)]
    p = _poly_mul(num, dstar) if num else []
    return scale, x.num.offset - x.den.top, p


def u_symmetry_check(x: ULaurentRational) -> bool:
    """True iff x(U) = x(1/U) as rational functions, that is iff
    num * conj(den) is a palindrome centred on U^0."""
    _, offset, p = _conj_product(x)
    return p == p[::-1] and (not p or 2 * offset + len(p) == 1)


def _peel(rest: list, powers: list) -> list:
    """Coordinates a_0..a_m of a polynomial of degree <= 2m in the
    palindromes U^j (1 + U + U^2)^(m-j), given powers[i] =
    (1 + U + U^2)^i for i = 0..m. Each step clears the lowest term of
    rest in place, so rest is left zero iff it was a palindrome
    about U^m."""
    out = []
    for j, power in enumerate(reversed(powers)):
        a = rest[j]
        out.append(a)
        if a:
            for i, c in enumerate(power, j):
                rest[i] -= a * c
    return out


def to_t_rational(x: ULaurentRational):
    """Rewrite a U-symmetric rational function as a rational function
    of t = U/(1 + U + U^2), returned as (num, den) coefficient tuples.

    Multiplying both parts by conj(den) makes them conj-invariant. A
    conj-invariant L with terms U^-m..U^m is U^-m times a palindrome of
    degree 2m, and those palindromes have the basis
    U^j (1 + U + U^2)^(m-j), j = 0..m: m + 1 palindromes whose lowest
    terms U^j differ. As U^(j-m) (1 + U + U^2)^(m-j) = t^(j-m),
    L = t^-m sum a_j t^j, and peeling the lowest term reads off the
    a_j. Both parts are peeled at the larger m, so they share t^-m.
    One scale clears the numerator, and everything up to the final
    division runs in integers. A nonzero remainder of the numerator's
    peel means x is not symmetric under U -> 1/U, and raises.
    """
    scale, offset, p = _conj_product(x)
    den = [c.numerator for c in x.den.coeffs]
    m = max(len(den) - 1, -offset, offset + len(p) - 1)
    powers = [[1]]
    for _ in range(m):
        powers.append(_poly_mul(powers[-1], (1, 1, 1)))
    rest = [0] * (m + offset) + p + [0] * (m + 1 - offset - len(p))
    nt = _peel(rest, powers)
    if any(rest):
        raise PreconditionError("not symmetric under U -> 1/U")
    pad = [0] * (m + 1 - len(den))
    dt = _peel(pad + _poly_mul(den, den[::-1]) + pad, powers)
    while len(nt) > 1 and nt[-1] == 0:
        nt.pop()
    while len(dt) > 1 and dt[-1] == 0:
        dt.pop()
    return (tuple(Fraction(c, scale) for c in nt),
            tuple(Fraction(c) for c in dt))


# ---------------------------------------------------------------------------
# genus series in z and asymptotic constants


@lru_cache(maxsize=None)
def _weight_in_t(g: int):
    """rhat_exact(g) in t as integer coefficients (num, den) and the
    scale that divides num; den must start with 1."""
    nt, dt = to_t_rational(rhat_exact(g))
    if dt[0] != 1 or any(c.denominator != 1 for c in dt):
        raise InternalCheckError("weight denominator in t is not an "
                                 "integer polynomial with constant term 1")
    scale = math.lcm(*(c.denominator for c in nt))
    return (tuple(c.numerator * (scale // c.denominator) for c in nt),
            tuple(c.numerator for c in dt), scale)


def rhat(g: int, N: int) -> TruncatedSeries:
    """Genus-g scheme weight sum, expanded as a series in t. _poly_div
    reads the numerator through term N, so it is cut or padded to that."""
    _check_natural(N, "order")  # before the weight sum is built
    num, den, scale = _weight_in_t(g)
    x = _poly_div(list(num[:N + 1]) + [0] * (N + 1 - len(num)), den, N)
    return TruncatedSeries("t", N, [Fraction(c, scale) for c in x])


def series_Tg(g: int, N: int) -> TruncatedSeries:
    """Genus-g labeled tree series in z.

    T_0 is the plane tree series T itself; for g >= 1 it is the Euler
    derivative z d/dz of the weight sum in t evaluated at t = zT^2.
    """
    _check_natural(g, "genus")
    if g == 0:
        return series_T(N)
    _check_natural(N, "order")  # before the weight sum is built
    num, den, scale = _weight_in_t(g)
    x = _poly_div(_at_zT2(num, N), _at_zT2(den, N), N)
    return TruncatedSeries(
        "z", N, [Fraction(n * c, scale) for n, c in enumerate(x)])


def series_Q_bullet(g: int, N: int) -> TruncatedSeries:
    """Rooted pointed quadrangulation series: twice the tree series."""
    return series_Tg(g, N).scale(2)


def series_Qg(g: int, N: int) -> TruncatedSeries:
    """Rooted quadrangulation series: coefficient n of the rooted
    pointed series divided by the vertex count n + 2 - 2g."""
    qb = series_Q_bullet(g, N)
    out = []
    for n, c in enumerate(qb.coeffs):
        denom = n + 2 - 2 * g
        if c == 0:
            out.append(Fraction(0))
            continue
        if denom <= 0:
            raise InternalCheckError(
                f"nonzero coefficient at n={n} with {denom} vertices")
        q, rem = divmod(c.numerator, denom * c.denominator)
        if rem:
            raise InternalCheckError(
                f"coefficient {c} at n={n} not divisible by {denom}")
        out.append(Fraction(q))
    return TruncatedSeries("z", N, tuple(out))


def tau(g: int) -> Fraction:
    """Sum over dominant schemes of the product of 1/d(j) over levels.

    Genus bounds are delegated to the scheme layer: g < 1 is a
    precondition failure, large g trips the genus budget guard.
    """
    levels: CounterT = Counter()
    for rep, n in _profile_groups(dominant_schemes(g)):
        levels[d_profile(rep).d_levels] += n
    total = Fraction(0)
    for d_levels, count in levels.items():
        if len(d_levels) != 4 * g - 3:
            raise InternalCheckError(
                f"dominant scheme has {len(d_levels)} levels, "
                f"wanted {4 * g - 3}")
        total += Fraction(count, math.prod(d_levels))
    return total


def _gamma_half(x: Fraction):
    """Exact gamma at integer or half-integer x > 0, as a pair
    (rational, e) meaning rational * pi^(e/2) with e in {0, 1}."""
    x = Fraction(x)
    if x <= 0:
        raise PreconditionError("gamma argument must be positive")
    if x.denominator == 1:
        return Fraction(math.factorial(x.numerator - 1)), 0
    if x.denominator == 2:
        m = (x.numerator - 1) // 2
        return Fraction(math.factorial(2 * m),
                        4 ** m * math.factorial(m)), 1
    raise PreconditionError("gamma argument must be integer or half-integer")


@dataclass(frozen=True)
class AsymptoticConstant:
    """Exact constant of the form rational * pi^(pi_power/2)."""

    rational: Fraction
    pi_power: int

    def __post_init__(self):
        if self.pi_power not in (0, -1):
            raise PreconditionError("pi power must be 0 or -1")
        object.__setattr__(self, "rational", Fraction(self.rational))

    def approx(self) -> float:
        return float(self.rational) * math.pi ** (self.pi_power / 2)

    def __str__(self) -> str:
        if self.pi_power == 0:
            return str(self.rational)
        return f"{self.rational} * pi^(-1/2)"


def asympt_constant(g: int) -> AsymptoticConstant:
    """Leading constant c_g in the n^((5g-3)/2) 12^n growth of rooted
    genus-g quadrangulation counts."""
    t = tau(g)  # first, so the scheme layer judges the genus
    gamma_rat, gamma_half_pow = _gamma_half(Fraction(5 * g - 3, 2))
    rational = (Fraction(3 ** g)
                / ((6 * g - 3) * 2 ** (11 * g - 7) * gamma_rat)
                * t)
    return AsymptoticConstant(rational, -gamma_half_pow)
