"""Exact Clebsch-Gordan coefficients and spherical-tensor reduction.

Angular momenta are passed around as twice their physical value (``tj = 2j``)
so half-integer spins stay exact integers. Coefficient values are kept in the
closed field ``coeff * sqrt(radicand)`` with a rational ``coeff`` and a
squarefree integer ``radicand``; sums that vanish algebraically therefore
come out as exact zeros rather than 1e-16 float residue. Floats appear only
at the boundary, when a value is handed to the numerical tables.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "SqrtRational",
    "ZERO",
    "ONE",
    "clebsch_gordan",
    "cg_column_sum",
    "cg_asymptotic_r_even",
    "ReducedElementTable",
    "reduce_matrix_elements",
    "hermitian_reduced_relation",
    "cg_table_rows",
]


# ─── small-prime bookkeeping ────────────────────────────────────────────────

_primes: list[int] = [2, 3, 5, 7, 11, 13]


def _primes_upto(n: int) -> list[int]:
    """All primes <= n from a cached sieve that grows on demand."""
    global _primes
    if _primes[-1] < n:
        limit = max(n, 2 * _primes[-1])
        sieve = bytearray(b"\x01") * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _primes = [i for i, flag in enumerate(sieve) if flag]
    return _primes[: bisect.bisect_right(_primes, n)]


def _add_factorial_exponents(n: int, weight: int, acc: dict[int, int]) -> None:
    # Legendre's formula: nu_p(n!) = sum_i floor(n / p^i)
    for p in _primes_upto(n):
        e = 0
        q = n
        while q:
            q //= p
            e += q
        acc[p] = acc.get(p, 0) + weight * e


def _add_integer_exponents(n: int, weight: int, acc: dict[int, int]) -> None:
    # trial division; n here is 2j+1, never more than a few hundred
    for p in _primes_upto(math.isqrt(n)):
        while n % p == 0:
            acc[p] = acc.get(p, 0) + weight
            n //= p
    if n > 1:
        acc[n] = acc.get(n, 0) + weight


# ─── exact value type ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class SqrtRational:
    """Exact number of the form ``coeff * sqrt(radicand)``.

    ``coeff`` is a signed Fraction, ``radicand`` a squarefree positive
    integer. Zero is canonically stored as (0, 1) so structural equality
    works. Addition is only defined between values sharing a radicand;
    heterogeneous sums are accumulated externally in radicand buckets.
    """

    coeff: Fraction = Fraction(0)
    radicand: int = 1

    def __post_init__(self):
        if self.radicand < 1:
            raise ValueError("radicand must be a positive integer")
        if self.coeff == 0 and self.radicand != 1:
            object.__setattr__(self, "radicand", 1)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def signed_square(self) -> Fraction:
        """coeff**2 * radicand, carrying the sign of coeff."""
        sq = self.coeff * self.coeff * self.radicand
        return -sq if self.coeff < 0 else sq

    def __float__(self) -> float:
        if self.coeff == 0:
            return 0.0
        # square first: Fraction -> float is correctly rounded even for the
        # huge integers that show up at S ~ 200
        mag2 = Fraction(self.coeff.numerator**2 * self.radicand, self.coeff.denominator**2)
        mag = math.sqrt(float(mag2))
        return -mag if self.coeff < 0 else mag

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            g = math.gcd(self.radicand, other.radicand)
            return SqrtRational(
                self.coeff * other.coeff * g,
                (self.radicand // g) * (other.radicand // g),
            )
        if isinstance(other, (int, Fraction)):
            return SqrtRational(self.coeff * other, self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return SqrtRational(-self.coeff, self.radicand)

    def __add__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.radicand != other.radicand:
            raise ArithmeticError("cannot add sqrt values with different radicands")
        return SqrtRational(self.coeff + other.coeff, self.radicand)


ZERO = SqrtRational()
ONE = SqrtRational(Fraction(1))


def _twice(value) -> int:
    iv = int(value)
    if iv != value:
        raise ValueError(f"twice-integer argument expected, got {value!r}")
    return iv


# ─── Clebsch-Gordan ─────────────────────────────────────────────────────────


def clebsch_gordan(tj, tm, tj1, tm1, tj2, tm2) -> SqrtRational:
    """Exact <j m | j1 m1; j2 m2>, all arguments twice the physical value.

    Selection-rule violations (projection sum, triangle rule, out-of-range
    or wrong-parity projections) give an exact zero. Negative angular
    momenta raise ValueError.

    The value is assembled from the Racah single-sum formula: the rational
    sum over k is done in Fraction arithmetic, and the square-root prefactor
    is carried as prime-factorization exponent vectors so its square root
    splits exactly into a rational times the root of a squarefree integer.
    """
    tj, tm, tj1, tm1, tj2, tm2 = (_twice(v) for v in (tj, tm, tj1, tm1, tj2, tm2))
    if min(tj, tj1, tj2) < 0:
        raise ValueError("angular momenta must be nonnegative")
    if (tj + tm) % 2 or (tj1 + tm1) % 2 or (tj2 + tm2) % 2:
        return ZERO
    if abs(tm) > tj or abs(tm1) > tj1 or abs(tm2) > tj2:
        return ZERO
    if tm != tm1 + tm2:
        return ZERO
    if (tj1 + tj2 + tj) % 2 or tj < abs(tj1 - tj2) or tj > tj1 + tj2:
        return ZERO

    # Racah sum; with the checks above every factorial argument is integral
    a1 = (tj1 + tj2 - tj) // 2
    a2 = (tj1 - tm1) // 2
    a3 = (tj2 + tm2) // 2
    b1 = (tj - tj2 + tm1) // 2
    b2 = (tj - tj1 - tm2) // 2
    total = Fraction(0)
    for k in range(max(0, -b1, -b2), min(a1, a2, a3) + 1):
        den = (
            math.factorial(k)
            * math.factorial(a1 - k)
            * math.factorial(a2 - k)
            * math.factorial(a3 - k)
            * math.factorial(b1 + k)
            * math.factorial(b2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, den)
    if total == 0:
        return ZERO

    expo: dict[int, int] = {}
    _add_integer_exponents(tj + 1, 1, expo)
    _add_factorial_exponents((tj1 + tj2 - tj) // 2, 1, expo)
    _add_factorial_exponents((tj1 - tj2 + tj) // 2, 1, expo)
    _add_factorial_exponents((-tj1 + tj2 + tj) // 2, 1, expo)
    _add_factorial_exponents((tj1 + tj2 + tj) // 2 + 1, -1, expo)
    for n in (
        (tj + tm) // 2,
        (tj - tm) // 2,
        (tj1 - tm1) // 2,
        (tj1 + tm1) // 2,
        (tj2 - tm2) // 2,
        (tj2 + tm2) // 2,
    ):
        _add_factorial_exponents(n, 1, expo)

    num = den = 1
    rad = 1
    for p, e in expo.items():
        half, odd = divmod(e, 2)
        if half >= 0:
            num *= p**half
        else:
            den *= p**-half
        if odd:
            rad *= p
    return SqrtRational(total * Fraction(num, den), rad)


def cg_column_sum(s: int, r: int) -> Fraction:
    """Sum over M of <S M | S M; r 0> as an exact rational.

    For integer S and r the irrational parts cancel identically and the
    result is (2S+1) at r = 0 and exactly 0 for any other rank.
    """
    if s < 0 or r < 0:
        raise ValueError("S and r must be nonnegative integers")
    buckets: dict[int, Fraction] = {}
    for tm in range(-2 * s, 2 * s + 1, 2):
        v = clebsch_gordan(2 * s, tm, 2 * s, tm, 2 * r, 0)
        if v.coeff:
            buckets[v.radicand] = buckets.get(v.radicand, Fraction(0)) + v.coeff
    leftover = {rad: c for rad, c in buckets.items() if c}
    if not leftover:
        return Fraction(0)
    if set(leftover) == {1}:
        return leftover[1]
    raise ArithmeticError("column sum left an irrational residue")


def cg_asymptotic_r_even(r: int) -> float:
    """Large-S limit of <S 0 | S 0; r 0>: (-1)^(r/2) * binom(r, r/2) / 2^r.

    Odd ranks vanish identically at m = 0, so they return exact 0.0.
    """
    if not isinstance(r, int) or r < 0:
        raise ValueError("rank must be a nonnegative integer")
    if r % 2:
        return 0.0
    half = r // 2
    return (-1.0) ** half * math.comb(r, half) / 2.0**r


# ─── Wigner-Eckart reduction ────────────────────────────────────────────────


@dataclass(frozen=True)
class ReducedElementTable:
    """Reduced matrix elements of a rank-r tensor after CG stripping.

    ``records`` is a structured array with the same fields as the raw
    matrix-element tables (alpha, beta, e_a, e_b, s_a, s_b, value) where
    value now holds the reduced element. Records whose CG coefficient
    vanishes carry no information about the reduced element; they are
    dropped and tallied in ``skipped``.
    """

    rank: int
    records: np.ndarray
    skipped: int
    observable: str = ""


def reduce_matrix_elements(table, rank: int) -> ReducedElementTable:
    """Divide each record's value by <S_a 0 | S_b 0; rank 0>.

    ``table`` is any object carrying an ``observable`` label and a
    structured ``records`` array with fields s_a, s_b and value (the tables
    produced by the spectral layer). Only M = 0 and the q = 0 tensor
    component enter, the one case the pipeline analyses.
    """
    recs = np.asarray(table.records)
    if recs.size == 0:
        return ReducedElementTable(rank, recs.copy(), 0, table.observable)
    s_a = recs["s_a"].astype(int)
    s_b = recs["s_b"].astype(int)
    factor = np.zeros(len(recs))
    for sa, sb in {(int(a), int(b)) for a, b in zip(s_a, s_b)}:
        cg = float(clebsch_gordan(2 * sa, 0, 2 * sb, 0, 2 * rank, 0))
        if cg:
            factor[(s_a == sa) & (s_b == sb)] = cg
    keep = factor != 0.0
    out = recs[keep].copy()
    out["value"] = out["value"] / factor[keep]
    return ReducedElementTable(rank, out, int(len(recs) - keep.sum()), table.observable)


def hermitian_reduced_relation(value: complex, s_row: int, s_col: int, rank: int) -> complex:
    """Predicted <col||T||row> given <row||T||col> for a Hermitian tensor.

    The q = 0 component of a Hermitian rank-r tensor satisfies
    reverse = (-1)^r * sqrt((2 S_row + 1)/(2 S_col + 1)) * conj(forward).
    """
    pref = (-1.0) ** rank * math.sqrt((2 * s_row + 1) / (2 * s_col + 1))
    return pref * np.conjugate(value)


def cg_table_rows(max_twice_j: int, twice_ranks=(0, 4), twice_q: int = 0):
    """Rows of the coupling table <j m | j1 m1; r q> for the CSV emitter.

    Yields dicts with the twice-integer labels, the signed numerator and
    denominator of the squared coefficient, and the float view. Zero
    coefficients inside the allowed ranges are emitted too (their exactness
    is the point of the table).
    """
    if max_twice_j < 0:
        raise ValueError("max_twice_j must be nonnegative")
    for tj2 in twice_ranks:
        for tj1 in range(0, max_twice_j + 1):
            for tj in range(abs(tj1 - tj2), min(tj1 + tj2, max_twice_j) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm = tm1 + twice_q
                    if abs(tm) > tj:
                        continue
                    v = clebsch_gordan(tj, tm, tj1, tm1, tj2, twice_q)
                    sq = v.signed_square()
                    yield {
                        "2j": tj,
                        "2m": tm,
                        "2j1": tj1,
                        "2m1": tm1,
                        "2j2": tj2,
                        "2m2": twice_q,
                        "numerator": sq.numerator,
                        "denominator-square": sq.denominator,
                        "float": float(v),
                    }
