"""Exact Clebsch-Gordan coefficients and spherical-tensor reduction.

Angular momenta are passed around as twice their physical value (``tj = 2j``)
so half-integer spins stay exact integers. Coefficient values are kept in the
exact form ``coeff * sqrt(radicand)`` with a rational ``coeff`` and a
squarefree integer ``radicand``; sums that vanish algebraically therefore
come out as exact zeros rather than 1e-16 float residue. Floats appear only
at the boundary, when a value is handed to the numerical tables, and in
reduction_coefficient, the one rule that reduces an element table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .spectral import MatrixElementTable

__all__ = [
    "SqrtRational",
    "ZERO",
    "clebsch_gordan",
    "reduction_coefficient",
    "cg_column_sum",
    "cg_asymptotic_r_even",
    "reduce_matrix_elements",
    "hermitian_reduced_relation",
    "cg_table_rows",
]


# ─── exact value type ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class SqrtRational:
    """Exact number of the form ``coeff * sqrt(radicand)``.

    ``coeff`` is a signed Fraction, ``radicand`` a squarefree positive
    integer. Zero is canonically stored as (0, 1) so structural equality
    works. The one operation is the product of two values; sums are
    accumulated by their callers in radicand buckets.
    """

    coeff: Fraction = Fraction(0)
    radicand: int = 1

    def __post_init__(self):
        if self.radicand < 1:
            raise ValueError("radicand must be a positive integer")
        if self.coeff == 0 and self.radicand != 1:
            object.__setattr__(self, "radicand", 1)

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
        if not isinstance(other, SqrtRational):
            return NotImplemented
        g = math.gcd(self.radicand, other.radicand)
        return SqrtRational(self.coeff * other.coeff * g,
                            (self.radicand // g) * (other.radicand // g))


ZERO = SqrtRational()


def _split_square(n: int, bound: int) -> tuple[int, int]:
    """(s, r) with n = s**2 * r and r squarefree, for n whose primes are <= bound.

    Dividing out p**2 for every p = 2 .. bound needs no prime list: once the
    squares of all smaller primes are gone, no composite square divides n.
    """
    s = 1
    for p in range(2, bound + 1):
        while n % (p * p) == 0:
            n //= p * p
            s *= p
    return s, n


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
    sum over k is done in Fraction arithmetic, and the squared square-root
    prefactor is one Fraction of factorials whose numerator and denominator
    each split into a square times a squarefree integer.
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

    # squared prefactor as one fraction; no prime in it exceeds bound
    bound = (tj1 + tj2 + tj) // 2 + 1
    legs = (tj1 + tj2 - tj, tj1 - tj2 + tj, tj2 - tj1 + tj, tj + tm, tj - tm,
            tj1 - tm1, tj1 + tm1, tj2 - tm2, tj2 + tm2)
    squared = Fraction((tj + 1) * math.prod(math.factorial(n // 2) for n in legs),
                       math.factorial(bound))
    s_n, r_n = _split_square(squared.numerator, bound)
    s_d, r_d = _split_square(squared.denominator, bound)
    # sqrt(n/d) = s_n/(s_d r_d) sqrt(r_n r_d); n, d coprime, so r_n r_d is squarefree
    return SqrtRational(total * Fraction(s_n, s_d * r_d), r_n * r_d)


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


@cache
def reduction_coefficient(rank: int, s_a: int, s_b: int) -> float:
    """<S_a 0 | S_b 0; r 0>, which reduces a rank-r element between spins s_a and s_b."""
    return float(clebsch_gordan(2 * s_a, 0, 2 * s_b, 0, 2 * rank, 0))


def reduce_matrix_elements(table: MatrixElementTable, rank: int) -> MatrixElementTable:
    """The table's block divided by its spin pair's <S_a 0 | S_b 0; rank 0>.

    The result's values are the reduced elements. A pair whose coefficient
    vanishes carries no information about the reduced element and gives a
    table with no elements; an empty table is returned as it is. Only
    M = 0 and the q = 0 tensor component enter, the one case the pipeline
    analyses.
    """
    if table.block.size == 0:
        return table
    spins = table.spectrum.spins
    cg = reduction_coefficient(rank, int(spins[table.rows[0]]), int(spins[table.cols[0]]))
    if cg == 0.0:
        return MatrixElementTable(table.block[:0], table.rows[:0], table.cols, table.spectrum)
    return MatrixElementTable(table.block / cg, table.rows, table.cols, table.spectrum)


def hermitian_reduced_relation(value: complex, s_row: int, s_col: int, rank: int) -> complex:
    """Predicted <col||T||row> given <row||T||col> for a Hermitian tensor.

    The q = 0 component of a Hermitian rank-r tensor satisfies
    reverse = (-1)^r * sqrt((2 S_row + 1)/(2 S_col + 1)) * conj(forward).
    """
    pref = (-1.0) ** rank * math.sqrt((2 * s_row + 1) / (2 * s_col + 1))
    return pref * np.conjugate(value)


def cg_table_rows(max_twice_j: int, twice_ranks=(0, 4)):
    """Rows of the coupling table <j m | j1 m; r 0> for the CSV emitter.

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
                for tm in range(-tj1, tj1 + 1, 2):  # q = 0, so m = m1
                    if abs(tm) > tj:
                        continue
                    v = clebsch_gordan(tj, tm, tj1, tm, tj2, 0)
                    sq = v.signed_square()
                    yield {
                        "2j": tj,
                        "2m": tm,
                        "2j1": tj1,
                        "2m1": tm,
                        "2j2": tj2,
                        "2m2": 0,
                        "numerator": sq.numerator,
                        "denominator-square": sq.denominator,
                        "float": float(v),
                    }
