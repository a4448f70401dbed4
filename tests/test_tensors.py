"""Exact coupling coefficients: arithmetic type, selection rules, reduction."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.physics.quantum.cg import CG

from su2eth.basis import SectorLabel
from su2eth.spectral import MatrixElementTable, SpinResolvedSpectrum
from su2eth.tensors import (
    ZERO,
    SqrtRational,
    cg_asymptotic_r_even,
    cg_column_sum,
    cg_table_rows,
    clebsch_gordan,
    hermitian_reduced_relation,
    reduce_matrix_elements,
    reduction_coefficient,
)

# ─── SqrtRational ───────────────────────────────────────────────────────────


def test_sqrt_rational_zero_is_canonical():
    z = SqrtRational(Fraction(0), 30)
    assert z.radicand == 1
    assert z == ZERO
    assert float(z) == 0.0


def test_sqrt_rational_rejects_bad_radicand():
    with pytest.raises(ValueError):
        SqrtRational(Fraction(1), 0)
    with pytest.raises(ValueError):
        SqrtRational(Fraction(1), -3)


def test_sqrt_rational_product_extracts_square_factor():
    # sqrt(6) * sqrt(10) = 2 sqrt(15)
    a = SqrtRational(Fraction(1), 6)
    b = SqrtRational(Fraction(1), 10)
    p = a * b
    assert p == SqrtRational(Fraction(2), 15)
    assert (a * a) == SqrtRational(Fraction(6), 1)
    assert a * ZERO == ZERO


def test_sqrt_rational_float_is_stable_for_huge_fractions():
    # exercised by the S ~ 200 asymptote sweep: coeff**2 overflows naive
    # float conversion, the squared-magnitude route must not
    c = clebsch_gordan(400, 0, 400, 0, 4, 0)
    v = float(c)
    assert math.isfinite(v)
    assert abs(v - (-0.5)) < 1e-4


def test_signed_square_keeps_sign():
    a = SqrtRational(Fraction(-1, 2), 3)
    assert a.signed_square() == -Fraction(3, 4)
    assert SqrtRational(Fraction(1, 2), 3).signed_square() == Fraction(3, 4)


# ─── Clebsch-Gordan values ──────────────────────────────────────────────────


def test_known_half_integer_couplings():
    # two spin-1/2 into triplet/singlet, the textbook table
    up_dn_triplet = clebsch_gordan(2, 0, 1, 1, 1, -1)
    assert up_dn_triplet.signed_square() == Fraction(1, 2)
    singlet = clebsch_gordan(0, 0, 1, 1, 1, -1)
    anti = clebsch_gordan(0, 0, 1, -1, 1, 1)
    assert singlet.signed_square() == Fraction(1, 2)
    assert anti.signed_square() == -Fraction(1, 2)
    stretched = clebsch_gordan(2, 2, 1, 1, 1, 1)
    assert stretched == SqrtRational(Fraction(1))


def test_selection_rule_zeros_are_exact():
    assert clebsch_gordan(2, 0, 2, 2, 2, 0) == ZERO  # projection mismatch
    assert clebsch_gordan(8, 0, 2, 0, 2, 0) == ZERO  # triangle violation
    assert clebsch_gordan(3, 1, 2, 0, 2, 0) == ZERO  # integer + integer -> half
    assert clebsch_gordan(2, 4, 2, 2, 2, 2) == ZERO  # |m| > j
    assert clebsch_gordan(2, 1, 2, 0, 2, 1) == ZERO  # m parity off from j


def test_negative_momentum_rejected():
    with pytest.raises(ValueError):
        clebsch_gordan(-2, 0, 2, 0, 2, 0)
    with pytest.raises(ValueError):
        clebsch_gordan(2, 0, 2.5, 0, 2, 0)


def test_delta_s_one_vanishes_for_rank_two_at_zero_projection():
    # the m = 0 zero behind the spin-inversion selection rule
    for s in range(1, 8):
        assert clebsch_gordan(2 * s, 0, 2 * (s - 1), 0, 4, 0) == ZERO


@pytest.mark.parametrize("tj1", range(0, 9))
@pytest.mark.parametrize("tj2", (0, 1, 2, 3, 4, 6))
def test_matches_sympy(tj1, tj2):
    """Signed squares agree with sympy's CG for every allowed coupling."""
    j1 = sympy.Rational(tj1, 2)
    j2 = sympy.Rational(tj2, 2)
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm = tm1 + tm2
                if abs(tm) > tj:
                    continue
                ours = clebsch_gordan(tj, tm, tj1, tm1, tj2, tm2)
                ref = CG(j1, sympy.Rational(tm1, 2), j2, sympy.Rational(tm2, 2),
                         sympy.Rational(tj, 2), sympy.Rational(tm, 2)).doit()
                ref_sq = sympy.nsimplify(sympy.sign(ref) * ref**2)
                assert Fraction(int(ref_sq.p), int(ref_sq.q)) == ours.signed_square()


def test_every_radicand_is_squarefree():
    """The (coeff, radicand) form is canonical only while no square divides the radicand."""
    for tj1 in range(13):
        for tj2 in range(13):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        rad = clebsch_gordan(tj, tm1 + tm2, tj1, tm1, tj2, tm2).radicand
                        for p in range(2, math.isqrt(rad) + 1):
                            assert rad % (p * p), (tj, tm1 + tm2, tj1, tm1, tj2, tm2, rad)


# ─── column sums and asymptotics ────────────────────────────────────────────


def test_column_sum_rank_zero_counts_states():
    for s in (0, 1, 4, 11):
        assert cg_column_sum(s, 0) == Fraction(2 * s + 1)


def test_column_sum_positive_rank_cancels():
    # irrational terms must cancel identically, not just to float precision
    for s in (1, 2, 5, 9):
        for r in (1, 2, 3, 4):
            assert cg_column_sum(s, r) == Fraction(0)


def test_column_sum_rejects_negative():
    with pytest.raises(ValueError):
        cg_column_sum(-1, 2)
    with pytest.raises(ValueError):
        cg_column_sum(2, -1)


def test_asymptote_values():
    assert cg_asymptotic_r_even(0) == 1.0
    assert cg_asymptotic_r_even(2) == -0.5
    assert cg_asymptotic_r_even(4) == 0.375
    assert cg_asymptotic_r_even(3) == 0.0
    with pytest.raises(ValueError):
        cg_asymptotic_r_even(-2)


def test_diagonal_rank_two_approaches_asymptote_from_below():
    prev = None
    for s in (10, 20, 40, 80):
        val = float(clebsch_gordan(2 * s, 0, 2 * s, 0, 4, 0))
        err = abs(val - cg_asymptotic_r_even(2))
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-3


# ─── orthogonality (exact, small systems; the full sweep is in acceptance) ──


def _bucket_total(products):
    """Sum SqrtRational values with mixed radicands; None if irrational residue."""
    buckets: dict[int, Fraction] = {}
    for v in products:
        if v.coeff:
            buckets[v.radicand] = buckets.get(v.radicand, Fraction(0)) + v.coeff
    leftover = {rad: c for rad, c in buckets.items() if c}
    if not leftover:
        return Fraction(0)
    if set(leftover) == {1}:
        return leftover[1]
    return None


def test_orthogonality_rows_exact_small():
    # sum_{m1} <j m|j1 m1; j2 m-m1><j' m|j1 m1; j2 m-m1> = delta_{jj'}
    tj1, tj2 = 3, 2
    tjs = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
    for tj in tjs:
        for tjp in tjs:
            for tm in range(-min(tj, tjp), min(tj, tjp) + 1, 2):
                total = _bucket_total(
                    clebsch_gordan(tj, tm, tj1, tm1, tj2, tm - tm1)
                    * clebsch_gordan(tjp, tm, tj1, tm1, tj2, tm - tm1)
                    for tm1 in range(-tj1, tj1 + 1, 2)
                    if abs(tm - tm1) <= tj2
                )
                expect = Fraction(1 if tj == tjp else 0)
                assert total == expect, (tj, tjp, tm)


# ─── reduction ──────────────────────────────────────────────────────────────


def _table(s_a, s_b, block):
    """One spin pair's table: bra states of spin s_a, ket states of spin s_b, the given block."""
    block = np.array(block, dtype=np.float64)
    n_a, n_b = block.shape
    spins = np.array([s_a] * n_a + [s_b] * n_b, dtype=np.int16)
    spectrum = SpinResolvedSpectrum(SectorLabel(6, 0, 1, 1), np.zeros(n_a + n_b),
                                    np.eye(n_a + n_b), spins)
    return MatrixElementTable(block, np.arange(n_a), np.arange(n_a, n_a + n_b), spectrum)


def _dropped(table, red):
    return len(table.records) - len(red.records)


def test_reduce_divides_by_cg():
    cg = float(clebsch_gordan(4, 0, 4, 0, 4, 0))
    table = _table(2, 2, [[3.5 * cg]])
    red = reduce_matrix_elements(table, rank=2)
    assert isinstance(red, MatrixElementTable)
    assert _dropped(table, red) == 0
    assert red.records["value"][0] == pytest.approx(3.5)

    # each pair's block is divided by its own pair's coefficient
    cg02 = float(clebsch_gordan(0, 0, 4, 0, 4, 0))
    assert cg02 and cg02 != cg
    for s_a, s_b, c in ((2, 2, cg), (0, 2, cg02)):
        assert reduction_coefficient(2, s_a, s_b) == c
        table = _table(s_a, s_b, [[3.5 * c, -1.25 * c], [0.5 * c, 2.0 * c]])
        red = reduce_matrix_elements(table, rank=2)
        assert _dropped(table, red) == 0
        assert list(red.records["s_a"]) == [s_a] * 4
        assert red.records["value"] == pytest.approx([3.5, -1.25, 0.5, 2.0])
        assert red.block.tobytes() == (table.block / c).tobytes()

    # clebsch_gordan rejects a negative spin
    with pytest.raises(ValueError, match="nonnegative"):
        reduce_matrix_elements(_table(-1, 1, [[1.0]]), rank=2)


def test_reduce_drops_vanishing_cg_records():
    # (s_a, s_b) = (2, 1) has a zero rank-2 CG at m = 0: no information
    table = _table(2, 1, [[0.0, 1.0]])
    red = reduce_matrix_elements(table, rank=2)
    assert _dropped(table, red) == 2
    assert red.block.size == 0
    table = _table(2, 0, [[1.0]])
    red = reduce_matrix_elements(table, rank=2)
    assert _dropped(table, red) == 0
    assert list(red.records["s_a"]) == [2]


def test_reduce_empty_table_passthrough():
    table = _table(2, 2, np.empty((0, 0)))
    red = reduce_matrix_elements(table, rank=2)
    assert red is table
    assert red.records.size == 0


def test_hermitian_relation_is_an_involution():
    # applying the reversal twice must return the original element
    for rank in (0, 2):
        for sa, sb in ((0, 2), (1, 3), (2, 2)):
            v = 0.3 - 0.7j
            back = hermitian_reduced_relation(
                hermitian_reduced_relation(v, sa, sb, rank), sb, sa, rank)
            assert back == pytest.approx(v)


def test_hermitian_relation_prefactor():
    got = hermitian_reduced_relation(1.0, 0, 2, 2)
    assert got == pytest.approx(math.sqrt(1 / 5))
    got = hermitian_reduced_relation(1.0, 2, 0, 2)
    assert got == pytest.approx(math.sqrt(5))


# ─── CSV table rows ─────────────────────────────────────────────────────────


def test_cg_table_rows_schema_and_exactness():
    rows = list(cg_table_rows(8, twice_ranks=(0, 4)))
    assert rows, "table should not be empty"
    keys = ["2j", "2m", "2j1", "2m1", "2j2", "2m2", "numerator", "denominator-square", "float"]
    assert list(rows[0].keys()) == keys
    for row in rows:
        sq = Fraction(row["numerator"], row["denominator-square"])
        mag = math.sqrt(abs(float(sq)))
        expect = math.copysign(mag, row["numerator"]) if row["numerator"] else 0.0
        assert row["float"] == pytest.approx(expect, abs=1e-15)


def test_cg_table_rows_rank_zero_is_identity_coupling():
    rows = [r for r in cg_table_rows(6, twice_ranks=(0,)) if r["2j2"] == 0]
    for row in rows:
        assert row["2j"] == row["2j1"]
        assert row["numerator"] == row["denominator-square"] == 1


def test_cg_table_rows_rejects_negative_bound():
    with pytest.raises(ValueError):
        list(cg_table_rows(-1))
