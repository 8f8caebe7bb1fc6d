import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locco import (AugmentedColumnSpec, AugmentedRowSpec, BudgetError,
                   CechComplexSpec, CoefficientError, CoverModel, Integers,
                   LocalComplexSpec, ModelError, PrimeField, Rationals,
                   SimplicialComplexSpec, TotalComplexSpec,
                   assemble_matrix, check_smith_certificate,
                   cohomology_profile, field_cohomology, integer_cohomology,
                   kernel_basis, left_invariant_cover, matrix_rank,
                   rank_in_quotient, smith_normal_form, verify_local_vs_cech)
from locco import homology
from locco import model as model_module
from locco.homology import (BoundaryMatrix, Echelon, SmithDecomposition, block_profiles,
                            cleared_columns, composes_to_zero, profile_from_ranks)
from locco.cli import bundled_model_names, load_bundled_model, run
from locco.compare import _as_columns, random_cover_model

Q = Rationals()
Z5 = PrimeField(5)


def oracle_rank_fraction(dense):
    """Independent dense Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in dense if any(row)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def oracle_rank_mod_p(dense, p):
    rows = [[x % p for x in row] for row in dense]
    rows = [row for row in rows if any(row)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def random_int_matrix(rng, nrows, ncols, density=0.5, spread=4):
    return [[rng.randrange(-spread, spread + 1) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def to_sparse(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def as_matrix(dense, ncols):
    cells = [(r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
    entries = tuple(np.array([cell[k] for cell in cells], dtype=np.int64) for k in range(3))
    return BoundaryMatrix((len(dense), ncols), entries)


def test_rank_int_against_fraction_oracle():
    rng = random.Random(1)
    for _ in range(30):
        dense = random_int_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        assert matrix_rank(as_matrix(dense, len(dense[0])), Q) == oracle_rank_fraction(dense)


def test_rank_mod_p_against_oracle():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(20):
            dense = random_int_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
            assert (matrix_rank(as_matrix(dense, len(dense[0])), PrimeField(p))
                    == oracle_rank_mod_p(dense, p))


def test_matrix_rank_dispatch():
    dense = [[2, 0], [0, 5]]
    mat = as_matrix(dense, 2)
    assert matrix_rank(mat, Q) == 2
    assert matrix_rank(mat, Integers()) == 2
    assert matrix_rank(mat, Z5) == 1


def bareiss_determinant(matrix):
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def oracle_invariants(dense):
    """Invariant factors from determinantal divisors: D_k is the gcd of the
    k x k minors, and the k-th invariant is D_k / D_(k-1)."""
    nrows, ncols = len(dense), len(dense[0]) if dense else 0
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                g = gcd(g, bareiss_determinant([[dense[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        divisors.append(g)
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))


def test_bareiss_determinant():
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert bareiss_determinant([[1, 1], [1, 1]]) == 0
    assert bareiss_determinant([]) == 1


def test_smith_normal_form_known_case():
    mat = as_matrix([[2, 4], [6, 8]], 2)
    dec = smith_normal_form(mat)
    assert dec.invariants == (2, 4)
    assert check_smith_certificate(mat, dec)


def test_smith_normal_form_random_certified():
    rng = random.Random(3)
    for _ in range(25):
        dense = random_int_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6),
                                  density=0.7)
        mat = as_matrix(dense, len(dense[0]))
        dec = smith_normal_form(mat)
        assert check_smith_certificate(mat, dec)
        assert dec.rank == oracle_rank_fraction(dense)
        for a, b in zip(dec.invariants, dec.invariants[1:]):
            assert b % a == 0


def test_smith_rejects_nonintegers():
    half = np.array([Fraction(1, 2)], dtype=object)
    with pytest.raises(CoefficientError):
        smith_normal_form(BoundaryMatrix((1, 1), (np.array([0]), np.array([0]), half)))


@st.composite
def smith_matrices(draw):
    """Integer matrices with 0-6 rows and columns, mostly small entries, some
    scaled by 2 or 3 so that torsion is common."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, -6))
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    return [[scale * v for v in draw(st.lists(entry, min_size=ncols, max_size=ncols))]
            for _ in range(nrows)]


@settings(max_examples=150, deadline=None)
@given(smith_matrices())
@example([[2, 4], [6, 8]])
@example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
@example([[2, 0], [0, 3]])
@example([[0, 0, 0], [0, 0, 0]])
# no lead is a unit, so the whole matrix is the remainder; its search folds row 0
# into row 3 by a divisibility repair and ends at the invariant 24
@example([[0, 2, 0, 0, -6], [2, -6, 0, 0, 1], [3, 0, 0, -6, 0], [0, 0, 0, 0, 2]])
# the unit sweep finishes: column ops, one-cell row ops and a negated lead of -1
@example([[1, 1, 0], [-1, 0, 1], [0, -1, -1], [0, 0, -1]])
# column 1 is a unit pivot; clearing column 0 by it leaves the lead -2 at row 1
@example([[1, 1], [1, 3]])
def test_smith_invariants_match_determinantal_divisors(dense):
    mat = as_matrix(dense, len(dense[0]) if dense else 0)
    dec = smith_normal_form(mat)
    assert dec.invariants == oracle_invariants(dense)
    assert check_smith_certificate(mat, dec)
    assert 0 not in factors(dec)


def factors(dec):
    """The factor of every recorded row and column operation."""
    return [op[3] for op in dec.ops + dec.remainder_ops if op[0] != "neg"]


def test_no_recorded_operation_has_a_factor_of_0():
    # the search once recorded ("row", 0, 3, 0) here, a quotient of 0 that
    # only moved the pivot to a smaller entry in its column
    mat = as_matrix([[0, 2, 0, 0, -6], [2, -6, 0, 0, 1], [3, 0, 0, -6, 0], [0, 0, 0, 0, 2]], 5)
    dec = smith_normal_form(mat)
    assert dec.invariants == (1, 1, 2, 24) and len(dec.remainder_ops) > 1
    assert 0 not in factors(dec)
    assert check_smith_certificate(mat, dec)


TAMPER_CASE = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]


def _first(ops, kind):
    return next(k for k, op in enumerate(ops) if op[0] == kind)


def _tampered():
    """Certificates of TAMPER_CASE, each with one defect.  No lead is a unit,
    so the whole matrix is the remainder and every operation is its own."""
    dec = smith_normal_form(as_matrix(TAMPER_CASE, 3))
    ops, pivots = list(dec.remainder_ops), list(dec.pivots)
    k = _first(ops, "row")
    kind, src, dst, f = ops[k]
    out = {"changed factor": ops[:k] + [(kind, src, dst, f + 1)] + ops[k + 1:],
           "dropped op": ops[:k] + ops[k + 1:],
           "src equals dst": ops[:k] + [(kind, dst, dst, f)] + ops[k + 1:]}
    k = _first(ops, "col")
    kind, src, dst, f = ops[k]
    out["changed column factor"] = ops[:k] + [(kind, src, dst, f - 1)] + ops[k + 1:]
    out["fractional factor"] = ops[:k] + [(kind, src, dst, Fraction(f))] + ops[k + 1:]
    cases = {name: replace(dec, remainder_ops=tuple(o)) for name, o in out.items()}
    # the same operation, first in either list, replays alike on the whole matrix
    k = _first(ops, "row")
    cases["row op in the sweep"] = replace(dec, ops=(ops[k],), remainder_ops=tuple(ops[k + 1:]))
    r, c, d = pivots[0]
    cases["moved pivot"] = replace(dec, pivots=((r, (c + 1) % 3, d),) + dec.pivots[1:])
    cases["swapped pivots"] = replace(dec, pivots=(dec.pivots[1], dec.pivots[0], dec.pivots[2]))
    cases["altered invariant"] = replace(dec, invariants=dec.invariants[:-1] + (24,))
    cases["other shape"] = replace(dec, shape=(3, 4))
    r, c, d = pivots[-1]
    cases["altered pivot and invariant"] = replace(
        dec, pivots=dec.pivots[:-1] + ((r, c, 24),), invariants=dec.invariants[:-1] + (24,))
    return dec, cases


def test_smith_certificate_rejects_tampering():
    dec, cases = _tampered()
    assert dec.invariants == (2, 6, 12)
    assert (dec.units, dec.ops) == (0, ())
    matrix = as_matrix(TAMPER_CASE, 3)
    assert check_smith_certificate(matrix, dec)
    for name, bad in cases.items():
        assert not check_smith_certificate(matrix, bad), name


def test_smith_certificate_from_the_sweep_rejects_tampering():
    # z6_arcs' local d_1: every lead is a unit, so the sweep's column
    # operations make the whole certificate and leave no remainder
    matrix = assemble_matrix(LocalComplexSpec(load_bundled_model("z6_arcs")), 1)
    dec = smith_normal_form(matrix)
    ops = list(dec.ops)
    assert {op[0] for op in ops} == {"col"} and dec.remainder_ops == ()
    assert dec.units == dec.rank
    assert check_smith_certificate(matrix, dec)
    k = _first(ops, "col")
    kind, src, dst, f = ops[k]
    cases = {"changed column factor": ops[:k] + [(kind, src, dst, f + 1)] + ops[k + 1:],
             "dropped column op": ops[:k] + ops[k + 1:],
             "row op in the sweep": ops + [("row", 0, 1, 1)]}
    cases = {name: replace(dec, ops=tuple(o)) for name, o in cases.items()}
    r, c, d = dec.pivots[0]
    moved = next(j for j in range(matrix.shape[1]) if j != c)
    cases["moved pivot"] = replace(dec, pivots=((r, moved, d),) + dec.pivots[1:])
    # its column is then neither a pivot nor left to a remainder pivot
    cases["dropped unit pivot"] = replace(dec, pivots=dec.pivots[1:], invariants=dec.invariants[1:],
                                          units=dec.units - 1)
    cases["one unit too many"] = replace(dec, units=dec.units + 1)
    for name, bad in cases.items():
        assert not check_smith_certificate(matrix, bad), name


def test_compact_certificate_rejects_a_broken_unit_echelon():
    # each forgery breaks one condition the check puts on the unit echelon or
    # on the remainder's operations; most also claim a false rank or invariant
    two = as_matrix([[2]], 1)
    assert smith_normal_form(two).invariants == (2,)
    assert not check_smith_certificate(two, SmithDecomposition((1,), ((0, 0, 1),), (), (1, 1), 1))
    ones = as_matrix([[1, 1]], 2)
    honest = smith_normal_form(ones)
    assert honest.ops == (("col", 1, 0, -1),) and check_smith_certificate(ones, honest)
    shared = replace(honest, ops=(), pivots=((0, 0, 1), (0, 1, 1)), invariants=(1, 1), units=2)
    assert not check_smith_certificate(ones, shared)
    assert not check_smith_certificate(ones, replace(honest, ops=()))   # column 0 stays
    # column 1 is cleared at the lead row 0; without that its 2 sits on the lead row
    lead_row = as_matrix([[1, 2], [0, 0]], 2)
    honest = smith_normal_form(lead_row)
    assert honest.ops == (("col", 0, 1, -2),) and check_smith_certificate(lead_row, honest)
    on_lead = replace(honest, ops=(), pivots=((0, 0, 1), (0, 1, 2)), invariants=(1, 2))
    assert not check_smith_certificate(lead_row, on_lead)
    # the sweep holds column operations only: read as one, this would add the
    # zero column 1 to column 0 and change nothing
    assert not check_smith_certificate(lead_row, replace(honest, ops=honest.ops + (("row", 1, 0, 3),)))
    # a unit pivot's d is 1, as its invariant is
    assert not check_smith_certificate(lead_row, replace(honest, pivots=((0, 0, 2),)))
    # a remainder of 2 at (1, 1): the remainder is replayed alone, where these
    # change nothing, but after the unit finish each would spoil the diagonal
    mixed = as_matrix([[1, 2], [0, 2]], 2)
    honest = smith_normal_form(mixed)
    assert (honest.units, honest.pivots[1:], honest.remainder_ops) == (1, ((1, 1, 2),), ())
    assert check_smith_certificate(mixed, honest)
    for op in [("row", 0, 1, 3), ("col", 0, 1, 3), ("neg", 0)]:
        assert not check_smith_certificate(mixed, replace(honest, remainder_ops=(op,))), op


def rp2_simplicial():
    rp2 = load_bundled_model("projective_plane")
    return SimplicialComplexSpec(rp2.complex, rp2.point_key)


def certified_chain(spec, top):
    """(matrices, decompositions) of d_0..d_top, each d_n without the columns
    d_{n-1}'s unit pivots lead at, each certificate checked."""
    mats, decs = [], []
    for n in range(top + 1):
        mat = assemble_matrix(spec, n)
        below, below_dec = (mats[-1], decs[-1]) if n else (None, None)
        dec = smith_normal_form(mat, cleared_columns(mat, below, below_dec.unit_leads) if n else ())
        assert check_smith_certificate(mat, dec, below, below_dec)
        mats.append(mat)
        decs.append(dec)
    return mats, decs


def test_smith_certificate_rejects_an_unjustified_skip():
    (d0, d1, d2), (dec0, dec1, dec2) = certified_chain(rp2_simplicial(), 2)
    assert dec1.skip == (0, 1, 2, 3, 4) and dec2.skip == tuple(range(9))
    # d_1's one remainder pivot, the Z/2, leads at row 9: not a unit lead
    assert dec1.pivots[dec1.units:] == ((9, 5, 2),)
    wider = replace(dec2, skip=tuple(range(10)))
    assert not check_smith_certificate(d2, wider, d1, dec1)
    # nor does counting it among the unit pivots help: its lead in d_1 V is -2
    assert not check_smith_certificate(d2, wider, d1, replace(dec1, units=dec1.units + 1))
    assert not check_smith_certificate(d1, replace(dec1, skip=dec1.skip + (5,)), d0, dec0)
    assert not check_smith_certificate(d1, dec1)   # a skip needs d_0 and its decomposition
    # nor by a decomposition of d_0 whose sweep no longer leads where it says
    assert not check_smith_certificate(d1, dec1, d0, replace(dec0, ops=(("col", 0, 1, 1),)))
    # a d_0 with one sign flipped keeps its unit leads and a good certificate,
    # but d_1 no longer annihilates it
    for spec in (rp2_simplicial(), LocalComplexSpec(load_bundled_model("z6_arcs"))):
        (d0, d1), (dec0, dec1) = certified_chain(spec, 1)
        r, c, v = d0.entries
        flipped = BoundaryMatrix(d0.shape, (r, c, np.concatenate((v[:-1], -v[-1:]))))
        flipped_dec = smith_normal_form(flipped)
        assert check_smith_certificate(flipped, flipped_dec)
        assert set(dec1.skip) <= flipped_dec.unit_leads
        assert not composes_to_zero(d1, flipped)
        assert not check_smith_certificate(d1, dec1, flipped, flipped_dec)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_the_skip_changes_no_integer_profile(seed):
    model = random_cover_model(random.Random(seed))
    for spec in (LocalComplexSpec(model), CechComplexSpec(model), TotalComplexSpec(model)):
        mats, skipped = certified_chain(spec, 2)
        whole = [smith_normal_form(mat, skip=()) for mat in mats]
        assert all(check_smith_certificate(mat, dec) for mat, dec in zip(mats, whole))
        dims = [spec.size(n) for n in range(4)]
        profile = homology._integer_profile(dims, whole)
        assert homology._integer_profile(dims, skipped) == profile
        assert integer_cohomology(spec, 2) == profile


def unit_lead_differentials():
    """Local, Čech and total d_0..d_2 of every bundled model and of 40 seeded
    random covers."""
    models = [load_bundled_model(name) for name in bundled_model_names()]
    for model in models + [random_cover_model(random.Random(seed)) for seed in range(40)]:
        for spec in (LocalComplexSpec(model), CechComplexSpec(model), TotalComplexSpec(model)):
            for n in range(3):
                yield assemble_matrix(spec, n)


def record_remainders(monkeypatch) -> list:
    """(rows, cells) of each remainder :func:`smith_normal_form` hands on."""
    finish, sizes = homology._smith_remainder, []

    def recorded(work, ops):
        sizes.append((sum(1 for row in work.rows if row), sum(map(len, work.rows))))
        return finish(work, ops)

    monkeypatch.setattr(homology, "_smith_remainder", recorded)
    return sizes


def test_unit_leads_leave_an_empty_remainder(monkeypatch):
    sizes = record_remainders(monkeypatch)
    for mat in unit_lead_differentials():
        dec = smith_normal_form(mat)
        assert set(dec.invariants) <= {1}
        assert check_smith_certificate(mat, dec)
    assert sizes == []


def test_a_non_unit_lead_leaves_a_remainder_with_the_torsion(monkeypatch):
    spec = rp2_simplicial()
    sizes = record_remainders(monkeypatch)
    assert integer_cohomology(spec, 2) == [(1, ()), (0, ()), (0, (2,))]
    # d_1 leaves out the 5 columns d_0's unit pivots lead at, 2 of them among
    # the 3 cells the remainder's row held without the skip
    assert sizes == [(1, 1)]
    assert assemble_matrix(spec, 1).shape == (10, 15)


def test_a_matrix_without_a_unit_lead_is_all_remainder(monkeypatch):
    mat = assemble_matrix(LocalComplexSpec(load_bundled_model("z6_arcs")), 1)
    r, c, v = mat.entries
    doubled = BoundaryMatrix(mat.shape, (r, c, 2 * v))
    sizes = record_remainders(monkeypatch)
    dec = smith_normal_form(doubled)
    assert dec.invariants == (2,) * matrix_rank(mat, Q)
    assert check_smith_certificate(doubled, dec)
    assert 0 not in factors(dec)
    assert sizes == [(len(set(r.tolist())), len(r))]


def barycentric(simplices) -> list:
    """The barycentric subdivision of a complex given by all its simplices: a
    vertex, numbered, per simplex, and a simplex per chain of faces."""
    faces = {frozenset(s) for s in simplices}
    number = {f: k for k, f in enumerate(sorted(faces, key=lambda f: (len(f), sorted(f))))}
    chains, longest = [], [(f,) for f in faces]
    while longest:
        chains += longest
        longest = [c + (g,) for c in longest for g in faces if c[-1] < g]
    return [tuple(sorted(number[f] for f in c)) for c in chains]


def test_twice_subdivided_projective_plane_leaves_one_remainder_row(monkeypatch):
    rp2 = load_bundled_model("projective_plane")
    spec = SimplicialComplexSpec(barycentric(barycentric(rp2.complex)))
    d1 = assemble_matrix(spec, 1)
    assert d1.shape == (360, 540)
    sizes = record_remainders(monkeypatch)
    dec = smith_normal_form(d1)
    assert (dec.rank, dec.torsion()) == (360, (2,))
    assert check_smith_certificate(d1, dec)
    assert 0 not in factors(dec)
    ((rows, cells),) = sizes   # 359 unit pivots leave one row to the search
    assert rows == 1 and cells <= 12
    assert integer_cohomology(spec, 2) == [(1, ()), (0, ()), (0, (2,))]


def test_smith_certificate_rejects_non_elementary_operations():
    # each forgery replays to a divisor chain with false torsion, so only the
    # check that every operation is elementary can reject it
    one, column = as_matrix([[1]], 1), as_matrix([[2], [1]], 1)
    doubled = smith_normal_form(one)
    assert check_smith_certificate(one, doubled)
    forged = replace(doubled, invariants=(2,), pivots=((0, 0, 2),), units=0,
                     remainder_ops=(("row", 0, 0, 1),))
    assert not check_smith_certificate(one, forged)
    halved = replace(smith_normal_form(column), invariants=(2,), pivots=((0, 0, 2),), units=0,
                     remainder_ops=(("row", 0, 1, Fraction(-1, 2)),))
    assert not check_smith_certificate(column, halved)
    assert not check_smith_certificate(one, replace(doubled, ops=(("scale", 0, 1),)))
    # a bool is not an int, although ("col", True, False, -1) replays correctly
    ones = as_matrix([[1, 1]], 2)
    honest = smith_normal_form(ones)
    ((kind, src, dst, f),) = honest.ops
    assert check_smith_certificate(ones, honest)
    boolean = replace(honest, ops=((kind, bool(src), bool(dst), f),))
    assert not check_smith_certificate(ones, boolean)


def dense_rows(mat):
    return [[row.get(c, 0) for c in range(mat.shape[1])] for row in mat.rows]


def assert_same_smith(dense, mat):
    """Smith on an assembled matrix and on the matrix rebuilt from its dense
    rows make the same operations, and each certificate holds on either."""
    rebuilt = as_matrix(dense, mat.shape[1])
    from_dense, from_coo = smith_normal_form(rebuilt), smith_normal_form(mat)
    assert from_coo.invariants == from_dense.invariants
    assert from_coo.pivots == from_dense.pivots
    assert from_coo.ops == from_dense.ops
    assert from_coo.shape == from_dense.shape == mat.shape
    for dec in (from_dense, from_coo):
        assert check_smith_certificate(mat, dec)
        assert check_smith_certificate(rebuilt, dec)


@pytest.mark.parametrize("name", bundled_model_names())
def test_smith_from_entries_equals_smith_from_dense_rows_on_bundled_models(name):
    model = load_bundled_model(name)
    for spec in (LocalComplexSpec(model), CechComplexSpec(model), TotalComplexSpec(model)):
        for n in range(3):
            mat = assemble_matrix(spec, n)
            assert_same_smith(dense_rows(mat), mat)


def test_smith_on_entries_keeps_its_typed_errors():
    # object-dtype values, as compare._as_columns builds them
    halves = _as_columns([{0: 1, 1: Fraction(1, 2)}], 2)
    assert halves.entries[2].dtype == object
    with pytest.raises(CoefficientError):
        smith_normal_form(halves)
    with pytest.raises(CoefficientError):
        check_smith_certificate(halves, smith_normal_form(as_matrix([[1], [0]], 1)))
    r, c = np.array([0]), np.array([0])
    with pytest.raises(CoefficientError):
        smith_normal_form(BoundaryMatrix((1, 1), (r, c, np.array([True]))))


def test_smith_and_its_check_refuse_entries_out_of_order():
    # both read each column's least row as its first entry in column order
    mat = as_matrix([[0, 1], [2, 1]], 2)
    r, c, v = mat.entries
    assert check_smith_certificate(mat, smith_normal_form(mat))
    for bad in [BoundaryMatrix(mat.shape, (r[::-1], c[::-1], v[::-1])),
                BoundaryMatrix(mat.shape, (r, c, np.where(r == 0, 0, v)))]:
        with pytest.raises(ModelError):
            smith_normal_form(bad)
        with pytest.raises(ModelError):
            check_smith_certificate(bad, smith_normal_form(mat))


def test_boundary_matrix_reads_as_its_dense_rows():
    # certbench/layers.py (Tracer._smith) counts homology.snf_cells as
    # len(matrix) * len(matrix[0]) on the matrix handed to smith_normal_form
    mat = assemble_matrix(LocalComplexSpec(load_bundled_model("hexagon")), 1)
    dense = dense_rows(mat)
    assert len(mat) == mat.shape[0] == len(dense)
    assert [mat[i] for i in range(len(mat))] == list(mat) == dense
    assert mat[-1] == dense[-1] and len(mat[0]) == mat.shape[1]
    with pytest.raises(IndexError):
        mat[len(mat)]
    empty = as_matrix([], 0)
    assert len(empty) == 0 and list(empty) == []


def test_kernel_basis_annihilates():
    rng = random.Random(4)
    m = load_bundled_model("hexagon")
    spec = LocalComplexSpec(m)
    mat = assemble_matrix(spec, 1)
    basis = kernel_basis(mat, Q)
    assert len(basis) == len(mat.col_labels) - matrix_rank(mat, Q)
    for vec in basis:
        for row in mat.rows:
            assert sum(c * vec.get(j, 0) for j, c in row.items()) == 0


def test_rank_in_quotient():
    one, two = {0: 1}, {1: 1}
    assert rank_in_quotient([one, two], [one], Q) == 1
    assert rank_in_quotient([one], [one], Q) == 0
    assert rank_in_quotient([two], [], Q) == 1


# property tests of the sparse eliminator against the dense oracles above

FIELDS = [(Q, 0), (PrimeField(2), 2), (PrimeField(3), 3), (Z5, 5)]


@st.composite
def sparse_matrices(draw):
    """Dense integer matrices, half zeros, entries in [-4, 4]: tall, wide, empty,
    with zero rows; returned with their column count (rows may be empty)."""
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 9))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    dense = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=nrows, max_size=nrows))
    return dense, ncols


def oracle_rank(dense, p):
    return oracle_rank_mod_p(dense, p) if p else oracle_rank_fraction(dense)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_eliminator_rank_matches_oracles(case):
    dense, ncols = case
    for system, p in FIELDS:
        assert matrix_rank(as_matrix(dense, ncols), system) == oracle_rank(dense, p)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_eliminator_kernel_is_exact(case):
    dense, ncols = case
    for system, p in FIELDS:
        basis = kernel_basis(as_matrix(dense, ncols), system)
        assert len(basis) == ncols - oracle_rank(dense, p)
        for vec in basis:
            assert all(0 <= c < ncols for c in vec)
            for row in dense:
                total = sum(row[c] * v for c, v in vec.items())
                assert (total % p if p else total) == 0
        as_dense = [[vec.get(c, 0) for c in range(ncols)] for vec in basis]
        assert oracle_rank(as_dense, p) == len(basis)


class EagerEchelon(Echelon):
    """An :class:`Echelon` that notes whether a vector ever became a pivot
    with a lead that is not ±1 over Q, where the sweep would set it aside."""

    non_unit = False

    def _normalise(self, row, c):
        self.non_unit |= not self.p and abs(row[c]) != 1
        return super()._normalise(row, c)


def eager_echelon(columns, nrows, p, skip=(), tagged=False):
    """The reference for the sweep: every column (a dict row -> value) not in
    ``skip`` reduced mod p and inserted, last first; with ``tagged``, column j
    also holds 1 at ``nrows + j``."""
    ech = EagerEchelon(p)
    for j in reversed(range(len(columns))):
        if j not in skip:
            vec = {i: x % p if p else x for i, x in columns[j].items() if (x % p if p else x)}
            if tagged:
                vec[nrows + j] = 1
            ech.insert(vec)
    return ech


def check_kernel(mat, system, p, kernel, skip=()):
    """``kernel`` holds the nullity of ``mat`` over the field, each vector
    annihilated by it and led at a kept column no other vector leads at."""
    nrows, ncols = mat.shape
    columns = mat.columns
    assert len(kernel) == ncols - len(skip) - eager_echelon(columns, nrows, p, skip).rank
    for vec in kernel:
        image: dict = {}
        for j, x in vec.items():
            for i, y in columns[j].items():
                image[i] = image.get(i, 0) + x * y
        assert not any(x % p if p else x for x in image.values())
    heads = [min(vec) for vec in kernel]
    assert len(set(heads)) == len(heads) and not set(heads) & set(skip)


@st.composite
def lazy_cases(draw):
    """A sparse integer matrix, a set of columns to skip and a cut of the rows
    into blocks.  Nonzero entries crowd into the first rows, so many columns
    share a lead, and whole columns are zero."""
    nrows, ncols = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    zero = draw(st.sets(st.integers(0, max(ncols - 1, 0)))) if ncols else set()
    dense = [[0 if j in zero or draw(st.integers(0, i + 1)) else draw(st.integers(-6, 6))
              for j in range(ncols)] for i in range(nrows)]
    skip = sorted(draw(st.sets(st.integers(0, ncols - 1)))) if ncols else []

    def cuts(n):
        inner = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        return np.array([0, *sorted(inner), n], dtype=np.int64)

    return dense, ncols, skip, cuts(nrows)


def block_counts(keys, bounds):
    return [sum(bounds[b] <= k < bounds[b + 1] for k in keys) for b in range(len(bounds) - 1)]


@settings(max_examples=150, deadline=None)
@given(lazy_cases())
@example(([[1, 1, 0], [0, 2, 0], [0, 0, 0]], 3, [], np.array([0, 1, 3])))
@example(([[2, 4], [4, 8], [1, 0]], 2, [1], np.array([0, 3])))
# wide: fewer rows than kept columns, where the leads are still reported
@example(([[1, 2, 0, 3], [0, 0, 1, 1]], 4, [], np.array([0, 1, 2])))
def test_lazy_elimination_matches_eager_insertion(case):
    # the sweep's rank, leads, block ranks and kernel against inserting every
    # column at once: the kernel is the eager one exactly wherever the eager
    # run kept only unit leads, as the sweep then does the same steps
    dense, ncols, skip, blocks = case
    mat, nrows = as_matrix(dense, ncols), len(dense)
    columns = mat.columns
    for system, p in [(Q, 0), (PrimeField(2), 2), (Z5, 5)]:
        eager = eager_echelon(columns, nrows, p, skip)
        leads = set()
        assert matrix_rank(mat, system, skip=skip, leads=leads) == eager.rank
        assert leads == set(eager.pivots)
        ranks = matrix_rank(mat, system, skip=skip, blocks=blocks)
        assert ranks.tolist() == block_counts(eager.pivots, blocks)
        tagged = eager_echelon(columns, nrows, p, skip, tagged=True)
        leads = set()
        kernel = kernel_basis(mat, system, skip=skip, leads=leads)
        assert leads == {c for c in tagged.pivots if c < nrows}
        if tagged.non_unit:
            check_kernel(mat, system, p, kernel, skip)
        else:
            assert kernel == [{k - nrows: v for k, v in row.items()}
                              for c, row in tagged.pivots.items() if c >= nrows]


def doubled(mat):
    r, c, v = mat.entries
    return replace(mat, entries=(r, c, 2 * v))


@pytest.mark.parametrize("case", ["rp2-simplicial-d1", "cyc12_2-local-2d2"])
def test_the_rational_remainder_matches_eager_insertion(case):
    # RP^2's d_1 leaves 3 columns with a lead of ±2 over Q, and 2·d_2 of
    # cyc(12,2) all 732, since no entry is ±1; mod 3 and 5, 2 is a unit
    if case == "rp2-simplicial-d1":
        model = load_bundled_model("projective_plane")
        mat, aside = assemble_matrix(simplicial(model.complex, model.point_key), 1), 3
    else:
        mat = doubled(assemble_matrix(LocalComplexSpec(left_invariant_cover(12, 2)), 2))
        aside = mat.shape[1]
    nrows, columns = mat.shape[0], mat.columns
    for system, p in [(Q, 0), (PrimeField(3), 3), (Z5, 5)]:
        assert len(homology._sweep(mat, p)[2]) == (0 if p else aside)
        eager, leads = eager_echelon(columns, nrows, p), set()
        assert matrix_rank(mat, system, leads=leads) == eager.rank
        assert leads == set(eager.pivots)
        check_kernel(mat, system, p, kernel_basis(mat, system))


def edge_cover(m):
    """K_m covered by its edges: the local cohomology is the graph's, so
    h^1 = C(m - 1, 2), the number of independent cycles."""
    edges = tuple(combinations(range(m), 2))
    return CoverModel(points=tuple(range(m)), cover=edges,
                      cover_names=tuple(f"e{i}_{j}" for i, j in edges), complex=None, name=f"K{m}")


def check_representatives(spec, max_degree):
    """kernel_basis with the cleared columns of the degree below gives, over
    each field, exactly h_n cocycles that vanish on those columns and stay
    independent modulo the coboundaries."""
    for system, p in [(Q, 0), (PrimeField(2), 2), (Z5, 5)]:
        h = field_cohomology(spec, system, max_degree)
        below, leads = None, set()
        for n in range(max_degree + 1):
            mat = assemble_matrix(spec, n)
            skip, leads = cleared_columns(mat, below, leads), set()
            reps = kernel_basis(mat, system, skip=skip, leads=leads)
            assert len(reps) == h[n], (system.name, n)
            assert len(leads) == matrix_rank(mat, system)
            columns = mat.columns
            for vec in reps:
                assert not set(vec) & set(skip)
                image = {}
                for j, x in vec.items():
                    for i, y in columns[j].items():
                        image[i] = image.get(i, 0) + x * y
                assert all((v % p if p else v) == 0 for v in image.values())
            boundaries = [] if below is None else below.columns
            assert rank_in_quotient(reps, boundaries, system) == h[n]
            below = mat


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_representatives_on_random_covers(seed):
    check_representatives(LocalComplexSpec(random_cover_model(random.Random(seed))), 2)


@pytest.mark.parametrize("model,max_degree,profile", [
    (left_invariant_cover(20, 2), 3, [1, 1, 0, 0]),
    (edge_cover(20), 2, [1, 171, 0]),
    (edge_cover(30), 2, [1, 406, 0]),
], ids=["cyc20_2", "K20", "K30"])
def test_representatives_on_large_covers(model, max_degree, profile):
    spec = LocalComplexSpec(model)
    assert field_cohomology(spec, Q, max_degree) == profile
    check_representatives(spec, max_degree)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.integers(0, 9))
def test_eliminator_quotient_rank_matches_oracles(case, split):
    dense, _ = case
    subspace, vectors = dense[:split], dense[split:]
    for system, p in FIELDS:
        expected = oracle_rank(subspace + vectors, p) - oracle_rank(subspace, p)
        assert rank_in_quotient(to_sparse(vectors), to_sparse(subspace), system) == expected


def test_frozen_profiles():
    interval = load_bundled_model("interval")
    assert field_cohomology(LocalComplexSpec(interval), Q, 1) == [1, 0]
    hexagon = load_bundled_model("hexagon")
    assert field_cohomology(CechComplexSpec(hexagon), Q, 1) == [1, 1]
    assert field_cohomology(TotalComplexSpec(hexagon), Z5, 1) == [1, 1]
    triangle = load_bundled_model("triangle")
    assert field_cohomology(LocalComplexSpec(triangle), Q, 2) == [1, 0, 0]


def test_projective_plane_torsion():
    rp2 = load_bundled_model("projective_plane")
    spec = SimplicialComplexSpec(rp2.complex, rp2.point_key)
    assert integer_cohomology(spec, 2) == [(1, ()), (0, ()), (0, (2,))]
    assert field_cohomology(spec, Q, 2) == [1, 0, 0]
    assert field_cohomology(spec, Z5, 2) == [1, 0, 0]


def test_field_and_integer_ranks_agree_when_torsion_free():
    m = load_bundled_model("z6_arcs")
    spec = SimplicialComplexSpec(m.complex, m.point_key)
    over_q = field_cohomology(spec, Q, 1)
    over_z = integer_cohomology(spec, 1)
    assert [free for free, _ in over_z] == over_q
    assert all(torsion == () for _, torsion in over_z)


def test_augmented_rows_and_columns_are_exact():
    m = load_bundled_model("hexagon")
    for q in (0, 1):
        assert cohomology_profile(AugmentedRowSpec(m, q), Q, 2) == [0, 0, 0]
    for indices in [(0,), (0, 1)]:
        assert cohomology_profile(AugmentedColumnSpec(m, indices), Q, 2) == [0, 0, 0]


def test_integer_path_checks_each_composition_once(monkeypatch):
    calls, compose = [], homology.composes_to_zero

    def counted(upper, lower, p=0):
        calls.append((upper.shape, lower.shape))
        return compose(upper, lower, p)

    monkeypatch.setattr(homology, "composes_to_zero", counted)
    spec = LocalComplexSpec(left_invariant_cover(9, 2))
    assert integer_cohomology(spec, 2) == [(1, ()), (1, ()), (0, ())]
    # d_1 d_0 and d_2 d_1, each once, by the certificate check
    shapes = [spec.size(n) for n in range(4)]
    assert calls == [((shapes[2], shapes[1]), (shapes[1], shapes[0])),
                     ((shapes[3], shapes[2]), (shapes[2], shapes[1]))]


def test_integer_path_refuses_a_non_complex():
    # the triangle (0, 1, 2) without its edge (1, 2): d_1 drops that face,
    # so d_1 d_0 takes vertex 1 - vertex 2 to the triangle, not 0, and the
    # columns d_0's unit pivots lead at cannot be left out
    spec = SimplicialComplexSpec([(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)])
    assert not composes_to_zero(assemble_matrix(spec, 1), assemble_matrix(spec, 0))
    with pytest.raises(ModelError, match="Smith certificate failed in degree 1"):
        integer_cohomology(spec, 1)


def test_integer_profile_dispatch():
    m = load_bundled_model("interval")
    prof = cohomology_profile(LocalComplexSpec(m), Integers(), 1)
    assert prof == [(1, ()), (0, ())]


# integer reach: profiles over Z that a dense certificate could not reach


def test_cyclic_cover_16_2_local_vs_cech_over_integers():
    rep = verify_local_vs_cech(left_invariant_cover(16, 2), Integers(), 1, spot_checks=False)
    assert rep.isomorphic
    for label in ("local", "cech", "total"):
        assert rep.profiles[label] == [(1, ()), (1, ())]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_cover_profiles_agree_over_integers(seed):
    model = random_cover_model(random.Random(seed))
    local, cech, total = (cohomology_profile(spec(model), Integers(), 1)
                          for spec in (LocalComplexSpec, CechComplexSpec, TotalComplexSpec))
    assert local == cech == total


def seeded_cover_sets(seed, npoints, sizes):
    """Cover sets of the given sizes: every point is dealt to a set with
    room, then each set is filled up with other points."""
    rng = random.Random(seed)
    order = list(range(npoints))
    rng.shuffle(order)
    sets = [set() for _ in sizes]
    for p in order:
        sets[rng.choice([i for i, s in enumerate(sets) if len(s) < sizes[i]])].add(p)
    for s, size in zip(sets, sizes):
        s.update(rng.sample(sorted(set(range(npoints)) - s), size - len(s)))
    return [sorted(s) for s in sets]


def nerve_betti_numbers(sets, max_degree):
    """Rational Betti numbers of the nerve, from its simplicial coboundaries."""
    simplices = [[c for c in combinations(range(len(sets)), n + 1)
                  if set(sets[c[0]]).intersection(*(sets[i] for i in c))]
                 for n in range(max_degree + 2)]
    ranks = []
    for n in range(max_degree + 1):
        index = {s: k for k, s in enumerate(simplices[n])}
        dense = [[0] * len(simplices[n]) for _ in simplices[n + 1]]
        for r, s in enumerate(simplices[n + 1]):
            for k in range(len(s)):
                dense[r][index[s[:k] + s[k + 1:]]] = (-1) ** k
        ranks.append(oracle_rank_fraction(dense))
    return [len(simplices[n]) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(max_degree + 1)]


def test_random_cover_compare_over_integers_to_degree_two(tmp_path):
    sets = seeded_cover_sets(5, 8, (4, 4, 3, 3))
    doc = {"name": "random-8", "points": list(range(8)),
           "cover": [{"name": f"U{i}", "members": s} for i, s in enumerate(sets)]}
    path, out = tmp_path / "random-8.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert run(["--output", str(out), "compare", str(path), "--coeff", "Z",
                "--max-degree", "2"]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    # a nerve on four vertices has no torsion, so its integer profile is the
    # rational Betti numbers with empty torsion
    betti = nerve_betti_numbers(sets, 2)
    assert betti == [1, 2, 0]
    for label in ("local", "cech", "total"):
        assert report["result"]["comparison"]["profiles"][label] == [[b, []] for b in betti]


# brute-force oracle of every differential: the alternating face sums written
# out per basis element, with labels rather than codes


def oracle_faces(spec, n, label):
    """Pairs (column label, coefficient) of d_n at one degree-(n+1) element."""
    def drop(t, k):
        return t[:k] + t[k + 1:]
    if isinstance(spec, TotalComplexSpec):
        p, idx, t = label
        out = [((p - 1, drop(idx, k), t), (-1) ** k) for k in range(len(idx))] if p else []
        if len(t) >= 2:
            out += [((p, idx, drop(t, i)), (-1) ** (p + i)) for i in range(len(t))]
        return out
    if isinstance(spec, AugmentedRowSpec):
        idx, t = label
        return [(t, 1)] if n == 0 else [((drop(idx, k), t), (-1) ** k) for k in range(len(idx))]
    if isinstance(spec, AugmentedColumnSpec) and n == 0:
        return [(spec.indices, 1)]
    return [(drop(label, i), (-1) ** i) for i in range(len(label))]


def oracle_basis(spec, n):
    """Each basis enumerated by brute force in its documented order."""
    model = getattr(spec, "model", None)
    if isinstance(spec, LocalComplexSpec):
        found = {t for members in model.cover for t in product(members, repeat=n + 1)}
        return tuple(sorted(found, key=model.point_key))
    if isinstance(spec, CechComplexSpec):
        return model.nerve().of_dimension(n)
    if isinstance(spec, TotalComplexSpec):
        return tuple((p, idx, t) for p in range(n + 1) for idx in model.nerve().of_dimension(p)
                     for t in product(model.intersection(idx), repeat=n - p + 1))
    if isinstance(spec, AugmentedRowSpec):
        if n == 0:
            return oracle_basis(LocalComplexSpec(model), spec.q)
        return tuple((idx, t) for idx in model.nerve().of_dimension(n - 1)
                     for t in product(model.intersection(idx), repeat=spec.q + 1))
    if isinstance(spec, AugmentedColumnSpec):
        return (spec.indices,) if n == 0 else tuple(product(spec.members, repeat=n))
    simplices, key = spec.oracle_input
    return tuple(sorted((s for s in simplices if len(s) == n + 1), key=key))


def oracle_rows(spec, n):
    """Sparse rows of d_n: faces summed, zeros dropped; only a simplicial
    complex may lack a face, which is then dropped."""
    index = {label: k for k, label in enumerate(spec.basis(n))}
    rows = []
    for label in spec.basis(n + 1):
        row = {}
        for face, coef in oracle_faces(spec, n, label):
            if face not in index:
                assert isinstance(spec, SimplicialComplexSpec), (label, face)
                continue
            row[index[face]] = row.get(index[face], 0) + coef
        rows.append({c: v for c, v in row.items() if v})
    return rows


def simplicial(simplices, key=None):
    spec = SimplicialComplexSpec(simplices, key)
    spec.oracle_input = (tuple(map(tuple, simplices)), key or (lambda s: s))
    return spec


def every_spec(model, rng):
    """(spec, closed) for each kind of complex on the model; closed specs
    are cochain complexes, so d_{n+1} d_n = 0 holds on them."""
    nerve = model.nerve().simplices
    specs = [LocalComplexSpec(model), CechComplexSpec(model), TotalComplexSpec(model),
             AugmentedRowSpec(model, 0), AugmentedRowSpec(model, 1),
             AugmentedColumnSpec(model, rng.choice(nerve)), simplicial(nerve)]
    if model.complex is not None:
        specs += [simplicial(model.complex, model.point_key),
                  simplicial(model.u_small_subcomplex(), model.point_key)]
    closed = [(spec, True) for spec in specs]
    # a set of simplices missing some faces: those are dropped, not errors
    return closed + [(simplicial(rng.sample(nerve, (len(nerve) + 1) // 2)), False)]


@st.composite
def cover_models(draw):
    if draw(st.booleans()):
        return load_bundled_model(draw(st.sampled_from(bundled_model_names())))
    return random_cover_model(random.Random(draw(st.integers(0, 10 ** 6))))


@settings(max_examples=30, deadline=None)
@given(cover_models(), st.integers(0, 10 ** 6))
def test_assembly_matches_face_sum_oracle(model, seed):
    for spec, closed in every_spec(model, random.Random(seed)):
        mats = [assemble_matrix(spec, n) for n in range(3)]
        for n, mat in enumerate(mats):
            assert mat.col_labels == spec.basis(n) == oracle_basis(spec, n)
            assert mat.row_labels == spec.basis(n + 1) == oracle_basis(spec, n + 1)
            assert list(mat.rows) == oracle_rows(spec, n), (spec.label, n)
            assert list(mat.columns) == [{r: row[c] for r, row in enumerate(mat.rows) if c in row}
                                         for c in range(len(mat.col_labels))]
        if closed:
            for n in range(2):
                square = compose(mats[n + 1].rows, mats[n].rows)
                assert all(not row for row in square), (spec.label, n)


def compose(second, first):
    out = []
    for row in second:
        acc = {}
        for mid, a in row.items():
            for col, b in first[mid].items():
                acc[col] = acc.get(col, 0) + a * b
        out.append({c: v for c, v in acc.items() if v})
    return out


def listed_block_faces(simplices, offset=0, empty=-1):
    """The face-block table of ``homology._block_faces``, as lists of rows."""
    position = {s: b for b, s in enumerate(simplices, offset)}
    position[()] = empty
    width = max(map(len, simplices), default=0)
    table = [[-1] * width for _ in range(offset)]
    for s in simplices:
        faces = [position[s[:k] + s[k + 1:]] for k in range(len(s))]
        table.append(faces + [-1] * (width - len(faces)))
    return table


def listed_rule_inputs(spec, n):
    """(radix, arity, weight, face blocks) of d_n's face rule, as lists, per
    spec kind.  The Čech and total rules list the nerve simplices through
    dimension n + 1, the blocks d_n's rows lie in, and no others; the
    augmented-row rule those through dimension n."""
    if isinstance(spec, (CechComplexSpec, TotalComplexSpec)):
        blocks = [idx for idx in spec.model.nerve().simplices if len(idx) <= n + 2]
    if isinstance(spec, CechComplexSpec):
        faces = listed_block_faces(blocks)
        return 1, [0] * len(faces), [0] * len(faces), [f[:n + 2] for f in faces]
    if isinstance(spec, TotalComplexSpec):
        dims = [len(idx) - 1 for idx in blocks]
        arity = [n + 2 - p for p in dims]
        weight = [(-1) ** p if a >= 2 else 0 for p, a in zip(dims, arity)]
        faces = listed_block_faces(blocks)
        return spec.radix, arity, weight, [f[:n + 2] for f in faces]
    if isinstance(spec, AugmentedRowSpec):
        # d_n's rows lie in the blocks through nerve dimension n
        blocks = [idx for idx in spec.model.nerve().simplices if len(idx) <= n + 1]
        faces = listed_block_faces(blocks, offset=1, empty=0)
        return (spec.radix, [spec.q + 1] * len(faces), [0] * len(faces),
                [f[:n + 1] for f in faces])
    blocks = getattr(spec, "block_count", 1)
    arity = n + 1 if isinstance(spec, AugmentedColumnSpec) else n + 2
    return spec.radix, [arity] * blocks, [1] * blocks, [[]] * blocks


def listed_rule_tables(radix, arity, weight, face_blocks):
    """``places``, ``blocks`` and ``signs`` of a FaceRule, one list
    comprehension per block."""
    width = max(arity, default=0)
    places = np.array([[radix ** (a - 1 - j) if j < a else 1 for j in range(width)]
                       for a in arity], dtype=homology.code_dtype(radix ** width))
    signs = np.array([[w * (-1) ** j if j < a else 0 for j in range(width)]
                      + [(-1) ** k if f >= 0 else 0 for k, f in enumerate(fb)]
                      for a, w, fb in zip(arity, weight, face_blocks)], dtype=np.int64)
    return places, np.array(face_blocks, dtype=np.int64), signs


def assert_rule_tables(rule, radix, arity, weight, face_blocks):
    for got, want in zip((rule.places, rule.blocks, rule.signs),
                         listed_rule_tables(radix, arity, weight, face_blocks)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()


@settings(max_examples=30, deadline=None)
@given(cover_models(), st.integers(0, 10 ** 6))
def test_face_rule_tables_match_the_listed_definition(model, seed):
    for spec, _ in every_spec(model, random.Random(seed)):
        for n in range(4):
            assert_rule_tables(spec.face_rule(n), *listed_rule_inputs(spec, n))


def test_face_rule_tables_past_int64_and_with_arity_below_one():
    # degree 0 of the total complex of the 4-simplex cover: d_0 reads the
    # blocks of nerve dimension 0 and 1 only, which hold tuples of arity 2
    # and 1; arities below one come only from the hand-built rule below
    model = CoverModel(points=(0, 1), cover=(frozenset({0, 1}),) * 5,
                       cover_names=tuple(f"U{i}" for i in range(5)))
    spec = TotalComplexSpec(model)
    assert sorted(set(listed_rule_inputs(spec, 0)[1])) == [1, 2]
    assert len(spec.face_rule(0).blocks) == 5 + 10
    assert_rule_tables(spec.face_rule(0), *listed_rule_inputs(spec, 0))
    # ten of 100 cover sets share a point: the nerve is a 9-simplex plus 90
    # vertices, and its simplices coded in base 100 pass int64 in dimension 9
    cover = (frozenset({0}),) * 10 + tuple(frozenset({p}) for p in range(1, 91))
    model = CoverModel(points=tuple(range(91)), cover=cover,
                       cover_names=tuple(f"U{i}" for i in range(100)))
    spec = CechComplexSpec(model)
    assert homology.code_dtype(100 ** 10) == object
    assert_rule_tables(spec.face_rule(8), *listed_rule_inputs(spec, 8))
    # 100^11 is past int64, so the place values are Python ints
    spec = LocalComplexSpec(left_invariant_cover(100, 7))
    rule = spec.face_rule(9)
    assert rule.places.dtype == object
    assert_rule_tables(rule, *listed_rule_inputs(spec, 9))
    radix = 2 ** 40
    arity, weight, faces = [2, 1, 0, -1, 3], [1, -1, 0, 1, -1], [[1, -1], [-1, -1], [0, 2],
                                                                   [-1, 3], [4, 0]]
    rule = homology.FaceRule(radix, radix ** 3, radix ** 2, arity, weight,
                             np.array(faces, dtype=np.int64))
    assert rule.places.dtype == object
    assert_rule_tables(rule, radix, arity, weight, faces)


def test_assembly_with_codes_past_int64():
    # 600 points: level-6 tuples have codes up to 600^7 > 2^63, level 5 stays in int64
    cover = (frozenset({0, 1}), frozenset({1, 2})) + tuple(frozenset({p}) for p in range(3, 600))
    m = CoverModel(points=tuple(range(600)), cover=cover,
                   cover_names=tuple(f"U{i}" for i in range(len(cover))))
    local = LocalComplexSpec(m)
    assert local.codes(6).dtype == object and local.codes(5).dtype == np.int64
    mat = assemble_matrix(local, 5)
    assert list(mat.rows) == oracle_rows(local, 5)
    assert field_cohomology(local, Q, 5) == [598, 0, 0, 0, 0, 0]
    total = TotalComplexSpec(m)
    assert total.codes(5).dtype == object
    assert list(assemble_matrix(total, 5).rows) == oracle_rows(total, 5)


def test_assembly_raises_on_a_missing_face():
    m = load_bundled_model("hexagon")

    class Truncated(LocalComplexSpec):
        def _build_basis(self, n):
            codes = super()._build_basis(n)
            return codes[1:] if n == 0 else codes

    with pytest.raises(ModelError, match="missing from the degree-0 basis"):
        assemble_matrix(Truncated(m), 0)


def test_assembly_names_the_first_missing_face_in_row_order():
    # the path 0-1-2-3 without vertices 0 and 3: edge (0, 1) misses the face
    # it has with position 1 deleted, the later edge (2, 3) the one with
    # position 0 deleted, which the search by deletion position meets first
    class Gapped(SimplicialComplexSpec):
        drops_missing_faces = False

        def _build_basis(self, n):
            codes = super()._build_basis(n)
            return codes[(codes != 0) & (codes != 3)] if n == 0 else codes

    spec = Gapped([(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3)])
    with pytest.raises(ModelError, match=re.escape("a face of (0, 1) is missing")):
        assemble_matrix(spec, 0)


@pytest.mark.parametrize("coeff", ["Q", "Zp:5", "Z"])
def test_profiles_decode_no_label(tmp_path, monkeypatch, coeff):
    # profiles read sizes and codes only: no tuple is decoded and no spec's
    # labels are asked for, on any complex over any coefficients
    decoded, labelled = [], []
    decode, basis = model_module.decode, homology.ComplexSpec.basis
    monkeypatch.setattr(model_module, "decode",
                        lambda *args: decoded.append(args) or decode(*args))
    monkeypatch.setattr(homology.ComplexSpec, "basis",
                        lambda self, n: labelled.append((self.label, n)) or basis(self, n))
    cyc = tmp_path / "cyc12_2.json"
    cyc.write_text(json.dumps(left_invariant_cover(12, 2).to_json_dict()))
    models = resources.files("locco.models")
    paths = [str(models.joinpath(name + ".json")) for name in bundled_model_names()] + [str(cyc)]
    for path in paths:
        # Smith forms of cyc(12,2) in degree 2 take seconds; degree 1 reads the same paths
        top = "1" if coeff == "Z" and path == str(cyc) else "2"
        for complex_ in ("local", "cech", "total"):
            argv = ["--output", str(tmp_path / "out.json"), "cohomology", path,
                    "--complex", complex_, "--coeff", coeff, "--max-degree", top]
            assert run(argv) == 0, (path, complex_)
    assert decoded == [] and labelled == []


def fresh(model):
    return CoverModel(points=model.points, cover=model.cover, cover_names=model.cover_names,
                      complex=model.complex)


def forbid_enumeration(monkeypatch):
    """Fail on the first step that enumerates a nerve block: the code dtype
    of the batched blocks, or a per-block power for the labels."""
    def fail(*args):
        pytest.fail("enumerated before the budget was charged")
    monkeypatch.setattr(homology, "code_dtype", fail)
    monkeypatch.setattr(CoverModel, "intersection_power", fail)


def test_total_basis_charged_before_enumeration(monkeypatch):
    # degree 1 of the hexagon: three sets of 3 points (3^2 pairs each) and
    # three one-point edges, 27 + 3 = 30 tuples
    m = load_bundled_model("hexagon")
    monkeypatch.setenv("LOCCO_BUDGET", "30")
    assert len(TotalComplexSpec(fresh(m)).basis(1)) == 30
    monkeypatch.setenv("LOCCO_BUDGET", "29")
    forbid_enumeration(monkeypatch)
    with pytest.raises(BudgetError, match=r"total-complex basis in degree 1 needs 30 raw"):
        TotalComplexSpec(fresh(m)).basis(1)


def test_augmented_row_bases_are_charged(monkeypatch):
    # degree 1 at q = 1: pairs from each of the three 3-point sets, 27 tuples
    m = load_bundled_model("hexagon")
    monkeypatch.setenv("LOCCO_BUDGET", "27")
    assert len(AugmentedRowSpec(fresh(m), 1).basis(1)) == 27
    monkeypatch.setenv("LOCCO_BUDGET", "26")
    forbid_enumeration(monkeypatch)
    with pytest.raises(BudgetError, match=r"augmented-row basis in degree 1 needs 27 raw"):
        AugmentedRowSpec(fresh(m), 1).basis(1)


def test_one_face_table_per_nerve_prefix(monkeypatch):
    # the Čech and total specs of one comparison read the same nerve prefix
    # for d_n, and share its face table: each is built once
    built, block_faces = [], homology._block_faces

    def counted(nerve, offset=0, empty=-1):
        if not offset:   # the augmented rows of the spot checks keep their own
            built.append(len(nerve))
        return block_faces(nerve, offset, empty)

    monkeypatch.setattr(homology, "_block_faces", counted)
    model = left_invariant_cover(12, 2)
    assert verify_local_vs_cech(model, Q, 2).isomorphic
    assert built == [len(model.nerve(top)) for top in (1, 2, 3)]


# ---------------------------------------------------------------------------
# field profiles that skip the columns d∘d = 0 proves dependent


def full_elimination_profile(spec, p, max_degree):
    """Field profile with every row of every d_n inserted: no column skipped."""
    dims = [len(spec.basis(n)) for n in range(max_degree + 2)]
    ranks = []
    for n in range(max_degree + 1):
        ech = Echelon(p)
        for row in assemble_matrix(spec, n).rows:
            ech.insert({c: v % p for c, v in row.items() if v % p} if p else dict(row))
        ranks.append(ech.rank)
    return profile_from_ranks(dims, ranks)


@settings(max_examples=25, deadline=None)
@given(cover_models(), st.integers(0, 10 ** 6))
@example(load_bundled_model("projective_plane"), 0)
def test_field_profiles_match_full_elimination(model, seed):
    for spec, _ in every_spec(model, random.Random(seed)):
        for system, p in FIELDS:
            assert (field_cohomology(spec, system, 2)
                    == full_elimination_profile(spec, p, 2)), (spec.label, system.name)


def tampered(mat, k, value):
    """``mat`` with entry k set to ``value``, dropped where ``value`` is 0."""
    r, c, v = (x.copy() for x in mat.entries)
    v[k] = value
    live = v != 0
    return replace(mat, entries=(r[live], c[live], v[live]))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 15])
def test_composition_check_rejects_tampering(monkeypatch, chunk):
    monkeypatch.setattr(homology, "_PRODUCT_CHUNK", chunk)
    spec = LocalComplexSpec(left_invariant_cover(9, 2))
    lower, upper = assemble_matrix(spec, 1), assemble_matrix(spec, 2)
    assert composes_to_zero(upper, lower)
    # the last entry of upper whose column d_1 reaches: its row is the last chunk
    reached = np.bincount(lower.entries[0], minlength=lower.shape[0]) > 0
    k = int(reached[upper.entries[1]].nonzero()[0][-1])
    assert not composes_to_zero(tampered(upper, k, -upper.entries[2][k]), lower)
    assert not composes_to_zero(tampered(upper, k, 0), lower)
    # an entry of lower in a row that upper reaches
    k = int(np.isin(lower.entries[0], upper.entries[1]).nonzero()[0][-1])
    assert not composes_to_zero(upper, tampered(lower, k, -lower.entries[2][k]))
    assert not composes_to_zero(upper, tampered(lower, k, 0))
    assert not composes_to_zero(lower, upper)   # shapes do not chain


def test_face_incomplete_set_keeps_its_full_profile():
    # (0, 1, 2) is missing its faces (0, 1) and (1, 2), so d_1 d_0 = -1: the
    # pivot of d_0 leads at (0, 2), and skipping that column of d_1 would
    # report H^1 = 1
    spec = SimplicialComplexSpec([(2,), (0, 2), (2, 3), (0, 1, 2)])
    assert not composes_to_zero(assemble_matrix(spec, 1), assemble_matrix(spec, 0))
    leads = set()
    matrix_rank(assemble_matrix(spec, 0), Q, leads=leads)
    assert matrix_rank(assemble_matrix(spec, 1), Q, skip=leads) == 0
    for system, p in FIELDS:
        assert field_cohomology(spec, system, 1) == full_elimination_profile(spec, p, 1) == [0, 0]


def test_profiles_skip_the_columns_the_degree_below_proves_dependent(monkeypatch):
    # cyc(12,2) local: bases of 12, 108 and 732 tuples in degrees 0..2, with
    # ranks 11 and 96 for d_0 and d_1, so d_1 and d_2 hand 108 - 11 and
    # 732 - 96 columns to the elimination
    handed, sweep = [], homology._sweep

    def counted(mat, p, skip=(), tagged=False):
        handed.append(mat.shape[1] - len(set(skip)))
        return sweep(mat, p, skip, tagged)

    monkeypatch.setattr(homology, "_sweep", counted)
    spec = LocalComplexSpec(left_invariant_cover(12, 2))
    assert field_cohomology(spec, Q, 2) == [1, 1, 0]
    assert handed == [12, 108 - 11, 732 - 96]


def test_only_the_vectors_that_meet_a_pivot_are_built(monkeypatch):
    # cyc(12,2) local d_2: 636 columns are kept, and nearly every one leads
    # at a row no pivot holds yet, so it is recorded by index and never built
    built, sweep = [], homology._sweep

    def counted(*args):
        swept = sweep(*args)
        built.append(len(swept[0].built))   # the columns of its _Columns store
        return swept

    monkeypatch.setattr(homology, "_sweep", counted)
    spec = LocalComplexSpec(left_invariant_cover(12, 2))
    assert field_cohomology(spec, Q, 2) == [1, 1, 0]
    assert len(built) == 3
    assert built[2] <= 636 // 10, built


# ---------------------------------------------------------------------------
# many simplicial complexes as the blocks of one spec


@st.composite
def simplex_blocks(draw):
    """1-6 blocks of simplices on the vertices 0..5, closed under faces or
    not; blocks may repeat simplices and whole complexes."""
    simplex = st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(
        lambda vs: tuple(sorted(vs)))
    return draw(st.lists(st.lists(simplex, min_size=1, max_size=8), min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(simplex_blocks(), st.booleans())
@example([[(0,), (1,), (0, 1)], [(0, 1, 2)], [(0,), (1,), (0, 1)]], True)
def test_block_profiles_match_one_spec_per_block(blocks, closed):
    if closed:
        blocks = [sorted({face for s in block for k in range(1, len(s) + 1)
                          for face in combinations(s, k)}) for block in blocks]
    tops = [max(map(len, block)) - 1 for block in blocks]
    spec = SimplicialComplexSpec(blocks=blocks)
    for system in [system for system, _ in FIELDS] + [Integers()]:
        try:
            want = [cohomology_profile(SimplicialComplexSpec(block), system, top)
                    for block, top in zip(blocks, tops)]
        except ModelError:
            # over Z a block that is no cochain complex, d∘d ≠ 0 where d_{n-1}
            # has unit pivots, fails its certificate, in one spec as alone
            assert not closed and not system.is_field
            with pytest.raises(ModelError, match="Smith certificate failed"):
                block_profiles(spec, system, tops)
            continue
        assert block_profiles(spec, system, tops) == want, system.name


def test_one_block_spec_is_the_plain_spec():
    m = load_bundled_model("projective_plane")
    plain = SimplicialComplexSpec(m.complex, m.point_key)
    blocked = SimplicialComplexSpec(order_key=m.point_key, blocks=[m.complex])
    for n in range(4):
        assert blocked.basis(n) == plain.basis(n)
        assert blocked.codes(n).tolist() == plain.codes(n).tolist()
        assert blocked.block_bounds(n).tolist() == [0, len(plain.basis(n))]
    assert block_profiles(blocked, Integers(), [2]) == [integer_cohomology(plain, 2)]
