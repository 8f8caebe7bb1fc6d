import random
import warnings
from fractions import Fraction

import pytest

from locco import (CechPage, DomainError, LocalCochain, PrimeField, Rationals,
                   cech_coboundary, evaluate_alternating, local_differential,
                   page_vertical_differential, permutation_sign,
                   random_local_cochain, simplicial_coboundary, smallest_point,
                   standard_column_contraction, standard_differential,
                   vertex_pullback)
from locco.cochains import SimplicialCochain, local_cochain_from_json
from locco.cli import load_bundled_model

Q = Rationals()


def inversion_parity(seq):
    """Independent sign oracle by counting inversions."""
    if len(set(seq)) != len(seq):
        return 0
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def test_permutation_sign_oracle():
    rng = random.Random(0)
    for _ in range(200):
        seq = [rng.randrange(6) for _ in range(rng.randrange(1, 6))]
        assert permutation_sign(tuple(seq)) == inversion_parity(seq)
    assert permutation_sign(()) == 1


def brute_local_differential(f):
    """Direct alternating-sum evaluation on every target tuple."""
    model, system = f.model, f.system
    out = {}
    for t in model.diagonal_neighborhood(f.degree + 1).tuples:
        acc = system.zero()
        sign = 1
        for i in range(len(t)):
            face = t[:i] + t[i + 1:]
            if face in model.diagonal_neighborhood(f.degree):
                v = f(face)
                acc = system.add(acc, system.scale(sign, v))
            sign = -sign
        if not system.is_zero(acc):
            out[t] = acc
    return out


def test_local_differential_matches_brute_force():
    rng = random.Random(3)
    for name in ("interval", "hexagon"):
        m = load_bundled_model(name)
        for degree in (0, 1):
            f = random_local_cochain(m, Q, degree, rng)
            assert local_differential(f).values == brute_local_differential(f)


def test_local_differential_squares_to_zero():
    rng = random.Random(4)
    m = load_bundled_model("z6_arcs")
    for degree in (0, 1):
        f = random_local_cochain(m, Q, degree, rng)
        assert local_differential(local_differential(f)).is_zero()


def test_local_cochain_validation_and_json():
    m = load_bundled_model("interval")
    with pytest.raises(DomainError):
        LocalCochain(m, Q, 1, {(0, 2): Fraction(1)})
    f = LocalCochain(m, Q, 1, {(0, 1): Fraction(1, 2), (1, 1): Fraction(0)})
    assert f((1, 1)) == 0 and (1, 1) not in f.values
    back = local_cochain_from_json(m, Q, f.to_json_dict())
    assert back.sub(f).is_zero()


def test_page_validation():
    m = load_bundled_model("hexagon")
    with pytest.raises(DomainError):
        CechPage(m, Q, 1, 0, {(0,): {(2,): Fraction(1)}})
    with pytest.raises(DomainError):
        CechPage(m, Q, 1, 0, {(0, 1): {(3,): Fraction(1)}})
    page = CechPage(m, Q, 1, 0, {(0, 1): {(2,): Fraction(2)}})
    assert page.value((0, 1), (2,)) == 2


def test_alternating_extension_signs():
    m = load_bundled_model("hexagon")
    page = CechPage(m, Q, 1, 0, {(0, 1): {(2,): Fraction(3)}})
    assert evaluate_alternating(page, (0, 1), (2,)) == 3
    assert evaluate_alternating(page, (1, 0), (2,)) == -3
    assert evaluate_alternating(page, (1, 1), (2,)) == 0


def test_two_torsion_warning():
    m = load_bundled_model("hexagon")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        CechPage(m, PrimeField(2), 1, 0, {(0, 1): {(2,): 1}})
        page = CechPage(m, PrimeField(2), 0, 0, {(0,): {(0,): 1}})
        cech_coboundary(page)   # built inside the package, named here all the same
    assert len(caught) == 3
    assert all(w.filename == __file__ for w in caught)


def test_page_differentials_square_and_anticommute():
    from locco.bicomplex import random_page
    m = load_bundled_model("hexagon")
    rng = random.Random(6)
    for p, q in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        page = random_page(m, Q, p, q, rng)
        assert cech_coboundary(cech_coboundary(page)).is_zero()
        assert page_vertical_differential(page_vertical_differential(page)).is_zero()
        mixed = cech_coboundary(page_vertical_differential(page)).add(
            page_vertical_differential(cech_coboundary(page)))
        assert mixed.is_zero()


def test_standard_complex_cone_identity():
    m = load_bundled_model("hexagon")
    members = m.intersection((0,))
    base = smallest_point(m, members)
    rng = random.Random(8)
    for k in (1, 2, 3):
        g = {}
        for _ in range(5):
            key = tuple(rng.choice(members) for _ in range(k))
            g[key] = Q.random_value(rng)
        g = {key: v for key, v in g.items() if not Q.is_zero(v)}
        dg = standard_differential(g, members, Q)
        sg = standard_column_contraction(g, base, Q)
        back = standard_differential(sg, members, Q)
        for key, v in standard_column_contraction(dg, base, Q).items():
            back[key] = Q.add(back.get(key, Q.zero()), v)
        keys = set(back) | set(g)
        assert all(Q.is_zero(Q.sub(back.get(key, Q.zero()),
                                   g.get(key, Q.zero()))) for key in keys)


def test_standard_differential_squares_to_zero():
    m = load_bundled_model("hexagon")
    members = m.intersection((0,))
    rng = random.Random(9)
    g = {(rng.choice(members),): Q.random_value(rng) for _ in range(3)}
    ddg = standard_differential(standard_differential(g, members, Q), members, Q)
    assert all(Q.is_zero(v) for v in ddg.values())


def test_cone_contraction_rejects_coefficient_copy():
    m = load_bundled_model("hexagon")
    with pytest.raises(DomainError):
        standard_column_contraction({(): Fraction(1)}, 0, Q)


def test_vertex_pullback_is_chain_map():
    m = load_bundled_model("hexagon")
    rng = random.Random(10)
    for degree in (0, 1):
        f = random_local_cochain(m, Q, degree, rng)
        lhs = vertex_pullback(local_differential(f))
        rhs = simplicial_coboundary(vertex_pullback(f))
        assert lhs.sub(rhs).is_zero()


def test_simplicial_coboundary_squares_to_zero():
    m = load_bundled_model("projective_plane")
    rng = random.Random(11)
    c = SimplicialCochain(m.complex, Q, 0,
                          {(v,): Q.random_value(rng) for v in m.points})
    assert simplicial_coboundary(simplicial_coboundary(c)).is_zero()
