import random
from fractions import Fraction

import pytest

from locco import (CechPage, DomainError, PartitionFamily, Rationals, RealVectors,
                   SupportError, TotalCochain, augment_cech, augment_local,
                   cech_coboundary, contraction_defect, first_hit_family, local_differential,
                   page_vertical_differential, random_local_cochain,
                   random_page, random_unity_family, row_contraction,
                   scale_page_by_weight_sum, sigma_row_contraction,
                   total_differential, total_from_page, uniform_unity_family)
from locco.loopfill import linear_contraction, sigma_fill
from locco.cli import bundled_model_names, load_bundled_model
from locco.compare import random_cover_model

Q = Rationals()


def homotopy_identity_holds(model, family, p, rng):
    return contraction_defect(random_page(model, Q, p, family.q, rng), family).is_zero()


def listed_families(model, q, rng):
    """First-hit, random-unity and uniform weights, each tuple tested against
    each cover set in turn; the random draws in the same order."""
    first, drawn_all, uniform = {}, {}, {}
    tuples = model.diagonal_neighborhood(q).tuples
    for t in tuples:
        active = [i for i, members in enumerate(model.cover) if all(c in members for c in t)]
        first.setdefault(active[0], {})[t] = 1
        for i in active:
            uniform.setdefault(i, {})[t] = Fraction(1, len(active))
    for t in tuples:
        active = [i for i, members in enumerate(model.cover) if all(c in members for c in t)]
        drawn = {i: rng.randrange(-2, 3) for i in active[1:]}
        drawn[active[0]] = 1 - sum(drawn.values())
        for i, w in drawn.items():
            if w:
                drawn_all.setdefault(i, {})[t] = w
    return first, drawn_all, uniform


@pytest.mark.parametrize("source", bundled_model_names() + ["random:1", "random:2", "random:3"])
def test_partition_families_match_the_listed_definition(source):
    if source.startswith("random:"):
        model = random_cover_model(random.Random(int(source[7:])))
    else:
        model = load_bundled_model(source)
    for q in (0, 1, 2):
        families = [first_hit_family(model, q), random_unity_family(model, q, random.Random(q)),
                    uniform_unity_family(model, q)]
        for family, listed in zip(families, listed_families(model, q, random.Random(q))):
            assert family.weights == listed
            assert [list(w) for w in family.weights.values()] == [list(w) for w in listed.values()]


def test_first_hit_family_is_exact_unity():
    for name in ("interval", "hexagon", "z6_arcs"):
        m = load_bundled_model(name)
        for q in (0, 1):
            fam = first_hit_family(m, q)
            assert fam.max_unity_deviation() == 0
            assert fam.is_nonnegative()


def test_family_validation():
    m = load_bundled_model("hexagon")
    with pytest.raises(SupportError):
        PartitionFamily(m, 0, {0: {(3,): 1}})
    with pytest.raises(SupportError):
        PartitionFamily(m, 0, {9: {(0,): 1}})
    with pytest.raises(SupportError):
        PartitionFamily(m, 0, {0: {(0,): 1}, 1: {(2,): 1}}, unity=True)


def test_uniform_family_unity():
    m = load_bundled_model("hexagon")
    fam = uniform_unity_family(m, 1)
    assert fam.max_unity_deviation() == 0
    assert any(isinstance(w, Fraction) and w.denominator > 1
               for wmap in fam.weights.values() for w in wmap.values())


def test_row_contraction_identity_all_bidegrees():
    rng = random.Random(20)
    for name in ("interval", "hexagon"):
        m = load_bundled_model(name)
        for q in (0, 1, 2):
            first = first_hit_family(m, q)
            rnd = random_unity_family(m, q, rng)
            for fam in (first, rnd):
                for p in (0, 1, 2):
                    assert homotopy_identity_holds(m, fam, p, rng), (name, p, q)


def test_approximate_contraction_identity():
    rng = random.Random(21)
    m = load_bundled_model("hexagon")
    q = 1
    weights = {}
    for i, members in enumerate(m.cover):
        wmap = {}
        for t in m.diagonal_neighborhood(q).tuples:
            if all(c in members for c in t) and rng.random() < 0.5:
                w = rng.randrange(-3, 4)
                if w:
                    wmap[t] = w
        if wmap:
            weights[i] = wmap
    fam = PartitionFamily(m, q, weights, unity=False, label="supported")
    for p in (1, 2):
        page = random_page(m, Q, p, q, rng)
        lhs = cech_coboundary(row_contraction(page, fam)).add(
            row_contraction(cech_coboundary(page), fam))
        rhs = scale_page_by_weight_sum(page, fam)
        assert lhs.sub(rhs).is_zero()


def test_sigma_row_contraction_matches_linear():
    m = load_bundled_model("hexagon")
    R2 = RealVectors(2)
    rng = random.Random(22)
    fill = lambda vs, ws: sigma_fill(linear_contraction(), vs, ws)
    for q in (0, 1):
        weights = {}
        for t in m.diagonal_neighborhood(q).tuples:
            active = [i for i, mem in enumerate(m.cover) if all(c in mem for c in t)]
            for i in active:
                weights.setdefault(i, {})[t] = 1.0 / len(active)
        fam = PartitionFamily(m, q, weights, unity=True, label="uniform-real")
        page = random_page(m, R2, 1, q, rng)
        assert row_contraction(page, fam).max_deviation(
            sigma_row_contraction(page, fam, fill)) < 1e-9


def test_sigma_row_contraction_hands_the_filler_the_smallest_index_first():
    m = load_bundled_model("hexagon")
    weights = {i: {} for i in reversed(range(len(m.cover)))}   # family order: largest first
    for t in m.diagonal_neighborhood(0).tuples:
        active = [i for i, mem in enumerate(m.cover) if t[0] in mem]
        for k, i in enumerate(active):
            weights[i][t] = (k + 1) / (len(active) * (len(active) + 1) / 2)
    fam = PartitionFamily(m, 0, weights, unity=True, label="graded")
    fill = lambda vs, ws: (ws[0], ws[-1])
    page = random_page(m, RealVectors(2), 1, 0, random.Random(29), entries=12)
    out = sigma_row_contraction(page, fam, fill)

    def active(t):
        return sorted(i for i, wmap in fam.weights.items() if wmap.get(t))

    assert any(len(active(t)) > 1 for func in out.components.values() for t in func)
    for func in out.components.values():
        for t, value in func.items():
            first, last = active(t)[0], active(t)[-1]
            assert value == (fam.weights[first][t], fam.weights[last][t])


def test_sigma_row_contraction_requires_vectors_and_nonneg():
    m = load_bundled_model("hexagon")
    rng = random.Random(23)
    fill = lambda vs, ws: sigma_fill(linear_contraction(), vs, ws)
    page_q = random_page(m, Q, 1, 0, rng)
    fam = first_hit_family(m, 0)
    with pytest.raises(DomainError):
        sigma_row_contraction(page_q, fam, fill)
    R2 = RealVectors(2)
    weights = {}
    for t in m.diagonal_neighborhood(0).tuples:
        active = [i for i, mem in enumerate(m.cover) if all(c in mem for c in t)]
        if len(active) > 1:
            weights.setdefault(active[0], {})[t] = 2.0
            weights.setdefault(active[1], {})[t] = -1.0
        else:
            weights.setdefault(active[0], {})[t] = 1.0
    signed = PartitionFamily(m, 0, weights, unity=True, label="signed")
    page_r = random_page(m, R2, 1, 0, rng)
    with pytest.raises(SupportError):
        sigma_row_contraction(page_r, signed, fill)


def test_total_differential_squares_to_zero():
    rng = random.Random(24)
    m = load_bundled_model("hexagon")
    for deg in (0, 1, 2):
        pages = {p: random_page(m, Q, p, deg - p, rng) for p in range(deg + 1)}
        tc = TotalCochain(m, Q, deg, pages)
        assert total_differential(total_differential(tc)).is_zero()


def test_total_truncation_guard():
    rng = random.Random(25)
    m = load_bundled_model("interval")
    tc = total_from_page(random_page(m, Q, 1, 1, rng))
    with pytest.raises(DomainError):
        total_differential(tc, max_degree=2)


def test_augmentations_are_chain_maps():
    rng = random.Random(26)
    m = load_bundled_model("hexagon")
    f = random_local_cochain(m, Q, 1, rng)
    lhs = page_vertical_differential(augment_local(f))
    rhs = augment_local(local_differential(f))
    assert lhs.sub(rhs).is_zero()
    nerve = m.nerve()
    vals = {s: Q.random_value(rng) for s in nerve.of_dimension(0)}
    page = augment_cech(m, Q, 0, vals)
    assert page.p == 0 and page.q == 0
    dh = cech_coboundary(page)
    target = {s: Q.zero() for s in nerve.of_dimension(1)}
    for s in nerve.of_dimension(1):
        target[s] = Q.sub(vals.get((s[1],), Q.zero()), vals.get((s[0],), Q.zero()))
    expected = augment_cech(m, Q, 1, target)
    assert dh.sub(expected).is_zero()


def test_augmented_page_vanishes_under_vertical_differential():
    rng = random.Random(27)
    m = load_bundled_model("hexagon")
    vals = {s: Q.random_value(rng) for s in m.nerve().of_dimension(0)}
    page = augment_cech(m, Q, 0, vals)
    assert page_vertical_differential(page).is_zero()


def enumerated_random_page(model, system, p, q, rng, entries=5):
    """The random page drawn by enumerating each intersection power and
    decoding the drawn tuple from it."""
    simplices = model.nerve(p).of_dimension(p)
    components = {}
    if not simplices:
        return CechPage(model, system, p, q, {})
    for _ in range(entries):
        idx = simplices[rng.randrange(len(simplices))]
        power = model.intersection_power(idx, q + 1)
        if len(power) == 0:
            continue
        t = power.at(rng.randrange(len(power)))
        components.setdefault(idx, {})[t] = system.random_value(rng)
    return CechPage(model, system, p, q, components)


@pytest.mark.parametrize("name", bundled_model_names())
def test_random_page_draws_the_enumerated_pages(name):
    # the drawn index decoded in base |U_σ| is the tuple the enumeration holds
    # there, and the generator is left in the same state
    model = load_bundled_model(name)
    for p in range(3):
        for q in range(3):
            for seed in range(4):
                ours, theirs = random.Random(seed), random.Random(seed)
                page = random_page(model, Q, p, q, ours, entries=7)
                assert page.components == enumerated_random_page(
                    model, Q, p, q, theirs, entries=7).components, (p, q, seed)
                assert ours.random() == theirs.random()
