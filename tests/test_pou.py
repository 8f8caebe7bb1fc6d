import json
import math
import tracemalloc

import numpy as np
import pytest

from locco import (DomainError, SupportError, UncoveredSampleError, arc,
                   bump, circle_domain, group_tuple_domain, layered_family,
                   left_invariant_cover, numerability_rescue, plateau_family,
                   plateau_partition, product_family, refines_supports,
                   rescue_partition, shrunken_tuples)
from locco.pou import (SampledDomain, ScalarFamily, arc_cover_family, ball_family,
                       power_domain)


# ---------------------------------------------------------------------------
# oracles: the per-row loops the in-place constructions replaced


def oracle_strided(indices, limit):
    if indices.size <= limit:
        return indices
    return indices[::-(-indices.size // limit)]


def oracle_normalized(domain, labels, rows, sups, name):
    vals = np.asarray(rows)
    return ScalarFamily(domain=domain, labels=labels, values=vals / vals.sum(axis=0),
                        supports=np.asarray(sups), unity=True, name=name)


def oracle_arc_cover_family(domain, k):
    hw = 1.0 / k
    rows, sups = [], []
    for j in range(k):
        d = np.asarray(domain.metric(float(j) / k, domain.coords), dtype=float)
        rows.append(np.maximum(0.0, 1.0 - d / hw))
        sups.append(d < hw)
    return oracle_normalized(domain, tuple(range(k)), rows, sups, f"arcs{k}")


def oracle_ball_family(domain, eps, max_centers=256):
    centers = oracle_strided(np.arange(domain.size), max_centers)
    rows, sups = [], []
    for c in centers:
        d = domain.distances_from(int(c))
        rows.append(np.maximum(0.0, 1.0 - d / eps))
        sups.append(d < eps)
    return oracle_normalized(domain, tuple(int(c) for c in centers), rows, sups,
                             f"balls-eps{eps}")


def oracle_product_family(base, q, max_tuples_per_index=10000):
    per_axis = max(1, int(max_tuples_per_index ** (1.0 / (q + 1))))
    chosen, seen = [], set()
    for row in range(base.index_count):
        picks = oracle_strided(np.flatnonzero(base.supports[row]), per_axis)
        stack = [()]
        for _ in range(q + 1):
            stack = [t + (int(p),) for t in stack for p in picks]
        for t in stack:
            if t not in seen:
                seen.add(t)
                chosen.append(t)
    domain = SampledDomain(points=tuple(chosen), name=f"{base.domain.name}^({q + 1})")
    cols = np.asarray(chosen, dtype=int)
    rows, sups = [], []
    for row in range(base.index_count):
        rows.append(np.abs(base.values[row][cols]).prod(axis=1))
        sups.append(base.supports[row][cols].all(axis=1))
    return oracle_normalized(domain, base.labels, rows, sups, f"{base.name}-power{q}")


def oracle_report(fam):
    sums = fam.values.sum(axis=0)
    return {
        "name": fam.name,
        "domain": fam.domain.name,
        "indices": len(fam.labels),
        "samples": len(fam.domain.points),
        "unity": bool(fam.unity),
        "max_sum_deviation": float(np.max(np.abs(sums - 1.0))),
        "max_active_count": int((fam.values != 0.0).sum(axis=0).max()),
        "uncovered_samples": int((sums == 0.0).sum()),
    }


def assert_bit_equal(got, want):
    assert got.labels == want.labels
    assert got.name == want.name and got.unity == want.unity
    assert got.domain.name == want.domain.name
    assert got.domain.points == want.domain.points
    assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(got.supports, want.supports)
    assert json.dumps(got.report(), sort_keys=True) == json.dumps(oracle_report(want), sort_keys=True)


def test_bump_frozen_values():
    assert abs(bump(1.0) - math.exp(-1)) < 1e-15
    assert abs(bump(0.5) - math.exp(-2)) < 1e-15
    assert bump(0.0) == 0.0
    assert bump(-2.0) == 0.0
    assert bump(1e-301) == 0.0
    arr = bump(np.array([1.0, -1.0, 0.5]))
    assert arr[1] == 0.0 and abs(arr[0] - math.exp(-1)) < 1e-15


def test_circle_domain_metric():
    dom = circle_domain(1000)
    rng = np.random.default_rng(0)
    assert dom.check_pseudometric(rng)
    assert float(dom.metric(0.1, 0.9)) == pytest.approx(0.2)
    with pytest.raises(DomainError):
        circle_domain(1)


def test_arc_cover_family_is_unity():
    dom = circle_domain(999)
    fam = arc_cover_family(dom, 3)
    assert fam.max_sum_deviation() <= 1e-12
    assert fam.max_active_count() == 2
    assert fam.index_count == 3


def test_scalar_family_support_soundness():
    dom = circle_domain(10)
    vals = np.ones((1, 10))
    sups = np.zeros((1, 10), dtype=bool)
    with pytest.raises(SupportError):
        ScalarFamily(domain=dom, labels=(0,), values=vals, supports=sups)


def test_layered_family_frozen_value():
    dom = circle_domain(4)
    vals = np.full((1, 4), 0.6)
    base = ScalarFamily(domain=dom, labels=(0,), values=vals,
                        supports=np.ones((1, 4), dtype=bool), name="const")
    with pytest.raises(DomainError):
        layered_family(base, 0)
    # rescale into a partition by adding the complement index
    both = ScalarFamily(domain=dom, labels=(0, 1),
                        values=np.vstack([vals, 1.0 - vals]),
                        supports=np.ones((2, 4), dtype=bool), name="pair")
    layer1 = layered_family(both, 1)
    assert layer1.values[0, 0] == pytest.approx(math.exp(-1 / 0.11), rel=1e-12)
    # |phi| <= 1/(n+1) flushes to zero
    layer0 = layered_family(both, 0)
    assert np.all(layer0.values[0] == 0.0)


def test_layered_supports_grow_with_level():
    dom = circle_domain(2000)
    base = arc_cover_family(dom, 3)
    previous = None
    for n in range(6):
        layer = layered_family(base, n)
        cozero = layer.values > 0
        if previous is not None:
            assert np.all(previous <= cozero)
        previous = cozero
    assert np.all(cozero <= base.supports)


def test_rescue_single_index_cover():
    dom = circle_domain(50)
    base = ScalarFamily(domain=dom, labels=("only",),
                        values=np.ones((1, 50)),
                        supports=np.ones((1, 50), dtype=bool), name="one")
    resc = rescue_partition(base, n_max=2)
    assert resc.max_sum_deviation() == 0.0
    sums_at = resc.values.sum(axis=0)
    assert np.allclose(sums_at, 1.0)


def test_rescue_two_arc_circle_unity():
    dom = circle_domain(2000)
    base = arc_cover_family(dom, 3)
    resc = rescue_partition(base, n_max=8)
    assert resc.max_sum_deviation() <= 1e-9
    assert int((resc.sums() == 0).sum()) == 0
    assert refines_supports(resc, base)
    assert resc.max_active_count() <= 6


def test_rescue_truncation_reports_uncovered():
    dom = circle_domain(400)
    base = arc_cover_family(dom, 3)
    # level 0 alone only covers samples where some phi exceeds 1; tents never do
    layers = [layered_family(base, 0)]
    with pytest.raises(UncoveredSampleError):
        numerability_rescue(layers)


def test_rescue_crossing_sample_splits_evenly():
    dom = circle_domain(10000)
    base = arc_cover_family(dom, 3)
    resc = rescue_partition(base, n_max=8)
    i = dom.points.index(0.5)
    col = resc.values[:, i]
    nz = np.flatnonzero(col)
    assert len(nz) == 2
    assert np.allclose(col[nz], 0.5)
    assert {resc.labels[k][0] for k in nz} == {1, 2}


def test_product_family_frozen_overlap():
    dom = circle_domain(8)
    half = np.full((1, 8), 0.5)
    base = ScalarFamily(domain=dom, labels=(0, 1),
                        values=np.vstack([half, half]),
                        supports=np.ones((2, 8), dtype=bool), name="half")
    fam = product_family(base, 1, max_tuples_per_index=64)
    raw_each = 0.25
    assert np.allclose(fam.values, raw_each / (2 * raw_each))
    assert fam.max_sum_deviation() <= 1e-12


def test_product_family_single_support_tuple():
    dom = circle_domain(6)
    vals = np.zeros((2, 6))
    vals[0, :3] = 0.7
    vals[1, 2:] = 1.0
    vals[1, 2] = 0.3
    sups = vals > 0
    base = ScalarFamily(domain=dom, labels=(0, 1), values=vals, supports=sups,
                        name="split")
    fam = product_family(base, 1, max_tuples_per_index=64)
    only = fam.domain.points.index((0, 1))
    col = fam.values[:, only]
    assert col[0] == pytest.approx(1.0) and col[1] == 0.0


def test_product_family_q0_recovers_base():
    dom = circle_domain(100)
    base = arc_cover_family(dom, 3)
    fam = product_family(base, 0, max_tuples_per_index=1000)
    cols = [t[0] for t in fam.domain.points]
    assert np.allclose(fam.values, base.values[:, cols] / base.values[:, cols].sum(axis=0))


def test_ball_family_tents():
    dom = circle_domain(500)
    fam = ball_family(dom, 0.25, max_centers=40)
    assert fam.max_sum_deviation() <= 1e-12
    with pytest.raises(DomainError):
        ball_family(dom, 0.0)
    # cozero sets are the sampled balls
    first = fam.labels[0]
    d = dom.distances_from(first)
    assert np.all((fam.values[0] > 0) == (d < 0.25))


def test_plateau_family_sums():
    fam = plateau_family(12, 3, 1, 1)
    vt = set(shrunken_tuples(12, 1, 1))
    sums = fam.sums()
    for col, t in enumerate(fam.domain.points):
        if t in vt:
            assert sums[col] == 1.0
        in_u = any(all(x in arc(12, 3, g) for x in t) for g in range(12))
        if not in_u:
            assert sums[col] == 0.0
    outside = [sums[c] for c, t in enumerate(fam.domain.points) if t not in vt]
    assert any(v == 0.0 for v in outside)


def test_plateau_family_diagonal_radius_zero():
    fam = plateau_family(12, 3, 0, 1)
    sums = fam.sums()
    for col, t in enumerate(fam.domain.points):
        if t[0] == t[1]:
            assert sums[col] == 1.0
    off = [sums[c] for c, t in enumerate(fam.domain.points)
           if t[0] != t[1] and all(x in arc(12, 3, t[0]) for x in t)]
    assert off and all(v == 0.0 for v in off)


def test_plateau_shrink_gate():
    with pytest.raises(DomainError):
        plateau_family(12, 1, 1, 1)


def test_plateau_partition_matches_family():
    model = left_invariant_cover(12, 3)
    part = plateau_partition(model, 3, 1, 1)
    fam = plateau_family(12, 3, 1, 1)
    for col, t in enumerate(fam.domain.points):
        for g in range(12):
            assert (part.weights.get(g, {}).get(t, 0) != 0) == (fam.values[g, col] != 0.0)
    with pytest.raises(DomainError):
        plateau_partition(left_invariant_cover(12, 2), 3, 1, 1)


def test_group_tuple_domain_size():
    dom = group_tuple_domain(5, 1)
    assert dom.size == 25
    assert dom.points[0] == (0, 0)


@pytest.mark.parametrize("size, k", [(50, 7), (999, 3), (10000, 3)])
def test_arc_cover_family_matches_oracle(size, k):
    dom = circle_domain(size)
    assert_bit_equal(arc_cover_family(dom, k), oracle_arc_cover_family(dom, k))


# 500 samples: strided at 40 and 256 centers (an exact and an inexact stride),
# unstrided at 500 and 1000; then the benchmark's size with the default 256
@pytest.mark.parametrize("size, eps, max_centers", [
    (500, 0.25, 40), (500, 0.1, 256), (500, 0.25, 500), (500, 0.6, 1000),
    (500, 0.05, 500), (10000, 0.25, 256),
])
def test_ball_family_matches_oracle(size, eps, max_centers):
    dom = circle_domain(size)
    assert_bit_equal(ball_family(dom, eps, max_centers=max_centers),
                     oracle_ball_family(dom, eps, max_centers=max_centers))


# each arc of circle(120) holds 80 samples and each of circle(40) 26, so the
# per-axis limit strides the supports or takes them whole
@pytest.mark.parametrize("size, k, q, max_tuples", [
    (120, 3, 0, 10000), (120, 3, 0, 30),
    (120, 3, 1, 10000), (120, 3, 1, 400),
    (120, 5, 2, 10000), (40, 3, 2, 10 ** 6),
])
def test_product_family_matches_oracle(size, k, q, max_tuples):
    base = arc_cover_family(circle_domain(size), k)
    assert_bit_equal(product_family(base, q, max_tuples_per_index=max_tuples),
                     oracle_product_family(base, q, max_tuples_per_index=max_tuples))


def test_product_family_on_balls_matches_oracle():
    # many overlapping supports, so most tuples repeat across indices
    base = ball_family(circle_domain(200), 0.2, max_centers=25)
    assert_bit_equal(product_family(base, 1, max_tuples_per_index=100),
                     oracle_product_family(base, 1, max_tuples_per_index=100))


def test_ball_family_holds_no_second_copy():
    dom = circle_domain(4000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fam = ball_family(dom, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (fam.values.nbytes + fam.supports.nbytes)


@pytest.mark.parametrize("call", [
    lambda dom, base: ball_family(dom, 0.25, max_centers=0),
    lambda dom, base: ball_family(dom, 0.25, max_centers=-4),
    lambda dom, base: product_family(base, 1, max_tuples_per_index=0),
    lambda dom, base: product_family(base, 1, max_tuples_per_index=-4),
], ids=["centers-0", "centers-negative", "tuples-0", "tuples-negative"])
def test_family_limits_below_one_are_refused(call):
    dom = circle_domain(100)
    with pytest.raises(DomainError):
        call(dom, arc_cover_family(dom, 3))


def test_power_domain_makes_points_when_read():
    base = arc_cover_family(circle_domain(30), 3)
    fam = product_family(base, 1)
    fam.report()
    assert "points" not in vars(fam.domain)
    assert fam.domain.size == len(fam.domain.tuples)
    points = fam.domain.points
    assert points[0] == tuple(int(k) for k in fam.domain.tuples[0])
    assert all(type(k) is int for t in points for k in t)
    assert fam.domain.points is points
    with pytest.raises(ValueError):
        fam.domain.tuples[0, 0] = 1


@pytest.mark.parametrize("tuples", [[], [(0, 1), (2,)], [0, 1]],
                         ids=["empty", "ragged", "not-tuples"])
def test_power_domain_refuses_bad_tuples(tuples):
    with pytest.raises(DomainError):
        power_domain(circle_domain(5), tuples)
