from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locco import (DomainError, LoopContraction, SampledPath, edge_fill,
                   linear_combination, linear_contraction, path_battery,
                   path_from_function, path_group_contraction,
                   path_loop_contraction, sigma_fill, vector_battery)
from locco import loopfill
from locco.loopfill import BRANCH_EPS, CheckReport, check_barycentric


# ---------------------------------------------------------------------------
# oracles: the per-trial recursion and batteries the batched code replaced


def oracle_sigma_fill(contraction, vertices, weights):
    """One cone at a time, recursing on the renormalised tail."""
    def rec(vs, ws):
        if len(vs) == 1:
            return vs[0]
        t0 = ws[0]
        if t0 > 1.0 - BRANCH_EPS:
            return vs[0]
        rest = [w / (1.0 - t0) for w in ws[1:]]
        w = rec(vs[1:], rest)
        return vs[0] + np.asarray(contraction(w - vs[0], t0))

    return rec([np.asarray(v, dtype=float) for v in vertices],
               [float(w) for w in weights])


def random_barycentric(rng, count):
    raw = -np.log(rng.uniform(1e-12, 1.0, size=count))
    raw = raw / raw.sum()
    return [float(x) for x in raw]


def _oracle_dist(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _oracle_checks(contraction, make_vertex, pool, n_max, rng, trials, tol,
                   linear_dim=None):
    dev = 0.0
    for _ in range(50):
        v = pool[rng.integers(len(pool))]
        w = pool[rng.integers(len(pool))]
        t = float(rng.uniform(0.0, 1.0))
        dev = max(dev, _oracle_dist(contraction(v, 0.0), v))
        dev = max(dev, float(np.max(np.abs(contraction(v, 1.0)))))
        dev = max(dev, _oracle_dist(contraction(v + w, t),
                                    np.asarray(contraction(v, t)) + np.asarray(contraction(w, t))))
    out = [CheckReport("contraction-axioms", 150, dev, tol, dev <= tol)]
    fill = lambda vs, ws: oracle_sigma_fill(contraction, vs, ws)
    for n in range(1, n_max + 1):
        dev = 0.0
        for _ in range(trials):
            vs = [make_vertex(rng) for _ in range(n + 1)]
            i = int(rng.integers(n + 1))
            e_i = [0.0] * (n + 1)
            e_i[i] = 1.0
            dev = max(dev, _oracle_dist(fill(vs, e_i), vs[i]))
        out.append(CheckReport(f"vertex-property-n{n}", trials, dev, tol, dev <= tol))
        dev = 0.0
        for _ in range(trials):
            vs = [make_vertex(rng) for _ in range(n + 2)]
            ws = random_barycentric(rng, n + 1)
            i = int(rng.integers(n + 2))
            dev = max(dev, _oracle_dist(fill(vs[:i] + vs[i + 1:], ws),
                                        fill(vs, ws[:i] + [0.0] + ws[i:])))
        out.append(CheckReport(f"face-compatibility-n{n}", trials, dev, tol, dev <= tol))
        dev = 0.0
        for _ in range(trials):
            vs = [make_vertex(rng) for _ in range(n + 1)]
            us = [make_vertex(rng) for _ in range(n + 1)]
            ws = random_barycentric(rng, n + 1)
            lhs = fill([v + u for v, u in zip(vs, us)], ws)
            dev = max(dev, _oracle_dist(lhs, fill(vs, ws) + fill(us, ws)))
        out.append(CheckReport(f"additivity-n{n}", trials, dev, tol, dev <= tol))
        dev = 0.0
        for _ in range(trials):
            v = make_vertex(rng)
            ws = random_barycentric(rng, n + 1)
            dev = max(dev, _oracle_dist(fill([v] * (n + 1), ws), v))
        out.append(CheckReport(f"diagonal-constancy-n{n}", trials, dev, tol, dev <= tol))
        if linear_dim is None:
            continue
        dev = 0.0
        for _ in range(trials):
            vs = [rng.uniform(-1.0, 1.0, size=linear_dim) for _ in range(n + 1)]
            ws = random_barycentric(rng, n + 1)
            acc = np.zeros_like(vs[0])
            for v, w in zip(vs, ws):
                acc = acc + w * v
            dev = max(dev, _oracle_dist(fill(vs, ws), acc))
        out.append(CheckReport(f"linear-oracle-n{n}", trials, dev, tol, dev <= tol))
    return out


def oracle_vector_battery(dim, n_max, seed, trials, tol=1e-12):
    rng = np.random.default_rng(seed)
    pool = [rng.uniform(-1.0, 1.0, size=dim) for _ in range(8)]
    return _oracle_checks(linear_contraction(), lambda r: r.uniform(-1.0, 1.0, size=dim),
                          pool, n_max, rng, trials, tol, linear_dim=dim)


def oracle_path_values(rng, samples):
    grid = np.linspace(0.0, 1.0, samples)
    coeffs = rng.uniform(-1.0, 1.0, size=3)
    out = np.zeros_like(grid)
    for k, c in enumerate(coeffs, start=1):
        out = out + c * np.sin(0.5 * np.pi * k * grid)
    return out


def oracle_path_contraction(samples):
    grid = np.linspace(0.0, 1.0, samples)
    return LoopContraction("path-group", lambda v, s: np.interp((1.0 - s) * grid, grid, v))


def oracle_path_battery(n_max, seed, samples, trials, tol=1e-9):
    rng = np.random.default_rng(seed)
    pool = [oracle_path_values(rng, samples) for _ in range(6)]
    return _oracle_checks(oracle_path_contraction(samples),
                          lambda r: oracle_path_values(r, samples),
                          pool, n_max, rng, trials, tol)


def _bits(a):
    a = np.ascontiguousarray(a, dtype=float)
    return a.shape, a.tobytes()


def test_linear_contraction_endpoints():
    phi = linear_contraction()
    v = np.array([2.0, -1.0])
    assert np.allclose(phi(v, 0.0), v)
    assert np.allclose(phi(v, 1.0), 0.0)
    assert np.allclose(phi(v, 0.25), 0.75 * v)


def test_edge_fill_midpoint():
    got = edge_fill(linear_contraction(), (1.0, 0.0), (0.0, 1.0), 0.5)
    assert np.allclose(got, (0.5, 0.5))
    assert np.allclose(edge_fill(linear_contraction(), (1.0, 0.0), (0.0, 1.0), 1.0),
                       (1.0, 0.0))
    assert np.allclose(edge_fill(linear_contraction(), (1.0, 0.0), (0.0, 1.0), 0.0),
                       (0.0, 1.0))


def test_sigma_fill_barycenter():
    got = sigma_fill(linear_contraction(), [(1, 0), (0, 1), (0, 0)],
                     [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(got, (1 / 3, 1 / 3), atol=1e-12)


def test_sigma_fill_matches_linear_combination():
    rng = np.random.default_rng(0)
    phi = linear_contraction()
    for n in range(1, 5):
        for _ in range(50):
            vs = [rng.uniform(-1, 1, size=3) for _ in range(n + 1)]
            ws = random_barycentric(rng, n + 1)
            got = sigma_fill(phi, vs, ws)
            want = linear_combination(vs, ws)
            assert np.max(np.abs(got - want)) < 1e-12


def test_sigma_fill_weight_one_branch():
    phi = linear_contraction()
    vs = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    assert np.allclose(sigma_fill(phi, vs, [1.0, 0.0, 0.0]), vs[0])
    assert np.allclose(sigma_fill(phi, vs, [0.0, 1.0, 0.0]), vs[1])
    near_one = 1.0 - 1e-14
    assert np.allclose(sigma_fill(phi, vs, [near_one, 1.0 - near_one, 0.0]), vs[0])


def test_barycentric_validation():
    with pytest.raises(DomainError):
        check_barycentric([])
    with pytest.raises(DomainError):
        check_barycentric([0.5, 0.6])
    with pytest.raises(DomainError):
        check_barycentric([-0.2, 1.2])
    with pytest.raises(DomainError):
        sigma_fill(linear_contraction(), [(1.0,)], [0.5, 0.5])


def test_vector_battery_passes():
    for dim in (1, 2, 3):
        reports = vector_battery(dim, 4, seed=dim, trials=60)
        assert all(r.passed for r in reports)
        assert max(r.max_deviation for r in reports) < 1e-12


def test_sampled_path_validation():
    with pytest.raises(DomainError):
        SampledPath(np.array([1.0, 0.0]))
    path = SampledPath(np.array([0.0, 0.5, 1.0]))
    assert path.samples == 3
    assert np.allclose(path.at(0.25), 0.25)


def test_path_group_contraction_endpoints():
    path = path_from_function(lambda t: np.sin(np.pi * t / 2), samples=257)
    frozen = path_group_contraction(path, 0.0)
    assert np.allclose(frozen.values, path.values)
    killed = path_group_contraction(path, 1.0)
    assert np.allclose(killed.values, 0.0)
    half = path_group_contraction(path, 0.5)
    grid = path.grid()
    assert np.allclose(half.values, path.at(0.5 * grid))
    with pytest.raises(DomainError):
        path_group_contraction(path, 1.5)


def test_path_contraction_is_additive():
    rng = np.random.default_rng(7)
    phi = path_loop_contraction(129)
    a = rng.uniform(-1, 1, size=129)
    b = rng.uniform(-1, 1, size=129)
    a[0] = b[0] = 0.0
    lhs = phi(a + b, 0.37)
    rhs = np.asarray(phi(a, 0.37)) + np.asarray(phi(b, 0.37))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_path_battery_passes():
    reports = path_battery(3, seed=5, trials=15)
    assert all(r.passed for r in reports)
    assert max(r.max_deviation for r in reports) < 1e-9


# ---------------------------------------------------------------------------
# the batched filler against the recursion


def _weight_row(rng, k, kind):
    """Barycentric weights of one of several shapes that steer the recursion."""
    ws = -np.log(rng.uniform(1e-12, 1.0, size=k))
    if kind == "zeros":
        ws[rng.random(k) < 0.5] = 0.0
        if not ws.any():
            ws[rng.integers(k)] = 1.0
    ws = ws / ws.sum()
    if kind == "one":
        ws = np.zeros(k)
        ws[rng.integers(k)] = 1.0
    elif kind == "near-one" and k > 1:
        i = int(rng.integers(k - 1))
        ws = np.zeros(k)
        ws[i] = 1.0 - 1e-14
        ws[i + 1] = 1e-14
    return ws


CONTRACTIONS = {
    "linear": (linear_contraction(), ((), (1,), (3,), (2, 2))),
    # a product, not ``** 2``: on a Python float ``**`` runs through C pow,
    # which rounds differently from numpy squaring an array of times
    "user": (LoopContraction("quadratic", lambda v, t: (1.0 - t) * (1.0 - t) * v),
             ((), (2,), (2, 3))),
    "path": (path_loop_contraction(17), ((17,), (17, 2))),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONTRACTIONS)), st.integers(0, 7), st.integers(1, 6),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(name="user", trials=7, k=5, shape_pick=1, seed=2757125)
def test_batched_filler_equals_recursion_bit_for_bit(name, trials, k, shape_pick, seed):
    contraction, shapes = CONTRACTIONS[name]
    carrier = shapes[shape_pick % len(shapes)]
    rng = np.random.default_rng(seed)
    vertices = rng.uniform(-2.0, 2.0, size=(trials, k) + carrier)
    kinds = ("random", "zeros", "one", "near-one")
    weights = np.array([_weight_row(rng, k, kinds[rng.integers(4)]) for _ in range(trials)])
    weights = weights.reshape(trials, k)
    got = loopfill._fill_rows(contraction, vertices, weights)
    assert got.shape == (trials,) + carrier
    for row in range(trials):
        want = oracle_sigma_fill(contraction, vertices[row], weights[row])
        assert _bits(got[row]) == _bits(want)
        assert _bits(sigma_fill(contraction, vertices[row], weights[row])) == _bits(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vector_battery_matches_oracle_battery(seed):
    for dim, n_max, trials in ((1, 4, 30), (3, 3, 45)):
        got = vector_battery(dim, n_max, seed, trials=trials)
        want = oracle_vector_battery(dim, n_max, seed, trials)
        assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_path_battery_matches_oracle_battery(seed):
    got = path_battery(3, seed, samples=33, trials=6)
    want = oracle_path_battery(3, seed, 33, 6)
    assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]


@pytest.mark.parametrize("cells", [1, 50])
def test_chunked_checks_give_the_same_reports(monkeypatch, cells):
    # 37 trials leave a partial last chunk at every chunk length above 1
    batteries = (lambda: vector_battery(2, 3, 4, trials=37),
                 lambda: path_battery(2, 4, samples=9, trials=37))
    whole = [[r.to_json_dict() for r in battery()] for battery in batteries]
    monkeypatch.setattr(loopfill, "_CHUNK_CELLS", cells)
    assert [[r.to_json_dict() for r in battery()] for battery in batteries] == whole


@pytest.mark.parametrize("check", [loopfill.check_additivity,
                                   loopfill.check_diagonal_constancy])
@pytest.mark.parametrize("carrier, contraction", [
    (loopfill._vector_carrier(3), linear_contraction()),
    (loopfill._path_carrier(17), path_loop_contraction(17)),
], ids=["vector", "path"])
def test_block_draws_read_the_per_trial_stream(monkeypatch, check, carrier, contraction):
    # a plain callable is drawn trial by trial; the carrier itself a chunk at a
    # time, here several chunks of a few trials each
    monkeypatch.setattr(loopfill, "_CHUNK_CELLS", 100)
    per_trial = np.random.default_rng(9)
    block = np.random.default_rng(9)
    want = check(contraction, lambda r, count: carrier(r, count), 2, per_trial, trials=23)
    got = check(contraction, carrier, 2, block, trials=23)
    assert got.to_json_dict() == want.to_json_dict()
    assert block.random() == per_trial.random()


def test_user_contraction_runs_on_a_batch():
    quadratic = LoopContraction("quadratic", lambda v, t: (1.0 - t) * (1.0 - t) * v)
    vs = np.arange(12.0).reshape(4, 3)
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    got = quadratic(vs, ts)
    for row in range(4):
        assert _bits(got[row]) == _bits(quadratic(vs[row], float(ts[row])))


def test_path_helpers_match_np_interp():
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, size=(9, 2))
    values[0] = 0.0
    path = SampledPath(values)
    grid = path.grid()
    ts = np.array([[0.0, 0.3], [0.71, 1.0]])
    want = np.stack([np.interp(ts, grid, values[:, k]) for k in range(2)], axis=-1)
    assert _bits(path.at(ts)) == _bits(want)
    phi = path_loop_contraction(9)
    want = np.stack([np.interp(0.6 * grid, grid, values[:, k]) for k in range(2)], axis=-1)
    assert _bits(phi(values, 0.4)) == _bits(want)
    assert _bits(phi(values[None], np.array([0.4]))[0]) == _bits(want)


def test_random_path_values_batch_matches_single_draws():
    many = loopfill.random_path_values(np.random.default_rng(5), 33, count=4)
    rng = np.random.default_rng(5)
    for row in many:
        assert _bits(row) == _bits(oracle_path_values(rng, 33))


def test_sigma_fill_rejects_unequal_vertex_shapes():
    with pytest.raises(DomainError, match="unequal shapes"):
        sigma_fill(linear_contraction(), [[0.0, 0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(DomainError):
        sigma_fill(linear_contraction(), [[0.0, np.inf], [1.0, 1.0]], [0.5, 0.5])
    with pytest.raises(DomainError, match="non-finite"):
        check_barycentric([float("nan"), 0.5])
    with pytest.raises(DomainError):
        check_barycentric(["a", 0.5])


@pytest.mark.parametrize("vertices, weights", [
    ([[1], [True]], [0.5, "0.5"]),
    ([[1], [True]], [0.5, 0.5]),
    ([[1, True], [1, 2]], [0.5, 0.5]),
    ([np.array([True]), [1]], [0.5, 0.5]),
    ([["0.5"], [1]], [0.5, 0.5]),
    ([[1], [2]], [0.5, "0.5"]),
    ([[1], [2]], [True, False]),
    ([[1], [2]], [np.bool_(True), 0.0]),
])
def test_library_filler_refuses_bools_and_strings(vertices, weights):
    # float() and numpy would read True as 1.0 and "0.5" as 0.5
    with pytest.raises(DomainError, match="must be numbers"):
        sigma_fill(linear_contraction(), vertices, weights)


def test_library_filler_takes_numeric_scalars_of_any_kind():
    vertices = [np.array([1.0, 2.0]), [np.int64(3), Fraction(4)]]
    value = sigma_fill(linear_contraction(), vertices, [Fraction(1, 4), np.float64(0.75)])
    assert np.allclose(value, [2.5, 3.5])
    with pytest.raises(DomainError, match="must be numbers"):
        check_barycentric([False, 1.0])


@pytest.mark.parametrize("call", [
    lambda: vector_battery(0, 2, 0),
    lambda: vector_battery(2, 0, 0),
    lambda: vector_battery(2, 2, 0, trials=0),
    lambda: vector_battery(2, 2, 0, tol=float("nan")),
    lambda: vector_battery(2, 2, 0, tol=-1.0),
    lambda: path_battery(2, 0, samples=1),
    lambda: path_battery(-1, 0),
])
def test_batteries_refuse_vacuous_arguments(call):
    with pytest.raises(DomainError):
        call()


def test_nan_deviation_fails_the_check():
    broken = LoopContraction("broken", lambda v, t: np.full(np.broadcast_shapes(
        np.shape(v), np.shape(t)), np.nan))
    draw = lambda r, count: r.uniform(-1.0, 1.0, size=(count, 2))
    report = loopfill.check_additivity(broken, draw, 2, np.random.default_rng(0), trials=5)
    assert not report.passed
    assert np.isnan(report.max_deviation)
