import json
import random
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locco import (AcyclicityError, AcyclicityStatus, CoverModel, Integers,
                   ModelError, PrimeField, Rationals, SimplicialComplexSpec,
                   cohomology_profile, colimit_scan, is_acyclic,
                   left_invariant_cover, model_hash, random_cover_model,
                   verify_lambda_iso, verify_local_vs_cech)
from locco import compare
from locco.cli import bundled_model_names, load_bundled_model, run

Q = Rationals()


def test_bundled_profiles_agree():
    expected = {
        "interval": [1, 0],
        "hexagon": [1, 1],
        "z6_arcs": [1, 1],
        "triangle": [1, 0],
    }
    for name, profile in expected.items():
        m = load_bundled_model(name)
        rep = verify_local_vs_cech(m, Q, 1, spot_checks=False)
        assert rep.isomorphic
        assert rep.profiles["local"] == profile
        assert rep.profiles["cech"] == profile
        assert rep.profiles["total"] == profile


def test_contraction_spot_checks_run():
    m = load_bundled_model("hexagon")
    rep = verify_local_vs_cech(m, Q, 1, spot_checks=True, seed=1)
    checks = rep.extras["contraction_checks"]
    assert checks and all(checks.values())


def test_simplicial_profile_matches_on_good_cover():
    m = load_bundled_model("hexagon")
    rep = verify_local_vs_cech(m, Q, 1, spot_checks=False)
    assert rep.profiles["simplicial"] == [1, 1]
    assert all(rep.extras["simplicial_matches"])


def test_is_acyclic_statuses():
    m = load_bundled_model("hexagon")
    one_arc = is_acyclic(m, (0,), Q)
    assert one_arc and not one_arc.empty
    pairwise = is_acyclic(m, (0, 1), Q)
    assert pairwise and pairwise.profile == (1,)
    empty = is_acyclic(m, (0, 1, 2), Q)
    assert empty and empty.empty and empty.profile is None

    whole = CoverModel(points=tuple(range(6)),
                       cover=(frozenset(range(6)),),
                       cover_names=("all",),
                       complex=m.complex, name="whole-cycle")
    status = is_acyclic(whole, (0,), Q)
    assert not status and status.profile == (1, 1)


def oracle_is_acyclic(model, indices, system):
    """The gate one intersection at a time: a fresh spec and profile each."""
    if model.complex is None:
        raise ModelError("acyclicity needs a model with a complex")
    idx = tuple(indices)
    pts = model.intersection(idx)
    if not pts:
        return AcyclicityStatus(indices=idx, empty=True, acyclic=True)
    simps = list(model.full_subcomplex(pts))
    have = {s[0] for s in simps if len(s) == 1}
    for p in pts:
        if p not in have:
            simps.append((p,))
    spec = SimplicialComplexSpec(simps, model.point_key)
    top = max(len(s) for s in simps) - 1
    profile = cohomology_profile(spec, system, top)
    if system.is_field:
        point = profile[0] == 1 and all(h == 0 for h in profile[1:])
    else:
        point = (profile[0] == (1, ()) and
                 all(h == (0, ()) for h in profile[1:]))
    return AcyclicityStatus(indices=idx, empty=False, acyclic=point,
                            profile=tuple(profile))


GATE_SYSTEMS = (Q, PrimeField(2), PrimeField(5), Integers())


def gate_statuses(model, gate):
    """Statuses of the nerve simplices in nerve order, then of the index
    pairs with an empty intersection."""
    nerve = model.nerve().simplices
    empty = [idx for idx in combinations(range(len(model.cover)), 2) if idx not in nerve]
    return {system.name: [gate(model, idx, system) for idx in nerve + tuple(empty)]
            for system in GATE_SYSTEMS}


def random_complex_model(seed):
    """A random cover model with a random face-closed complex on its points,
    which may leave some points out of every simplex."""
    rng = random.Random(seed)
    base = random_cover_model(rng, max_points=7, max_sets=4, max_set_size=5)
    faces = set()
    for _ in range(rng.randrange(0, 9)):
        top = tuple(sorted(rng.sample(base.points, rng.randrange(1, min(4, len(base.points)) + 1))))
        faces.update(sub for size in range(1, len(top) + 1) for sub in combinations(top, size))
    return CoverModel(points=base.points, cover=base.cover, cover_names=base.cover_names,
                      complex=tuple(sorted(faces, key=lambda s: (len(s), s))) or None,
                      name=f"random-complex-{seed}")


@st.composite
def complex_models(draw):
    kind = draw(st.sampled_from(("bundled", "cyclic", "random")))
    if kind == "bundled":
        return load_bundled_model(draw(st.sampled_from(bundled_model_names())))
    if kind == "cyclic":
        m = draw(st.integers(7, 13))
        return left_invariant_cover(m, draw(st.integers(1, 2)))
    return random_complex_model(draw(st.integers(0, 10 ** 6)))


def shared_batch_model():
    """An acyclic arc, the circle-shaped whole hexagon and two disconnected
    intersections share one batch.  Point 6 lies in no simplex, so the
    intersection {0, 6} is acyclic only if the vertex fill is dropped."""
    hexagon = load_bundled_model("hexagon")
    cover = (frozenset(range(6)), frozenset({0, 1, 2}), frozenset({3, 5}), frozenset({0, 6}))
    return CoverModel(points=tuple(range(7)), cover=cover,
                      cover_names=("whole", "arc", "gap", "stray"),
                      complex=hexagon.complex, name="shared-batch")


def test_shared_batch_keeps_each_intersection_apart():
    model = shared_batch_model()
    expected = {(0,): (False, (1, 1)), (1,): (True, (1, 0)), (2,): (False, (2,)),
                (3,): (False, (2,)), (0, 1): (True, (1, 0)), (0, 2): (False, (2,)),
                (0, 3): (True, (1,)), (1, 3): (True, (1,)), (0, 1, 3): (True, (1,))}
    for system in GATE_SYSTEMS:
        statuses = [is_acyclic(model, s, system) for s in model.nerve().simplices]
        assert statuses == [oracle_is_acyclic(model, s, system) for s in model.nerve().simplices]
        if system.is_field:
            assert {s.indices: (bool(s), s.profile) for s in statuses} == expected
    assert is_acyclic(model, (1, 2), Q).empty


@settings(max_examples=40, deadline=None)
@given(complex_models())
@example(shared_batch_model())
@example(load_bundled_model("projective_plane"))
def test_batched_gate_matches_the_per_intersection_oracle(model):
    if model.complex is None:
        with pytest.raises(ModelError):
            is_acyclic(model, (0,), Q)
        return
    assert gate_statuses(model, is_acyclic) == gate_statuses(model, oracle_is_acyclic)


def nerve_intersections(model):
    """How many nerve simplices have each intersection, listed simplex by simplex."""
    counts = {}
    for simplex in model.nerve().simplices:
        pts = model.intersection(simplex)
        counts[pts] = counts.get(pts, 0) + 1
    return counts


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(-1)
def test_gate_on_distinct_intersections_matches_the_nerve(seed):
    # seed -1 stands for every bundled model
    models = ([load_bundled_model(name) for name in bundled_model_names()] if seed < 0
              else [random_complex_model(seed), random_cover_model(random.Random(seed))])
    for model in models:
        closure = model.intersection_closure()
        assert {model.intersection(h): n for h, n in closure.items()} == nerve_intersections(model)
        for holders in closure:   # every cover set that holds the intersection
            pts = set(model.intersection(holders))
            assert holders == tuple(i for i, u in enumerate(model.cover) if pts <= u)
        assert sum(closure.values()) == len(model.nerve())
        if model.complex is None:
            continue
        for system in GATE_SYSTEMS:
            for simplex in model.nerve().simplices:
                assert is_acyclic(model, simplex, system) == oracle_is_acyclic(model, simplex, system)
        if all(is_acyclic(model, simplex, Q) for simplex in model.nerve().simplices):
            extras = verify_lambda_iso(model, Q, 1).extras
            assert extras["acyclic_intersections"] == len(model.nerve())
            assert extras["empty_intersections"] == 0


def test_gate_is_one_batch_per_model_and_system(monkeypatch):
    batches = []
    profiles = compare.block_profiles

    def counted(spec, system, tops):
        batches.append((system.name, len(tops)))
        return profiles(spec, system, tops)

    monkeypatch.setattr(compare, "block_profiles", counted)
    model = left_invariant_cover(12, 2)
    for system in (Q, PrimeField(5), Q):
        for simplex in model.nerve().simplices:
            is_acyclic(model, simplex, system)
    # 192 nerve simplices, but only 60 distinct intersections
    assert len(model.nerve()) == 192
    assert batches == [("Q", 60), ("Zp:5", 60)]


def test_lambda_iso_on_good_covers():
    hexa = load_bundled_model("hexagon")
    rep = verify_lambda_iso(hexa, Q, 1)
    assert rep.isomorphic
    assert rep.induced_ranks == (1, 1)
    assert rep.extras["chain_map_exact"]
    interval = load_bundled_model("interval")
    rep0 = verify_lambda_iso(interval, Q, 1)
    assert rep0.isomorphic and rep0.induced_ranks == (1, 0)


def test_lambda_iso_detects_a_broken_chain_map(monkeypatch):
    # one sign flipped in the simplicial coboundary into degree 1 (the
    # hexagon has no triangles, so it is the only nonzero one) breaks
    # d_simp λ = λ d_local
    assemble = compare.assemble_matrix

    def tampered(spec, n):
        mat = assemble(spec, n)
        if isinstance(spec, SimplicialComplexSpec) and n == 0:
            r, c, v = mat.entries
            v = v.copy()
            v[0] = -v[0]
            mat = replace(mat, entries=(r, c, v))
        return mat

    monkeypatch.setattr(compare, "assemble_matrix", tampered)
    rep = verify_lambda_iso(load_bundled_model("hexagon"), Q, 1)
    assert rep.extras["chain_map_exact"] is False
    assert rep.isomorphic is False


def lambda_iso_with(monkeypatch, change):
    """verify_lambda_iso on the hexagon over Q, h = (1, 1), with the degree-1
    representatives replaced by ``change(reps, d_1, d_0)``."""
    kernel, below = compare.kernel_basis, []

    def tampered(mat, *args, **kwargs):
        reps = kernel(mat, *args, **kwargs)
        if below:
            reps = change(reps, mat, below[-1])
        below.append(mat)
        return reps

    monkeypatch.setattr(compare, "kernel_basis", tampered)
    return verify_lambda_iso(load_bundled_model("hexagon"), Q, 1)


def test_lambda_iso_refuses_a_representative_that_is_not_a_cocycle(monkeypatch):
    # (x, x) is no simplex, so λ does not read it and the images are as
    # before, but d_1 takes it to (x, x, x) with 1 - 1 + 1 = 1
    def off_cocycle(reps, mat, below):
        k = mat.col_labels.index((mat.col_labels[0][0],) * 2)
        return [{**reps[0], k: reps[0].get(k, 0) + 1}] + reps[1:]

    rep = lambda_iso_with(monkeypatch, off_cocycle)
    assert rep.induced_ranks == (1, 1)
    assert rep.matches == (True, False) and rep.isomorphic is False


def test_lambda_iso_refuses_one_representative_too_few(monkeypatch):
    rep = lambda_iso_with(monkeypatch, lambda reps, mat, below: reps[:-1])
    assert rep.induced_ranks == (1, 0)
    assert rep.matches == (True, False) and rep.isomorphic is False


def test_lambda_iso_refuses_a_boundary_as_representative(monkeypatch):
    # a column of d_0 is a coboundary: a cocycle, but zero in H^1
    def boundary(reps, mat, below):
        return [next(col for col in below.columns if col)] + reps[1:]

    rep = lambda_iso_with(monkeypatch, boundary)
    assert rep.induced_ranks == (1, 0)
    assert rep.matches == (True, False) and rep.isomorphic is False


def grown_dimensions(monkeypatch):
    """The nerve dimensions built from here on, one entry per build."""
    grown, grow = [], CoverModel._grow_nerve

    def counted(self, d):
        grown.append(d)
        return grow(self, d)

    monkeypatch.setattr(CoverModel, "_grow_nerve", counted)
    return grown


def test_each_nerve_dimension_is_grown_once_per_model(monkeypatch):
    grown = grown_dimensions(monkeypatch)
    model = load_bundled_model("z12_arcs")
    verify_local_vs_cech(model, Q, 2)
    verify_lambda_iso(model, Q, 2)
    model.nerve()
    model.nerve(1)
    assert sorted(grown) == list(range(len(model.nerve().bounds)))


@pytest.mark.parametrize("top", [0, 1, 2])
def test_a_profile_to_degree_n_grows_the_nerve_through_n_plus_1(monkeypatch, tmp_path, top):
    # cyc(16,3): every 7 consecutive arcs meet, so the nerve reaches dimension 6
    path = tmp_path / "cyc16_3.json"
    path.write_text(json.dumps(left_invariant_cover(16, 3).to_json_dict()))
    grown = grown_dimensions(monkeypatch)
    calls = [["cohomology", str(path), "--complex", c] for c in ("cech", "total", "nerve")]
    calls += [["compare", str(path)], ["compare", str(path), "--lambda"]]
    for argv in calls:
        del grown[:]
        argv = ["--output", str(tmp_path / "out.json")] + argv + ["--max-degree", str(top)]
        assert run(argv) == 0, argv
        assert grown and max(grown) <= top + 1, argv
    assert len(left_invariant_cover(16, 3).nerve().bounds) == 8


def test_lambda_iso_gate_raises_on_bad_cover():
    # the one-set cover of the projective plane is rationally fine but has
    # mod-2 cohomology in degrees 1 and 2, so the gate must trip over Z/2
    rp2 = load_bundled_model("projective_plane")
    rep = verify_lambda_iso(rp2, Q, 1)
    assert rep.isomorphic
    with pytest.raises(AcyclicityError):
        verify_lambda_iso(rp2, PrimeField(2), 1)


def test_lambda_iso_gate_names_failures_without_growing_the_nerve(tmp_path, monkeypatch):
    # every cover set holds the whole hexagon, a circle: one distinct
    # intersection fails, while the nerve of 6 sets is over a budget of 50
    hexa = load_bundled_model("hexagon")
    doc = hexa.to_json_dict()
    doc["cover"] = [{"name": f"U{i}", "members": list(hexa.points)} for i in range(24)]
    path = tmp_path / "hex24.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert run(["--output", str(out), "compare", str(path), "--max-degree", "1"]) == 0
    assert run(["--output", str(out), "compare", str(path), "--lambda", "--max-degree", "1"]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["kind"] == "AcyclicityError"
    assert f"intersections [{tuple(range(24))}]" in error["message"]
    six = CoverModel(points=hexa.points, cover=(frozenset(hexa.points),) * 6,
                     cover_names=tuple(f"U{i}" for i in range(6)), complex=hexa.complex)
    monkeypatch.setenv("LOCCO_BUDGET", "50")
    with pytest.raises(AcyclicityError, match=re.escape(f"intersections [{tuple(range(6))}]")):
        verify_lambda_iso(six, Q, 1)


def test_lambda_iso_over_prime_field():
    hexa = load_bundled_model("hexagon")
    rep = verify_lambda_iso(hexa, PrimeField(5), 1)
    assert rep.isomorphic and rep.induced_ranks == (1, 1)


def test_colimit_scan_stabilizes():
    reports = colimit_scan(12, [1, 2], Q, max_degree=1)
    assert len(reports) == 2
    for rep in reports:
        assert rep.profiles["total"] == [1, 1]
        assert rep.profiles["simplicial"] == [1, 1]
        assert rep.isomorphic
        assert rep.extras["stabilized"]
    small = colimit_scan(6, [1], Q, max_degree=1)
    assert small[0].profiles["total"] == [1, 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_models_three_way_agreement(seed):
    m = random_cover_model(random.Random(seed))
    for system in (Q, PrimeField(5)):
        rep = verify_local_vs_cech(m, system, 1, spot_checks=False)
        assert rep.isomorphic, (system.name, rep.profiles)


def test_integer_profile_comparison():
    m = load_bundled_model("interval")
    rep = verify_local_vs_cech(m, Integers(), 1, spot_checks=False)
    assert rep.isomorphic
    assert rep.profiles["local"] == [(1, ()), (0, ())]


def test_model_hash_is_stable_and_sensitive():
    a = load_bundled_model("hexagon")
    b = load_bundled_model("hexagon")
    assert model_hash(a) == model_hash(b)
    assert model_hash(a) != model_hash(load_bundled_model("interval"))


def test_report_json_shape():
    m = load_bundled_model("interval")
    doc = verify_local_vs_cech(m, Q, 1, spot_checks=False).to_json_dict()
    assert doc["kind"] == "local-vs-cech"
    assert doc["isomorphic"] is True
    assert set(doc["profiles"]) == {"local", "cech", "total", "simplicial"}


def test_local_positions_match_the_tuple_index():
    for name in bundled_model_names():
        model = load_bundled_model(name)
        if model.complex is None:
            continue
        for n in range(3):
            simplices = tuple(s for s in model.u_small_subcomplex() if len(s) == n + 1)
            listed = list(model.diagonal_neighborhood(n).tuples)
            assert (compare._local_positions(model, n, simplices)
                    == [listed.index(s) for s in simplices]), (name, n)


@pytest.mark.parametrize("n,dtype", [(5, np.int64), (6, object)])
def test_local_positions_refuse_a_simplex_outside_the_local_basis(n, dtype):
    # 600 points: level-6 tuples have codes up to 600^7 > 2^63, level 5 stays in int64
    cover = (frozenset({0, 1}), frozenset({1, 2})) + tuple(frozenset({p}) for p in range(3, 600))
    m = CoverModel(points=tuple(range(600)), cover=cover,
                   cover_names=tuple(f"U{i}" for i in range(len(cover))))
    domain = m.diagonal_neighborhood(n)
    assert domain.codes.dtype == dtype
    inside = ((0,) * n + (1,), (599,) * (n + 1))
    listed = list(domain.tuples)
    assert compare._local_positions(m, n, inside) == [listed.index(s) for s in inside]
    for outside in ((0,) * n + (2,), (599,) * n + (598,)):
        with pytest.raises(ModelError, match=f"simplex {re.escape(str(outside))} has no tuple"):
            compare._local_positions(m, n, inside + (outside,))
