import itertools
import json
import random

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locco import (BudgetError, CoverModel, ModelError, PrimeField, Rationals, TupleSet,
                   arc, enumeration_budget, left_invariant_cover, load_model,
                   model_from_json_dict, shrink_relation_check)
from locco.bicomplex import (family_from_json, first_hit_family, random_unity_family,
                             uniform_unity_family)
from locco.cli import bundled_model_names, load_bundled_model
from locco.cochains import local_cochain_from_json, random_local_cochain
from locco.compare import model_hash, random_cover_model
from locco import model as model_module
from locco.model import code_dtype, decode, delete_digit, encode, product_codes


def brute_diagonal(model, n):
    """Independent enumeration of the level-n neighborhood."""
    out = set()
    for t in itertools.product(model.points, repeat=n + 1):
        if any(all(c in members for c in t) for members in model.cover):
            out.add(t)
    return out


def test_interval_diagonal_neighborhood_oracle():
    m = load_bundled_model("interval")
    got = set(m.diagonal_neighborhood(1).tuples)
    assert got == brute_diagonal(m, 1)
    assert len(got) == 7


def test_hexagon_neighborhood_sizes():
    m = load_bundled_model("hexagon")
    assert len(m.diagonal_neighborhood(1)) == 24
    assert len(m.diagonal_neighborhood(2)) == 78


def test_random_models_match_brute_force():
    for seed in range(6):
        m = random_cover_model(random.Random(seed))
        for n in (0, 1, 2):
            assert set(m.diagonal_neighborhood(n).tuples) == brute_diagonal(m, n)


def test_diagonal_neighborhood_tuples_are_sorted_and_cached():
    m = load_bundled_model("hexagon")
    a = m.diagonal_neighborhood(1)
    b = m.diagonal_neighborhood(1)
    assert a is b
    keys = [m.point_key(t) for t in a.tuples]
    assert keys == sorted(keys)


def test_budget_error(monkeypatch):
    m = load_bundled_model("hexagon")
    monkeypatch.setenv("LOCCO_BUDGET", "10")
    with pytest.raises(BudgetError):
        CoverModel(points=m.points, cover=m.cover, cover_names=m.cover_names,
                   complex=m.complex).diagonal_neighborhood(2)
    monkeypatch.delenv("LOCCO_BUDGET")
    assert enumeration_budget() == 2_000_000


def test_budget_charges_cover_powers(monkeypatch):
    # level 2 visits the cubes of the three 3-point sets, 81 tuples, not 6^3
    m = load_bundled_model("hexagon")
    assert sum(len(members) ** 3 for members in m.cover) == 81

    def fresh():
        return CoverModel(points=m.points, cover=m.cover, cover_names=m.cover_names,
                          complex=m.complex)

    monkeypatch.setenv("LOCCO_BUDGET", "100")
    assert set(fresh().diagonal_neighborhood(2).tuples) == brute_diagonal(m, 2)
    monkeypatch.setenv("LOCCO_BUDGET", "80")
    with pytest.raises(BudgetError, match=r"sum of \|U_i\|\^3 .* needs 81 raw"):
        fresh().diagonal_neighborhood(2)


def by_hand(row, radix):
    """The code of one digit tuple, in Python integers."""
    return sum(d * radix ** (len(row) - 1 - j) for j, d in enumerate(row))


@pytest.mark.parametrize("radix, arity", [(2 ** 20, 4), (2 ** 15, 4), (3, 5)])
def test_code_helpers_do_not_wrap(radix, arity):
    # 2^20 with arity 4 is 2^80, past int64: the codes become Python integers
    dtype = code_dtype(radix ** arity)
    assert (dtype is object) == (radix ** arity > 2 ** 63 - 1)
    rng = random.Random(radix + arity)
    rows = [[radix - 1] * arity, [0] * arity, [radix - 1] + [0] * (arity - 1)]
    rows += [[rng.randrange(radix) for _ in range(arity)] for _ in range(40)]
    digits = np.array(rows, dtype=np.int64)
    codes = encode(digits, radix, dtype)
    assert codes.tolist() == [by_hand(row, radix) for row in rows]
    assert decode(codes, radix, arity).tolist() == rows
    for j in range(arity):
        faces = delete_digit(codes, radix, radix ** (arity - 1 - j))
        assert faces.tolist() == [by_hand(row[:j] + row[j + 1:], radix) for row in rows]
        # a place value per code, as the assembly kernel passes them
        places = np.array([radix ** (arity - 1 - j)] * len(rows), dtype=dtype)
        assert delete_digit(codes, radix, places).tolist() == faces.tolist()
    positions = np.array(sorted({0, 1, radix - 1}), dtype=dtype)
    power = product_codes(positions, arity, radix)
    assert power.tolist() == sorted(by_hand(t, radix) for t in
                                    itertools.product(positions.tolist(), repeat=arity))


def test_tuple_sets_carry_ascending_codes():
    m = load_bundled_model("z6_arcs")
    for n in range(3):
        ts = m.diagonal_neighborhood(n)
        assert ts.codes.tolist() == [by_hand(m.point_key(t), len(m.points)) for t in ts.tuples]
        assert list(ts.codes) == sorted(ts.codes)
    power = m.intersection_power((0, 1), 2)
    assert power.tuples == tuple(itertools.product(m.intersection((0, 1)), repeat=2))
    assert power.codes.tolist() == [by_hand(m.point_key(t), len(m.points)) for t in power.tuples]
    assert power.tuples[1] in power and power.index(power.tuples[1]) == 1


def test_tuple_sets_decode_only_what_is_read(monkeypatch):
    decoded = []
    real = model_module.decode
    monkeypatch.setattr(model_module, "decode",
                        lambda codes, *args: decoded.append(len(codes)) or real(codes, *args))
    m = load_bundled_model("z6_arcs")
    ts = m.diagonal_neighborhood(2)
    assert len(ts) == len(ts.codes) == len(brute_diagonal(m, 2)) and decoded == []
    assert ts.at(5) == sorted(brute_diagonal(m, 2), key=m.point_key)[5]
    assert decoded == [1]
    assert list(ts.tuples) == sorted(brute_diagonal(m, 2), key=m.point_key)
    assert [ts.at(k) for k in range(len(ts))] == list(ts.tuples) and ts.at(-1) == ts.tuples[-1]
    assert len(ts) == len(ts.tuples)
    with pytest.raises(IndexError):
        ts.at(len(ts))
    # 600 points: level-6 codes pass 2^63 and are Python ints
    cover = (frozenset({0, 1}),) + tuple(frozenset({p}) for p in range(2, 600))
    wide = CoverModel(points=tuple(range(600)), cover=cover,
                      cover_names=tuple(f"U{i}" for i in range(len(cover))))
    wide = wide.diagonal_neighborhood(6)
    assert wide.codes.dtype == object
    assert [wide.at(k) for k in (0, 1, 127, -1)] == [wide.tuples[k] for k in (0, 1, 127, -1)]


def test_tuple_set_membership_reads_codes(monkeypatch):
    decoded = []
    real = model_module.decode
    monkeypatch.setattr(model_module, "decode",
                        lambda codes, *args: decoded.append(len(codes)) or real(codes, *args))
    m = load_bundled_model("z6_arcs")
    ts = m.diagonal_neighborhood(2)
    members = sorted(brute_diagonal(m, 2), key=m.point_key)
    outside = set(itertools.product(m.points, repeat=3)) - set(members)
    assert outside
    assert all(t in ts for t in members)
    assert [ts.index(t) for t in members] == list(range(len(members)))
    assert not any(t in ts for t in outside)
    # wrong arity, unknown point ids and non-tuples are not members
    strangers = [members[0][:2], members[0] + members[0][:1], (), ("nowhere",) * 3,
                 members[0][:2] + (len(m.points),), list(members[0])]
    for item in sorted(outside, key=m.point_key)[:5] + strangers:
        assert item not in ts
        with pytest.raises(KeyError):
            ts.index(item)
    assert decoded == []
    # codes past int64
    cover = (frozenset({0, 1}),) + tuple(frozenset({p}) for p in range(2, 600))
    wide = CoverModel(points=tuple(range(600)), cover=cover,
                      cover_names=tuple(f"U{i}" for i in range(len(cover))))
    wide = wide.diagonal_neighborhood(6)
    assert wide.codes.dtype == object
    assert (0, 1, 1, 0, 1, 0, 1) in wide and wide.index((599,) * 7) == len(wide) - 1
    assert (0, 1, 2, 0, 1, 0, 1) not in wide and (599,) * 6 not in wide


def test_tuple_sets_compare_by_codes():
    m = load_bundled_model("z6_arcs")
    ts = m.diagonal_neighborhood(1)
    twin = load_bundled_model("z6_arcs").diagonal_neighborhood(1)
    assert ts == twin and hash(ts) == hash(twin) and ts.tuples == twin.tuples
    assert ts == TupleSet(ts.arity, ts.codes.astype(object), ts.names, ts.label)
    # equal arity and label, different codes: unequal, as the tuples are
    fewer = TupleSet(ts.arity, ts.codes[1:], ts.names, ts.label)
    assert fewer != ts and fewer.tuples != ts.tuples
    shifted = TupleSet(ts.arity, ts.codes + 1, ts.names, ts.label)
    assert len(shifted) == len(ts) and shifted != ts and shifted.tuples != ts.tuples
    assert ts != m.diagonal_neighborhood(2)
    assert ts != TupleSet(ts.arity, ts.codes, ts.names, "other")


def test_nerve_oracle_hexagon():
    m = load_bundled_model("hexagon")
    nerve = m.nerve()
    assert nerve.of_dimension(0) == ((0,), (1,), (2,))
    assert set(nerve.of_dimension(1)) == {(0, 1), (0, 2), (1, 2)}
    assert nerve.of_dimension(2) == ()
    assert m.intersection((0, 1)) == (2,)
    assert m.intersection((1, 2)) == (4,)
    assert m.intersection((0, 2)) == (0,)


def test_nerve_oracle_z6():
    m = load_bundled_model("z6_arcs")
    nerve = m.nerve()
    assert [len(nerve.of_dimension(d)) for d in range(4)] == [6, 12, 6, 0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_nerve_prefixes_and_lookups_match_the_listed_nerve(seed):
    model = random_cover_model(random.Random(seed), max_sets=6)
    cover = range(len(model.cover))
    listed = [s for k in range(1, len(model.cover) + 1) for s in itertools.combinations(cover, k)
              if set.intersection(*(set(model.cover[i]) for i in s))]
    nerve = model.nerve()
    assert nerve.simplices == tuple(listed)
    top = max(map(len, listed)) - 1
    for d in range(top + 2):
        assert nerve.of_dimension(d) == tuple(s for s in listed if len(s) == d + 1)
        assert model.nerve(d).simplices == tuple(s for s in listed if len(s) <= d + 1)
        assert [model.intersection(s) for s in model.nerve(d).simplices] == [
            tuple(p for k, p in enumerate(model.points) if mask >> k & 1)
            for mask in model.nerve(d).masks]
    assert nerve.bounds[-1] == len(nerve) and len(nerve.bounds) == top + 2
    for s in itertools.chain(listed, [(), (0, 0), (len(model.cover),), ("a",), [0]]):
        assert (s in nerve) == (tuple(s) in set(listed))


def test_nerve_is_charged_per_simplex_after_each_dimension(monkeypatch):
    # z6_arcs: 6 vertices, 12 edges and 6 triangles
    m = load_bundled_model("z6_arcs")

    def fresh():
        return CoverModel(points=m.points, cover=m.cover, cover_names=m.cover_names,
                          complex=m.complex)

    monkeypatch.setenv("LOCCO_BUDGET", "24")
    assert fresh().nerve() == m.nerve()
    monkeypatch.setenv("LOCCO_BUDGET", "18")
    with pytest.raises(BudgetError, match="the nerve of 6 cover sets needs 24 raw"):
        fresh().nerve()
    monkeypatch.setenv("LOCCO_BUDGET", "17")
    with pytest.raises(BudgetError, match="the nerve of 6 cover sets needs 18 raw"):
        fresh().nerve()
    monkeypatch.setenv("LOCCO_BUDGET", "5")
    with pytest.raises(BudgetError, match="needs 6 raw"):
        fresh().nerve()


def test_intersection_requires_increasing_indices():
    m = load_bundled_model("hexagon")
    with pytest.raises(ModelError):
        m.intersection((1, 0))
    with pytest.raises(ModelError):
        m.intersection((0, 0))


def test_validation_rejects_bad_models():
    with pytest.raises(ModelError):
        CoverModel(points=(), cover=(frozenset({0}),), cover_names=("U0",))
    with pytest.raises(ModelError):
        CoverModel(points=(0, 1), cover=(frozenset({0}),), cover_names=("U0",))
    with pytest.raises(ModelError):
        CoverModel(points=(0, 1), cover=(frozenset({0, 7}),), cover_names=("U0",))
    with pytest.raises(ModelError):
        CoverModel(points=(0, 1), cover=(frozenset({0, 1}),), cover_names=("U0",),
                   complex=((0,), (1,), (1, 0)))
    with pytest.raises(ModelError):
        CoverModel(points=(0, 1), cover=(frozenset({0, 1}),), cover_names=("U0",),
                   complex=((0, 1),))


def test_list_point_ids_are_model_errors():
    with pytest.raises(ModelError, match="points must hold scalar point ids"):
        model_from_json_dict({"points": [[0], [1]], "cover": [{"members": [0, 1]}]})
    with pytest.raises(ModelError, match="members must hold scalar point ids"):
        model_from_json_dict({"points": [[0], [1]], "cover": [{"members": [[0], [1]]}]})
    with pytest.raises(ModelError, match="complex"):
        model_from_json_dict({"points": [0], "cover": [{"members": [0]}], "complex": [[[0]]]})


def test_complex_helpers():
    m = load_bundled_model("hexagon")
    assert m.u_small_subcomplex() == m.complex
    sub = m.full_subcomplex({0, 1, 2})
    assert sub == ((0,), (1,), (2,), (0, 1), (1, 2))


def test_json_round_trip(tmp_path):
    m = load_bundled_model("z6_arcs")
    doc = m.to_json_dict()
    back = model_from_json_dict(doc)
    assert back.points == m.points
    assert back.cover == m.cover
    assert back.complex == m.complex
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert load_model(str(path)).cover == m.cover


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_models_round_trip_through_json(seed):
    rng = random.Random(seed)
    m = random_cover_model(rng)
    back = model_from_json_dict(m.to_json_dict())
    assert back == m and model_hash(back) == model_hash(m)
    for system in (Rationals(), PrimeField(5)):
        for degree in (0, 1):
            f = random_local_cochain(m, system, degree, rng)
            assert local_cochain_from_json(m, system, f.to_json_dict()) == f
    for q in (0, 1):
        # uniform weights are "a/b" strings wherever two sets hold a tuple
        for fam in (first_hit_family(m, q), random_unity_family(m, q, rng),
                    uniform_unity_family(m, q)):
            assert family_from_json(m, fam.to_json_dict()) == replace(fam, label="")


def test_left_invariant_cover_radius_caps():
    m12 = left_invariant_cover(12, 4)
    assert len(m12.cover) == 12 and all(len(s) == 9 for s in m12.cover)
    with pytest.raises(ModelError):
        left_invariant_cover(12, 5)
    left_invariant_cover(6, 1)
    with pytest.raises(ModelError):
        left_invariant_cover(6, 2)
    with pytest.raises(ModelError):
        left_invariant_cover(4, 1)


def test_arc_and_shrink_relation():
    assert arc(12, 1, 0) == frozenset({11, 0, 1})
    assert arc(6, 2, 5) == frozenset({3, 4, 5, 0, 1})
    assert shrink_relation_check(12, 1, 3)
    assert shrink_relation_check(12, 1, 2)
    assert not shrink_relation_check(12, 2, 3)
    assert not shrink_relation_check(12, 1, 1)


def test_bundled_models_all_load():
    names = bundled_model_names()
    assert "hexagon" in names and "projective_plane" in names
    for name in names:
        model = load_bundled_model(name)
        assert len(model.points) >= 1


def test_random_cover_model_is_valid_and_seeded():
    a = random_cover_model(random.Random(42))
    b = random_cover_model(random.Random(42))
    assert a.points == b.points and a.cover == b.cover
    assert len(a.points) <= 8 and len(a.cover) <= 4
