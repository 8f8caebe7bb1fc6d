"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each test prints exactly one ``CRITERION n: PASS/FAIL`` line (outside the
capture machinery, so the lines always reach the terminal) and then asserts.
Tolerances are pinned here and nowhere else:

  * exact criteria (1, 2, 3, 4, 7) demand equality of exact arithmetic,
  * the simplex-filler battery (5) is held to 1e-12, its row-contraction
    cross-check to 1e-9,
  * sampled partition-of-unity sums (6) are held to 1e-9,
  * determinism (8) means byte equality.
"""

import json
import random
import time
from importlib import resources

import pytest

import locco.models
from locco import (Integers, PrimeField, Rationals, RealVectors,
                   SimplicialComplexSpec, arc_cover_family, ball_family,
                   cech_coboundary,
                   circle_domain, cohomology_profile, colimit_scan,
                   first_hit_family, left_invariant_cover, plateau_partition,
                   product_family, random_cover_model, random_page,
                   random_unity_family, refines_supports, rescue_partition,
                   row_contraction, scale_page_by_weight_sum,
                   shrunken_tuples, sigma_row_contraction, smallest_point,
                   standard_column_contraction, standard_differential,
                   vector_battery, verify_lambda_iso, verify_local_vs_cech)
from locco.bicomplex import PartitionFamily
from locco.cli import load_bundled_model, run
from locco.loopfill import linear_contraction, sigma_fill

Q = Rationals()
Z = Integers()
Z5 = PrimeField(5)

FILLER_TOL = 1e-12
ROW_TOL = 1e-9
POU_TOL = 1e-9
BUNDLED = ("interval", "hexagon", "z6_arcs", "z12_arcs")


@pytest.fixture
def report(capfd):
    def _report(num: int, passed: bool, detail: str):
        line = f"CRITERION {num}: {'PASS' if passed else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert passed, line
    return _report


def model_path(name):
    return str(resources.files("locco.models").joinpath(name + ".json"))


def test_c1_cohomology_profiles_agree_three_ways(report):
    start = time.perf_counter()
    rng = random.Random(20260814)
    models = [random_cover_model(rng, max_points=8, max_sets=4,
                                 name=f"random-{i}") for i in range(20)]
    models += [load_bundled_model(name) for name in BUNDLED]
    checked = 0
    agree = True
    for m in models:
        for system in (Q, Z5):
            rep = verify_local_vs_cech(m, system, 2, spot_checks=False)
            agree = agree and all(rep.matches)
            checked += 1
    elapsed = time.perf_counter() - start
    report(1, agree and elapsed < 60.0,
           f"{checked} model/system pairs, degrees <= 2, {elapsed:.1f}s")


def _row_identity_exact(model, family, p, rng) -> bool:
    page = random_page(model, Q, p, family.q, rng)
    back = cech_coboundary(row_contraction(page, family)).add(
        row_contraction(cech_coboundary(page), family))
    return back.sub(page).is_zero()


def _cone_identity_exact(model, indices, k, rng) -> bool:
    members = model.intersection(indices)
    base = smallest_point(model, members)
    g = {}
    for _ in range(5):
        key = tuple(rng.choice(members) for _ in range(k))
        g[key] = Q.random_value(rng)
    g = {key: v for key, v in g.items() if not Q.is_zero(v)}
    back = standard_differential(
        standard_column_contraction(g, base, Q), members, Q)
    for key, v in standard_column_contraction(
            standard_differential(g, members, Q), base, Q).items():
        back[key] = Q.add(back.get(key, Q.zero()), v)
    keys = set(back) | set(g)
    return all(Q.is_zero(Q.sub(back.get(key, Q.zero()), g.get(key, Q.zero())))
               for key in keys)


def test_c2_contraction_identities_exact(report):
    rng = random.Random(20260815)
    rows = columns = 0
    ok = True
    for name in BUNDLED:
        m = load_bundled_model(name)
        for q in (0, 1, 2):
            families = [first_hit_family(m, q)]
            families += [random_unity_family(m, q, rng) for _ in range(10)]
            for p in (1, 2):
                for fam in families:
                    ok = ok and _row_identity_exact(m, fam, p, rng)
                    rows += 1
        for indices in m.nerve().simplices:
            for k in (1, 2):
                ok = ok and _cone_identity_exact(m, indices, k, rng)
                columns += 1
    report(2, ok, f"{rows} row and {columns} column identities, exact over Q")


def _random_supported_family(model, q, rng) -> PartitionFamily:
    weights = {}
    for i, members in enumerate(model.cover):
        wmap = {}
        for t in model.diagonal_neighborhood(q).tuples:
            if all(c in members for c in t) and rng.random() < 0.5:
                w = rng.randrange(-3, 4)
                if w:
                    wmap[t] = w
        if wmap:
            weights[i] = wmap
    return PartitionFamily(model, q, weights, unity=False, label="supported")


def _approximate_identity_exact(model, fam, p, rng) -> bool:
    page = random_page(model, Q, p, fam.q, rng)
    lhs = cech_coboundary(row_contraction(page, fam)).add(
        row_contraction(cech_coboundary(page), fam))
    return lhs.sub(scale_page_by_weight_sum(page, fam)).is_zero()


def test_c3_weighted_and_plateau_identities(report):
    rng = random.Random(20260816)
    ok = True
    weighted = 0
    for name in ("interval", "hexagon", "z6_arcs"):
        m = load_bundled_model(name)
        for q in (0, 1):
            for _ in range(5):
                fam = _random_supported_family(m, q, rng)
                for p in (1, 2):
                    ok = ok and _approximate_identity_exact(m, fam, p, rng)
                    weighted += 1
    plateau = 0
    wide = left_invariant_cover(12, 3)
    for q in (0, 1):
        fam = plateau_partition(wide, 3, 1, q)
        shrunken = set(shrunken_tuples(12, 1, q))
        for t in wide.diagonal_neighborhood(q).tuples:
            expected = 1 if t in shrunken else 0
            ok = ok and fam.weight_sum(t) == expected
        for p in (1, 2):
            ok = ok and _approximate_identity_exact(wide, fam, p, rng)
            plateau += 1
    report(3, ok, f"{weighted} weighted and {plateau} plateau identities, "
                  "exact over Q")


def test_c4_good_cover_and_integer_torsion(report):
    start = time.perf_counter()
    hexa = load_bundled_model("hexagon")
    rep = verify_local_vs_cech(hexa, Q, 1, spot_checks=True)
    profiles_ok = all(rep.profiles[key] == [1, 1]
                      for key in ("local", "cech", "total", "simplicial"))
    lam = verify_lambda_iso(hexa, Q, 1)
    lam_ok = lam.isomorphic and lam.induced_ranks == (1, 1)
    rp2 = load_bundled_model("projective_plane")
    spec = SimplicialComplexSpec(rp2.complex, rp2.point_key)
    torsion_ok = cohomology_profile(spec, Z, 2) == [(1, ()), (0, ()), (0, (2,))]
    elapsed = time.perf_counter() - start
    passed = (profiles_ok and rep.isomorphic and lam_ok and torsion_ok
              and elapsed < 30.0)
    report(4, passed,
           f"four circle profiles (1,1), induced ranks {lam.induced_ranks}, "
           f"degree-2 torsion Z/2, {elapsed:.1f}s")


def _real_unity_family(model, q, rng) -> PartitionFamily:
    weights: dict = {}
    for t in model.diagonal_neighborhood(q).tuples:
        active = [i for i, members in enumerate(model.cover)
                  if all(c in members for c in t)]
        raw = [rng.random() + 0.05 for _ in active]
        total = sum(raw)
        for i, w in zip(active, raw):
            weights.setdefault(i, {})[t] = w / total
    return PartitionFamily(model, q, weights, unity=True, label="real",
                           tol=1e-9)


def test_c5_simplex_filler_battery(report):
    worst = 0.0
    ok = True
    count = 0
    for dim in (1, 2, 3):
        for check in vector_battery(dim, 4, seed=2026 + dim, trials=500,
                                    tol=FILLER_TOL):
            ok = ok and check.passed
            worst = max(worst, check.max_deviation)
            count += 1
    hexa = load_bundled_model("hexagon")
    rng = random.Random(20260817)
    fill = lambda vs, ws: sigma_fill(linear_contraction(), vs, ws)
    row_worst = 0.0
    for q in (0, 1):
        fam = _real_unity_family(hexa, q, rng)
        for _ in range(5):
            page = random_page(hexa, RealVectors(2), 1, q, rng)
            lin = row_contraction(page, fam)
            sig = sigma_row_contraction(page, fam, fill)
            row_worst = max(row_worst, lin.max_deviation(sig))
    passed = ok and worst < FILLER_TOL and row_worst < ROW_TOL
    report(5, passed, f"{count} battery checks, worst {worst:.2e} "
                      f"(tol {FILLER_TOL}), filler row vs linear row "
                      f"{row_worst:.2e} (tol {ROW_TOL})")


def test_c6_partition_constructions_at_scale(report):
    domain = circle_domain(10000)
    base = arc_cover_family(domain, 3)
    rescue = rescue_partition(base)
    rdoc = rescue.report()
    rescue_ok = (rdoc["max_sum_deviation"] <= POU_TOL
                 and rdoc["uncovered_samples"] == 0
                 and refines_supports(rescue, base)
                 and rescue.max_active_count() <= 6)
    product = product_family(base, 1)
    product_ok = (product.max_sum_deviation() <= POU_TOL
                  and product.report()["uncovered_samples"] == 0)
    balls = ball_family(domain, 0.25)
    ball_ok = balls.max_sum_deviation() <= POU_TOL
    report(6, rescue_ok and product_ok and ball_ok,
           f"10000-sample circle: rescue dev {rdoc['max_sum_deviation']:.2e} "
           f"active <= {rescue.max_active_count()}, pair-product dev "
           f"{product.max_sum_deviation():.2e}, ball dev "
           f"{balls.max_sum_deviation():.2e}, tol {POU_TOL}")


def test_c7_radius_scan_matches_cycle(report):
    reports = colimit_scan(12, (1, 2), Q, max_degree=1)
    ok = len(reports) == 2
    for rep in reports:
        ok = (ok and rep.profiles["total"] == [1, 1]
              and rep.profiles["simplicial"] == [1, 1]
              and rep.isomorphic and rep.extras["stabilized"])
    report(7, ok, "radii 1 and 2 on the 12-point cycle both report (1, 1)")


def test_c8_reports_are_byte_identical(report, tmp_path):
    commands = {
        "compare": ["compare", model_path("hexagon"), "--coeff", "Q",
                    "--max-degree", "1", "--lambda"],
        "sigma": ["--seed", "7", "sigma-check", "--carrier", "Rd:2",
                  "--n", "3", "--samples", "120"],
    }
    ok = True
    for label, argv in commands.items():
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{label}-{attempt}.json"
            code = run(["--output", str(out)] + argv)
            ok = ok and code == 0
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    report(8, ok, "repeated runs of two subcommands gave identical bytes")
