"""Expected answers for every job kind, computed without locco.

Nothing here imports locco.  Profiles come from three independent sources:

* closed-form integral cohomology of the spaces the ladder and bundled models
  present (point, circle, real projective plane), turned into field profiles
  by the universal coefficient theorem;
* for seeded random covers, the cohomology of the cover's nerve, computed by
  the small exact elimination below.  Local, nerve and total cochains must all
  equal it (Dowker's theorem and the double-complex comparison);
* for ``sigma-eval``, the barycentric sum of the vertices, computed with numpy.

A report is normalised to one ``(rank, torsion orders)`` pair per degree
before it is compared, so field and integer reports share one comparison.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

# Integral cohomology: one (free rank, torsion orders) pair per degree, zero
# in every degree past the end of the tuple.
POINT = ((1, ()),)
CIRCLE = ((1, ()), (1, ()))
RP2 = ((1, ()), (0, ()), (0, (2,)))

SIGMA_TOL = 1e-12


def integral_degree(space: tuple, n: int) -> tuple:
    return space[n] if n < len(space) else (0, ())


def coeff_char(coeff: str) -> int:
    """0 for Q and Z, p for ``Zp:<p>``."""
    if coeff in ("Q", "Z"):
        return 0
    if coeff.startswith("Zp:"):
        return int(coeff[3:])
    raise ValueError(f"unknown coefficients {coeff!r}")


def expected_profile(space: tuple, coeff: str, max_degree: int) -> list:
    """Profile of a space in degrees 0..max_degree as (rank, torsion) pairs.

    Over a field F_p the universal coefficient theorem gives
    dim H^n(X; F_p) = b_n + t_p(H^n) + t_p(H^{n+1}), where t_p counts the
    torsion summands of integral cohomology whose order p divides.
    """
    out = []
    for n in range(max_degree + 1):
        free, torsion = integral_degree(space, n)
        if coeff == "Z":
            out.append((free, tuple(torsion)))
            continue
        p = coeff_char(coeff)
        dim = free
        if p:
            dim += sum(1 for t in torsion if t % p == 0)
            dim += sum(1 for t in integral_degree(space, n + 1)[1] if t % p == 0)
        out.append((dim, ()))
    return out


# ---------------------------------------------------------------------------
# nerves and their cohomology, by a small elimination of our own


def nerve(cover) -> list:
    """Strictly increasing index tuples whose cover sets share a point."""
    sets = [frozenset(members) for members in cover]
    out = []
    for size in range(1, len(sets) + 1):
        found = False
        for idx in combinations(range(len(sets)), size):
            common = frozenset.intersection(*(sets[i] for i in idx))
            if common:
                out.append(idx)
                found = True
        if not found:
            break
    return out


def _rank(rows: list, p: int) -> int:
    """Rank of a dense integer matrix over GF(p), or over Q when p == 0."""
    if p:
        work = [[v % p for v in row] for row in rows]
    else:
        work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank]
        inv = pow(head[c], p - 2, p) if p else 1 / head[c]
        for r in range(rank + 1, len(work)):
            if work[r][c]:
                f = work[r][c] * inv
                if p:
                    work[r] = [(a - f * b) % p for a, b in zip(work[r], head)]
                else:
                    work[r] = [a - f * b for a, b in zip(work[r], head)]
        rank += 1
    return rank


def simplicial_field_profile(simplices, coeff: str, max_degree: int) -> list:
    """Cohomology of an abstract simplicial complex over Q or GF(p).

    ``simplices`` holds sorted vertex tuples and must be closed under faces.
    """
    p = coeff_char(coeff)
    by_dim: dict = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(s))
    basis = {n: sorted(v) for n, v in by_dim.items()}

    def rank_of_d(n: int) -> int:
        cols = {s: k for k, s in enumerate(basis.get(n, []))}
        rows = []
        for s in basis.get(n + 1, []):
            row = [0] * len(cols)
            for k in range(len(s)):
                row[cols[s[:k] + s[k + 1:]]] += -1 if k % 2 else 1
            rows.append(row)
        return _rank(rows, p) if rows and cols else 0

    ranks = [rank_of_d(n) for n in range(max_degree + 1)]
    out = []
    for n in range(max_degree + 1):
        below = ranks[n - 1] if n else 0
        out.append((len(basis.get(n, [])) - ranks[n] - below, ()))
    return out


def nerve_profile(cover, coeff: str, max_degree: int) -> list:
    return simplicial_field_profile(nerve(cover), coeff, max_degree)


# ---------------------------------------------------------------------------
# reading reports


def _pairs_from_profile_doc(doc: dict) -> list:
    return [(entry["rank"], tuple(entry["torsion"]))
            for _, entry in sorted(doc.items(), key=lambda kv: int(kv[0]))]


def _pairs_from_list(profile: list) -> list:
    out = []
    for entry in profile:
        if isinstance(entry, list):
            out.append((entry[0], tuple(entry[1])))
        else:
            out.append((entry, ()))
    return out


def check_cohomology(report: dict, expected: list) -> list:
    """Problems with a ``cohomology`` report against an expected profile."""
    got = _pairs_from_profile_doc(report["result"]["profile"])
    if got != expected:
        return [f"profile {got} != expected {expected}"]
    return []


def check_compare(report: dict, expected: dict, induced=None) -> list:
    """Problems with a ``compare`` report.

    ``expected`` maps complex names (local, cech, total, simplicial) to
    profiles; every comparison flag and contraction spot check must hold, and
    with ``induced`` the restriction map must have those induced ranks.
    """
    problems = []
    if report.get("passed") is not True:
        problems.append("report did not pass")
    comp = report["result"]["comparison"]
    for name, profile in expected.items():
        got = _pairs_from_list(comp["profiles"].get(name, []))
        if got != profile:
            problems.append(f"{name} profile {got} != expected {profile}")
    if not (comp["isomorphic"] and all(comp["matches"])):
        problems.append("comparison not isomorphic")
    if not all(comp.get("extras", {}).get("contraction_checks", {"none": False}).values()):
        problems.append("contraction spot check failed or missing")
    if induced is not None:
        lam = report["result"].get("restriction")
        if lam is None:
            problems.append("restriction certificate missing")
        elif (tuple(lam.get("induced_ranks", ())) != tuple(induced)
              or not lam["isomorphic"] or not lam["extras"]["chain_map_exact"]):
            problems.append(f"restriction {lam.get('induced_ranks')} != {induced}")
    return problems


def check_scan(report: dict, expected: list) -> list:
    problems = []
    for entry in report["result"]["scan"]:
        for name in ("total", "simplicial"):
            got = _pairs_from_list(entry["profiles"][name])
            if got != expected:
                problems.append(f"scan {entry['model']['name']} {name} {got} != {expected}")
        if not (entry["isomorphic"] and entry["extras"]["stabilized"]):
            problems.append(f"scan {entry['model']['name']} not stable")
    return problems


def check_passed(report: dict) -> list:
    return [] if report.get("passed") is True else ["report did not pass"]


def check_sigma_check(report: dict) -> list:
    problems = check_passed(report)
    checks = report["result"]["checks"]
    if not checks or not all(c["passed"] for c in checks):
        problems.append("a filler check failed")
    return problems


def check_pou(report: dict) -> list:
    problems = check_passed(report)
    result = report["result"]
    rep = result["report"]
    if rep["max_sum_deviation"] > result["tolerance"] or rep["uncovered_samples"]:
        problems.append("partition sums off or samples uncovered")
    if result.get("supports_refine_cover") is False:
        problems.append("supports do not refine the cover")
    return problems


def check_sigma_eval(report: dict, vertices: list, weights: list) -> list:
    """The linear filler must equal the barycentric sum of the vertices."""
    want = np.asarray(weights, dtype=float) @ np.asarray(vertices, dtype=float)
    got = np.asarray(report["result"]["value"], dtype=float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= SIGMA_TOL):
        return [f"filler value {got.tolist()} != barycentric sum {want.tolist()}"]
    return []
