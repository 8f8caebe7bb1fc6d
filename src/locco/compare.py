"""Instance-level checks that the different cochain complexes agree.

The harness computes cohomology profiles of the local, nerve and total
complexes, spot-checks the contraction identities that drive their
comparison, gates on acyclic intersections before trusting the simplicial
side, restricts local cochains to simplices and certifies bijectivity of
the induced map by exact rank, and scans shrinking cyclic covers for a
stabilized profile.  The gate settles every intersection of a model in one
batch, one block per distinct intersection of a single simplicial spec, and
keeps the statuses on the model per coefficient system.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .bicomplex import (PartitionFamily, contraction_defect, first_hit_family,
                        random_page)
from .cochains import (smallest_point, standard_column_contraction,
                       standard_differential)
from .coeff import CoefficientSystem, Integers, Rationals
from .errors import AcyclicityError, CoefficientError, ModelError
from .homology import (CechComplexSpec, LocalComplexSpec,
                       SimplicialComplexSpec, TotalComplexSpec,
                       assemble_matrix, block_profiles, cohomology_profile,
                       kernel_basis, matrix_rank, profile_from_ranks,
                       rank_in_quotient)
from .model import CoverModel, left_invariant_cover


def model_hash(model: CoverModel) -> str:
    """Hash of the canonical model serialization; ties reports to inputs."""
    blob = json.dumps(model.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def profile_to_json(profile) -> list:
    out = []
    for entry in profile:
        if isinstance(entry, tuple):
            free, torsion = entry
            out.append([free, list(torsion)])
        else:
            out.append(entry)
    return out


@dataclass(frozen=True)
class ComparisonReport:
    """Profiles of several complexes on one instance, with match verdicts."""

    kind: str
    model_name: str
    model_hash: str
    coefficients: str
    max_degree: int
    profiles: dict
    matches: tuple
    isomorphic: bool
    induced_ranks: Optional[tuple] = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "model": {"name": self.model_name, "hash": self.model_hash},
            "coefficients": self.coefficients,
            "max_degree": self.max_degree,
            "profiles": {k: profile_to_json(v) for k, v in sorted(self.profiles.items())},
            "matches": [bool(m) for m in self.matches],
            "isomorphic": bool(self.isomorphic),
        }
        if self.induced_ranks is not None:
            doc["induced_ranks"] = list(self.induced_ranks)
        if self.extras:
            doc["extras"] = self.extras
        return doc


def _degreewise_match(profiles: Sequence, max_degree: int) -> tuple:
    first = profiles[0]
    return tuple(all(p[n] == first[n] for p in profiles)
                 for n in range(max_degree + 1))


# ---------------------------------------------------------------------------
# contraction spot checks


def _check_column_contraction(model: CoverModel, system: CoefficientSystem,
                              rng) -> bool:
    """Cone identity on a standard complex over one intersection."""
    nerve = model.nerve(max_dim=1)
    indices = (nerve.of_dimension(1) or nerve.of_dimension(0))[0]
    members = model.intersection(indices)
    base = smallest_point(model, members)
    g = {}
    for _ in range(4):
        key = (rng.choice(members), rng.choice(members))
        g[key] = system.random_value(rng)
    g = {k: v for k, v in g.items() if not system.is_zero(v)}
    if not g:
        return True
    dg = standard_differential(g, members, system)
    sg = standard_column_contraction(g, base, system)
    back = standard_differential(sg, members, system)
    for key, v in standard_column_contraction(dg, base, system).items():
        back[key] = system.add(back.get(key, system.zero()), v)
    keys = set(back) | set(g)
    return all(system.is_zero(system.sub(back.get(k, system.zero()),
                                         g.get(k, system.zero())))
               for k in keys)


def _check_row_contraction(model: CoverModel, system: CoefficientSystem,
                           family: PartitionFamily, p: int, rng) -> bool:
    """Homotopy identity on a random page at (p, family.q)."""
    page = random_page(model, system, p, family.q, rng)
    return contraction_defect(page, family).is_zero()


def contraction_spot_checks(model: CoverModel, system: CoefficientSystem,
                            seed: int = 0) -> dict:
    rng = random.Random(seed)
    out = {"column": _check_column_contraction(model, system, rng)}
    for q in (0, 1):
        family = first_hit_family(model, q)
        for p in (0, 1):
            out[f"row_p{p}_q{q}"] = _check_row_contraction(model, system, family, p, rng)
    return out


# ---------------------------------------------------------------------------
# local vs nerve vs total


def verify_local_vs_cech(model: CoverModel, system: CoefficientSystem,
                         max_degree: int, spot_checks: bool = True,
                         seed: int = 0) -> ComparisonReport:
    """Profiles of the three intrinsic complexes, plus homotopy spot checks.

    The three-way agreement needs no hypothesis on the cover; the model's
    own simplicial profile, when a complex is present, is reported on the
    side because it only matches over acyclic intersections.
    """
    if not (system.is_field or isinstance(system, Integers)):
        raise CoefficientError(f"no profile comparison over {system.name}")
    specs = {
        "local": LocalComplexSpec(model),
        "cech": CechComplexSpec(model),
        "total": TotalComplexSpec(model),
    }
    profiles = {label: cohomology_profile(spec, system, max_degree)
                for label, spec in specs.items()}
    matches = _degreewise_match([profiles["local"], profiles["cech"],
                                 profiles["total"]], max_degree)
    extras: dict = {}
    if model.complex is not None:
        simp = cohomology_profile(
            SimplicialComplexSpec(model.u_small_subcomplex(), model.point_key),
            system, max_degree)
        profiles["simplicial"] = simp
        extras["simplicial_matches"] = [bool(simp[n] == profiles["local"][n])
                                        for n in range(max_degree + 1)]
    if spot_checks and system.is_exact:
        checks = contraction_spot_checks(model, system, seed)
        extras["contraction_checks"] = checks
        ok = all(checks.values())
    else:
        ok = True
    return ComparisonReport(
        kind="local-vs-cech", model_name=model.name, model_hash=model_hash(model),
        coefficients=system.name, max_degree=max_degree, profiles=profiles,
        matches=matches, isomorphic=all(matches) and ok, extras=extras)


# ---------------------------------------------------------------------------
# acyclicity of intersections


@dataclass(frozen=True)
class AcyclicityStatus:
    """Reduced-cohomology verdict for one intersection's full subcomplex.

    Empty intersections pass vacuously but stay distinguishable from a
    computed pass.
    """

    indices: tuple
    empty: bool
    acyclic: bool
    profile: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.empty or self.acyclic


def is_acyclic(model: CoverModel, indices: Sequence[int],
               system: CoefficientSystem) -> AcyclicityStatus:
    """Does the full subcomplex on an intersection look like a point?

    The first call on a model settles every nerve simplex at once
    (:func:`_nerve_statuses`); later calls look the status up.  Every index
    tuple with a nonempty intersection is a nerve simplex, so any other is
    empty once :meth:`CoverModel.intersection` has checked it.
    """
    if model.complex is None:
        raise ModelError("acyclicity needs a model with a complex")
    idx = tuple(indices)
    status = _nerve_statuses(model, system).get(idx)
    if status is not None:
        return status
    model.intersection(idx)
    return AcyclicityStatus(indices=idx, empty=True, acyclic=True)


def _nerve_statuses(model: CoverModel, system: CoefficientSystem) -> dict:
    """The status of every nerve simplex, from one batch kept on the model.

    Each distinct intersection is one block of a single
    :class:`SimplicialComplexSpec`: its full subcomplex plus its points
    that lie in no simplex, as isolated vertices.  :func:`block_profiles`
    then takes every block's profile, up to the block's own top degree,
    from one assembly per degree.
    """
    key = ("acyclic", system)
    with model._lock:
        cached = model._cache.get(key)
    if cached is not None:
        return cached
    where = {simplex: model.intersection(simplex) for simplex in model.nerve().simplices}
    block: dict = {}   # intersection -> block
    for pts in where.values():
        block.setdefault(pts, len(block))
    complexes = []
    for pts in block:
        simps = list(model.full_subcomplex(pts))
        have = {s[0] for s in simps if len(s) == 1}
        complexes.append(simps + [(p,) for p in pts if p not in have])
    spec = SimplicialComplexSpec(order_key=model.point_key, blocks=complexes)
    profiles = block_profiles(spec, system, [max(map(len, simps)) - 1 for simps in complexes])
    point, zero = (1, 0) if system.is_field else ((1, ()), (0, ()))
    statuses = {}
    for simplex, pts in where.items():
        profile = tuple(profiles[block[pts]])
        statuses[simplex] = AcyclicityStatus(
            indices=simplex, empty=False, profile=profile,
            acyclic=profile[0] == point and all(h == zero for h in profile[1:]))
    with model._lock:
        model._cache[key] = statuses
    return statuses


# ---------------------------------------------------------------------------
# the restriction map to simplicial cochains


def _restriction_matrix(model: CoverModel, simp_basis: tuple,
                        local_basis: tuple) -> list:
    """Rows select, per simplex, the coordinate of its vertex tuple."""
    pos = {t: c for c, t in enumerate(local_basis)}
    rows = []
    for s in simp_basis:
        if s not in pos:
            raise ModelError(f"simplex {s} has no tuple in the local basis")
        rows.append({pos[s]: 1})
    return rows


def _compose(second: Sequence[dict], first: Sequence[dict]) -> list:
    out = []
    for row in second:
        acc: dict = {}
        for mid, a in row.items():
            for col, b in first[mid].items():
                acc[col] = acc.get(col, 0) + a * b
        out.append({c: v for c, v in acc.items() if v})
    return out


def verify_lambda_iso(model: CoverModel, system: CoefficientSystem,
                      max_degree: int) -> ComparisonReport:
    """Restriction to simplices induces a bijection on cohomology.

    Gated on every nonempty intersection having an acyclic full subcomplex;
    the chain-map property is checked exactly on integer matrices before
    any rank is taken, and bijectivity is certified by the rank of the
    harvested cocycle images in the target quotient.
    """
    if not system.is_field:
        raise CoefficientError("induced-map ranks need field coefficients")
    if model.complex is None:
        raise ModelError("the restriction map needs a model with a complex")
    failures = []
    statuses = []
    for simplex in model.nerve().simplices:
        status = is_acyclic(model, simplex, system)
        statuses.append(status)
        if not status:
            failures.append(simplex)
    if failures:
        raise AcyclicityError(
            f"intersections {failures} have nonvanishing reduced cohomology; "
            "the restriction map cannot be certified on this cover")

    local_spec = LocalComplexSpec(model)
    simp_spec = SimplicialComplexSpec(model.u_small_subcomplex(), model.point_key)
    local_ranks, simp_ranks, induced = [], [], []
    chain_map_ok = True
    d_simp_below = None
    for n in range(max_degree + 1):
        d_local = assemble_matrix(local_spec, n)
        d_simp = assemble_matrix(simp_spec, n)
        kernel = kernel_basis(d_local, system)
        local_ranks.append(len(d_local.col_labels) - len(kernel))
        simp_ranks.append(matrix_rank(d_simp, system))
        lam_n = _restriction_matrix(model, d_simp.col_labels, d_local.col_labels)
        lam_next = _restriction_matrix(model, d_simp.row_labels, d_local.row_labels)
        if _compose(d_simp.rows, lam_n) != _compose(lam_next, d_local.rows):
            chain_map_ok = False
        images = [{s: vec[c] for s, row in enumerate(lam_n) for c in row if c in vec}
                  for vec in kernel]
        boundaries = [] if d_simp_below is None else d_simp_below.columns
        induced.append(rank_in_quotient(images, boundaries, system))
        d_simp_below = d_simp
    local_profile = profile_from_ranks(
        [len(local_spec.basis(n)) for n in range(max_degree + 2)], local_ranks)
    simp_profile = profile_from_ranks(
        [len(simp_spec.basis(n)) for n in range(max_degree + 2)], simp_ranks)

    matches = tuple(local_profile[n] == simp_profile[n] and induced[n] == local_profile[n]
                    for n in range(max_degree + 1))
    profiles = {"local": local_profile, "simplicial": simp_profile}
    extras = {
        "chain_map_exact": chain_map_ok,
        "acyclic_intersections": len(statuses),
        "empty_intersections": sum(1 for s in statuses if s.empty),
        "target": "ordered simplicial cochains on the cover-small subcomplex",
    }
    return ComparisonReport(
        kind="restriction-iso", model_name=model.name, model_hash=model_hash(model),
        coefficients=system.name, max_degree=max_degree, profiles=profiles,
        matches=matches, isomorphic=all(matches) and chain_map_ok,
        induced_ranks=tuple(induced), extras=extras)


# ---------------------------------------------------------------------------
# shrinking cyclic covers


def colimit_scan(m: int, radii: Sequence[int], system: CoefficientSystem,
                 max_degree: int = 1) -> list:
    """Total-complex profiles across arc radii, against the cycle's own.

    All radii valid for the group give the same profile on these models;
    the reports flag whether the scan stabilized and whether each matches
    the simplicial profile of the underlying cycle.
    """
    reports = []
    profiles = []
    for k in radii:
        model = left_invariant_cover(m, k)
        total = cohomology_profile(TotalComplexSpec(model), system, max_degree)
        simp = cohomology_profile(
            SimplicialComplexSpec(model.complex, model.point_key),
            system, max_degree)
        matches = _degreewise_match([total, simp], max_degree)
        profiles.append(tuple(total))
        reports.append(ComparisonReport(
            kind="colimit-scan", model_name=model.name,
            model_hash=model_hash(model), coefficients=system.name,
            max_degree=max_degree, profiles={"total": total, "simplicial": simp},
            matches=matches, isomorphic=all(matches),
            extras={"radius": int(k)}))
    stabilized = len(set(profiles)) <= 1
    out = []
    for rep in reports:
        extras = dict(rep.extras)
        extras["stabilized"] = stabilized
        out.append(ComparisonReport(
            kind=rep.kind, model_name=rep.model_name, model_hash=rep.model_hash,
            coefficients=rep.coefficients, max_degree=rep.max_degree,
            profiles=rep.profiles, matches=rep.matches,
            isomorphic=rep.isomorphic, extras=extras))
    return out


# ---------------------------------------------------------------------------
# random instances


def random_cover_model(rng: random.Random, max_points: int = 8,
                       max_sets: int = 4, max_set_size: int = 5,
                       name: str = "") -> CoverModel:
    """Seeded small instance: covered points, no complex.

    Set sizes stay small to keep exact total-complex ranks quick; coverage
    is repaired by adding stray points to the smallest set.
    """
    n = rng.randrange(2, max_points + 1)
    k = rng.randrange(1, max_sets + 1)
    points = list(range(n))
    sets = []
    for _ in range(k):
        size = rng.randrange(1, min(max_set_size, n) + 1)
        sets.append(set(rng.sample(points, size)))
    for p in points:
        if not any(p in s for s in sets):
            smallest = min(sets, key=len)
            smallest.add(p)
    cover = tuple(tuple(sorted(s)) for s in sets)
    return CoverModel(points=tuple(points), cover=cover,
                      cover_names=tuple(f"U{i}" for i in range(len(cover))),
                      complex=None, name=name or f"random{n}x{len(cover)}")
