"""Partition-of-unity constructions on sampled domains and group covers.

Everything here is checked on samples: bump composites, layered families,
the numerability rescue that upgrades a generalized partition to a locally
finite one, product families on tuple powers, tent families over metric
balls, and integer plateau families for shrunken cyclic covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bicomplex import PartitionFamily
from .errors import DomainError, SupportError, UncoveredSampleError
from .model import CoverModel, arc, left_invariant_cover, shrink_relation_check

BUMP_FLOOR = 1e-300
DEFAULT_RESCUE_LEVELS = 8
LOG_FLUSH = -50.0


def bump(x):
    """Smooth step seed: exp(-1/x) on the positive axis, zero elsewhere.

    Arguments below 1e-300 count as zero; the true value would underflow
    double precision anyway.
    """
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    mask = arr > BUMP_FLOOR
    np.divide(-1.0, arr, out=out, where=mask)
    np.exp(out, out=out, where=mask)
    return out if np.ndim(x) else float(out)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class SampledDomain:
    """Finite list of sample points, optionally with a pseudometric.

    ``points`` are hashable descriptors (angles, tuples of sample indices);
    ``coords`` and ``metric`` exist only on metric domains.  The metric is
    vectorized over coordinate arrays.
    """

    points: tuple
    name: str
    coords: Optional[np.ndarray] = None
    metric: Optional[Callable] = None

    @property
    def size(self) -> int:
        return len(self.points)

    def distances_from(self, center_index: int) -> np.ndarray:
        if self.metric is None or self.coords is None:
            raise DomainError(f"domain {self.name} carries no pseudometric")
        return np.asarray(self.metric(self.coords[center_index], self.coords), dtype=float)

    def check_pseudometric(self, rng, trials: int = 64, tol: float = 1e-12) -> bool:
        """Spot-check symmetry, triangle inequality and vanishing diagonal."""
        if self.metric is None:
            raise DomainError(f"domain {self.name} carries no pseudometric")
        for _ in range(trials):
            a, b, c = (int(rng.integers(self.size)) for _ in range(3))
            dab = float(self.metric(self.coords[a], self.coords[b]))
            dba = float(self.metric(self.coords[b], self.coords[a]))
            dac = float(self.metric(self.coords[a], self.coords[c]))
            dcb = float(self.metric(self.coords[c], self.coords[b]))
            daa = float(self.metric(self.coords[a], self.coords[a]))
            if abs(dab - dba) > tol or daa > tol or dab > dac + dcb + tol:
                return False
        return True


def circle_domain(n: int) -> SampledDomain:
    """n evenly spaced samples of the unit-circumference circle."""
    if n < 2:
        raise DomainError("a sampled circle needs at least two points")
    coords = np.arange(n, dtype=float) / n

    def metric(a, b):
        gap = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return np.minimum(gap, 1.0 - gap)

    return SampledDomain(points=tuple(float(t) for t in coords),
                         name=f"circle{n}", coords=coords, metric=metric)


def power_domain(base: SampledDomain, tuples: Sequence[tuple]) -> SampledDomain:
    """Domain whose samples are tuples of sample indices of the base."""
    pts = tuple(tuple(int(k) for k in t) for t in tuples)
    if not pts:
        raise DomainError("a power domain needs at least one tuple")
    arity = len(pts[0])
    if any(len(t) != arity for t in pts):
        raise DomainError("power-domain tuples must share one arity")
    return SampledDomain(points=pts, name=f"{base.name}^({arity})")


def group_tuple_domain(m: int, q: int) -> SampledDomain:
    """All (q+1)-tuples over the cyclic group of order m."""
    if m < 1 or q < 0:
        raise DomainError("group tuple domain needs m >= 1 and q >= 0")
    tuples = [()]
    for _ in range(q + 1):
        tuples = [t + (g,) for t in tuples for g in range(m)]
    return SampledDomain(points=tuple(tuples), name=f"Z{m}^({q + 1})")


# ---------------------------------------------------------------------------
# scalar families


@dataclass(frozen=True)
class ScalarFamily:
    """Dense per-index scalar functions with declared sample supports."""

    domain: SampledDomain
    labels: tuple
    values: np.ndarray            # shape (len(labels), domain.size)
    supports: np.ndarray          # boolean, same shape
    unity: bool = False
    name: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        sups = np.asarray(self.supports, dtype=bool)
        if vals.shape != (len(self.labels), self.domain.size):
            raise DomainError(f"family values have shape {vals.shape}, "
                              f"expected {(len(self.labels), self.domain.size)}")
        if sups.shape != vals.shape:
            raise DomainError("support masks must match the value shape")
        stray = np.logical_and(vals != 0.0, np.logical_not(sups))
        if stray.any():
            idx, sample = np.argwhere(stray)[0]
            raise SupportError(
                f"family {self.name or '?'}: index {self.labels[idx]} is nonzero "
                f"outside its declared support at sample {sample}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "supports", sups)

    @property
    def index_count(self) -> int:
        return len(self.labels)

    def sums(self) -> np.ndarray:
        return self.values.sum(axis=0)

    def max_sum_deviation(self) -> float:
        return float(np.max(np.abs(self.sums() - 1.0)))

    def active_counts(self) -> np.ndarray:
        return (self.values != 0.0).sum(axis=0)

    def max_active_count(self) -> int:
        return int(self.active_counts().max())

    def is_generalized_partition(self, tol: float = 1e-9) -> bool:
        return self.max_sum_deviation() <= tol

    def normalized(self, name: str = "") -> "ScalarFamily":
        s = self.sums()
        dead = np.flatnonzero(s == 0.0)
        if dead.size:
            raise UncoveredSampleError([int(k) for k in dead])
        return ScalarFamily(domain=self.domain, labels=self.labels,
                            values=self.values / s, supports=self.supports,
                            unity=True, name=name or (self.name + "-normalized"))

    def report(self) -> dict:
        return {
            "name": self.name,
            "domain": self.domain.name,
            "indices": self.index_count,
            "samples": self.domain.size,
            "unity": bool(self.unity),
            "max_sum_deviation": self.max_sum_deviation(),
            "max_active_count": self.max_active_count(),
            "uncovered_samples": int((self.sums() == 0.0).sum()),
        }


def arc_cover_family(domain: SampledDomain, k: int) -> ScalarFamily:
    """k tent functions on evenly spaced arc centers, normalized to unity.

    Half-width is 1/k, so neighboring tents overlap and the raw sum is
    already positive everywhere.
    """
    if k < 2:
        raise DomainError("an arc cover needs at least two arcs")
    hw = 1.0 / k
    rows = []
    sups = []
    for j in range(k):
        d = np.asarray(domain.metric(float(j) / k, domain.coords), dtype=float)
        rows.append(np.maximum(0.0, 1.0 - d / hw))
        sups.append(d < hw)
    raw = ScalarFamily(domain=domain, labels=tuple(range(k)),
                       values=np.asarray(rows), supports=np.asarray(sups),
                       name=f"arcs{k}")
    return raw.normalized(name=f"arcs{k}")


def layered_family(base: ScalarFamily, n: int, tol: float = 1e-9) -> ScalarFamily:
    """Level-n squeeze of a generalized partition through the bump.

    Values bump(phi_i^2 - 1/(n+1)^2) vanish wherever |phi_i| stays at or
    below 1/(n+1), so supports only shrink.
    """
    if n < 0:
        raise DomainError("layer level must be nonnegative")
    if not base.is_generalized_partition(tol):
        raise DomainError(
            f"layered family needs a generalized partition, deviation "
            f"{base.max_sum_deviation()} exceeds {tol}")
    shifted = base.values ** 2 - 1.0 / (n + 1) ** 2
    vals = bump(shifted)
    sups = np.logical_and(base.supports, shifted > BUMP_FLOOR)
    return ScalarFamily(domain=base.domain, labels=base.labels, values=vals,
                        supports=sups, name=f"{base.name}-layer{n}")


def numerability_rescue(layers: Sequence[ScalarFamily],
                        n_max: Optional[int] = None) -> ScalarFamily:
    """Merge squeezed layers into a normalized partition of unity.

    Level n is damped by n times the running total q_n of all earlier
    levels, then passed through the bump again and normalized.  The second
    bump is taken in log space: near support boundaries its honest value is
    exp of a large negative power and would flush to zero in double
    precision, losing coverage.  Ratios against the per-sample maximum are
    still representable; terms more than 50 e-folds below the leader are
    dropped.

    Samples untouched by every level up to the truncation are an error.
    """
    if not layers:
        raise DomainError("rescue needs at least one layer")
    if n_max is not None:
        layers = list(layers)[:n_max + 1]
    domain = layers[0].domain
    base_labels = layers[0].labels
    for fam in layers:
        if fam.domain is not domain and fam.domain.points != domain.points:
            raise DomainError("rescue layers must share one domain")
        if fam.labels != base_labels:
            raise DomainError("rescue layers must share one index set")

    log_rows = []
    labels = []
    supports = []
    running = np.zeros(domain.size)
    for n, fam in enumerate(layers):
        damped = fam.values - n * running
        pos = damped > BUMP_FLOOR
        logs = np.full(damped.shape, -np.inf)
        np.divide(-1.0, damped, out=logs, where=pos)
        for row in range(fam.index_count):
            log_rows.append(logs[row])
            labels.append((fam.labels[row], n))
            supports.append(pos[row])
        running = running + fam.values.sum(axis=0)

    log_vals = np.asarray(log_rows)
    peak = log_vals.max(axis=0)
    uncovered = np.flatnonzero(np.isneginf(peak))
    if uncovered.size:
        raise UncoveredSampleError([int(k) for k in uncovered])
    rel = log_vals - peak
    vals = np.where(rel >= LOG_FLUSH, np.exp(np.maximum(rel, LOG_FLUSH)), 0.0)
    vals = vals / vals.sum(axis=0)
    sups = np.logical_and(np.asarray(supports), vals != 0.0)
    return ScalarFamily(domain=domain, labels=tuple(labels), values=vals,
                        supports=sups, unity=True,
                        name=f"{layers[0].name.rsplit('-layer', 1)[0]}-rescue")


def rescue_partition(base: ScalarFamily,
                     n_max: int = DEFAULT_RESCUE_LEVELS) -> ScalarFamily:
    """Layer a generalized partition up to level n_max and rescue it."""
    layers = [layered_family(base, n) for n in range(n_max + 1)]
    return numerability_rescue(layers)


def refines_supports(fine: ScalarFamily, coarse: ScalarFamily) -> bool:
    """Each fine support must sit inside the named coarse support.

    Fine labels are (coarse label, level) pairs as produced by the rescue.
    """
    pos = {lab: k for k, lab in enumerate(coarse.labels)}
    for k, lab in enumerate(fine.labels):
        key = lab[0] if isinstance(lab, tuple) and lab and lab[0] in pos else lab
        if key not in pos:
            return False
        inside = coarse.supports[pos[key]]
        if np.logical_and(fine.supports[k], np.logical_not(inside)).any():
            return False
    return True


# ---------------------------------------------------------------------------
# product families on powers


def _strided(indices: np.ndarray, limit: int) -> np.ndarray:
    if indices.size <= limit:
        return indices
    step = -(-indices.size // limit)
    return indices[::step]


def product_family(base: ScalarFamily, q: int,
                   max_tuples_per_index: int = 10000) -> ScalarFamily:
    """Absolute products over sampled (q+1)-tuples, normalized to unity.

    Tuples are drawn deterministically: per index, a strided slice of its
    support is raised to the (q+1)-st power, so every tuple lies in the
    diagonal neighborhood by construction.  Values for all indices are then
    evaluated on the union.
    """
    if q < 0:
        raise DomainError("power level must be nonnegative")
    per_axis = max(1, int(max_tuples_per_index ** (1.0 / (q + 1))))
    chosen = []
    seen = set()
    for row in range(base.index_count):
        picks = _strided(np.flatnonzero(base.supports[row]), per_axis)
        if picks.size == 0:
            continue
        stack = [()]
        for _ in range(q + 1):
            stack = [t + (int(p),) for t in stack for p in picks]
        for t in stack:
            if t not in seen:
                seen.add(t)
                chosen.append(t)
    if not chosen:
        raise DomainError("no sampled tuples: every support is empty")
    domain = power_domain(base.domain, chosen)
    cols = np.asarray(chosen, dtype=int)
    vals = np.empty((base.index_count, len(chosen)))
    sups = np.empty((base.index_count, len(chosen)), dtype=bool)
    for row in range(base.index_count):
        factors = np.abs(base.values[row][cols])
        vals[row] = factors.prod(axis=1)
        sups[row] = base.supports[row][cols].all(axis=1)
    fam = ScalarFamily(domain=domain, labels=base.labels, values=vals,
                       supports=sups, name=f"{base.name}-power{q}")
    dead = np.flatnonzero(fam.sums() == 0.0)
    if dead.size:
        raise UncoveredSampleError([int(k) for k in dead])
    return fam.normalized(name=f"{base.name}-power{q}")


# ---------------------------------------------------------------------------
# metric ball families


def ball_family(domain: SampledDomain, eps: float,
                max_centers: int = 256) -> ScalarFamily:
    """Normalized tents over epsilon-balls around strided sample centers.

    The tent max(0, 1 - d/eps) is positive exactly on the sampled ball, so
    cozero sets match the balls; centers are strided to keep the family
    small on dense domains.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"ball radius must be positive and finite, got {eps}")
    centers = _strided(np.arange(domain.size), max_centers)
    rows = []
    sups = []
    for c in centers:
        d = domain.distances_from(int(c))
        rows.append(np.maximum(0.0, 1.0 - d / eps))
        sups.append(d < eps)
    raw = ScalarFamily(domain=domain, labels=tuple(int(c) for c in centers),
                       values=np.asarray(rows), supports=np.asarray(sups),
                       name=f"balls-eps{eps}")
    return raw.normalized(name=f"balls-eps{eps}")


# ---------------------------------------------------------------------------
# plateau families for shrunken cyclic covers


def plateau_family(m: int, k_u: int, k_v: int, q: int) -> ScalarFamily:
    """First-hit weights of the radius-k_u arcs, alive only on shrunken tuples.

    A tuple counts when all entries fit one radius-k_v arc; it then charges
    the least group element whose radius-k_u arc power contains it.  The sum
    is exactly one on the shrunken neighborhood and zero elsewhere.
    """
    if not shrink_relation_check(m, k_v, k_u):
        raise DomainError(
            f"arcs of radius {k_v} do not shrink those of radius {k_u} in Z{m}")
    domain = group_tuple_domain(m, q)
    u_arcs = [arc(m, k_u, g) for g in range(m)]
    v_arcs = [arc(m, k_v, g) for g in range(m)]
    vals = np.zeros((m, domain.size))
    sups = np.zeros((m, domain.size), dtype=bool)
    for col, t in enumerate(domain.points):
        for g in range(m):
            if all(x in u_arcs[g] for x in t):
                sups[g, col] = True
        if not any(all(x in v_arcs[g] for x in t) for g in range(m)):
            continue
        for g in range(m):
            if sups[g, col]:
                vals[g, col] = 1.0
                break
    return ScalarFamily(domain=domain, labels=tuple(range(m)), values=vals,
                        supports=sups, name=f"plateau-Z{m}-k{k_u}-{k_v}")


def plateau_partition(model: CoverModel, k_u: int, k_v: int,
                      q: int) -> PartitionFamily:
    """The plateau family as integer weights on a cyclic arc model."""
    m = len(model.points)
    if model.cover != tuple(frozenset(arc(m, k_u, g)) for g in range(m)):
        raise DomainError(
            f"model {model.name} is not the radius-{k_u} arc cover of Z{m}")
    fam = plateau_family(m, k_u, k_v, q)
    weights: dict = {g: {} for g in range(m)}
    for col, t in enumerate(fam.domain.points):
        for g in range(m):
            if fam.values[g, col] != 0.0:
                weights[g][t] = 1
    return PartitionFamily(model=model, q=q, weights=weights, unity=False,
                           label=f"plateau-k{k_u}-{k_v}")


def shrunken_tuples(m: int, k_v: int, q: int) -> tuple:
    """All (q+1)-tuples contained in one radius-k_v arc."""
    out = []
    for t in group_tuple_domain(m, q).points:
        if any(all(x in arc(m, k_v, g) for x in t) for g in range(m)):
            out.append(t)
    return tuple(out)
