"""Partition-of-unity constructions on sampled domains and group covers.

Everything here is checked on samples: bump composites, layered families,
the numerability rescue that upgrades a generalized partition to a locally
finite one, product families on tuple powers, tent families over metric
balls, and integer plateau families for shrunken cyclic covers.

The tent and product families are built in place: each holds one float
array of values and one bool array of supports, filled a block of rows at a
time and divided by its column sums where it lies, so no construction holds
a second dense copy of itself.  Power domains keep their tuples as one int
array and make the tuples of Python ints only when ``points`` is read.
"""

from __future__ import annotations

import functools
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
# rows are filled and checked in blocks of about this many cells, so the
# transient arrays beside a family stay small however large it is
_BLOCK_CELLS = 1 << 16


def _block_rows(width: int) -> int:
    return max(1, _BLOCK_CELLS // max(1, width))


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
    vectorized over coordinate arrays: ``metric(a, coords)`` broadcasts the
    coordinates ``a`` against every sample's, so a column of centers gives
    one row of distances per center.
    """

    points: tuple
    name: str
    coords: Optional[np.ndarray] = None
    metric: Optional[Callable] = None

    @property
    def size(self) -> int:
        return len(self.points)

    def _require_metric(self) -> None:
        if self.metric is None or self.coords is None:
            raise DomainError(f"domain {self.name} carries no pseudometric")

    def distances_from(self, center_index: int) -> np.ndarray:
        self._require_metric()
        return np.asarray(self.metric(self.coords[center_index], self.coords), dtype=float)

    def check_pseudometric(self, rng, trials: int = 64, tol: float = 1e-12) -> bool:
        """Spot-check symmetry, triangle inequality and vanishing diagonal."""
        self._require_metric()
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


class PowerDomain(SampledDomain):
    """Samples that are tuples of sample indices of a base domain.

    ``tuples`` holds them as one read-only int array, a row per sample;
    ``points`` makes the tuples of Python ints on its first read.
    """

    def __init__(self, tuples: np.ndarray, name: str):
        tuples.setflags(write=False)
        object.__setattr__(self, "tuples", tuples)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coords", None)
        object.__setattr__(self, "metric", None)

    @functools.cached_property
    def points(self) -> tuple:
        return tuple(map(tuple, self.tuples.tolist()))

    @property
    def size(self) -> int:
        return len(self.tuples)


def power_domain(base: SampledDomain, tuples) -> PowerDomain:
    """Domain whose samples are tuples of sample indices of the base.

    ``tuples`` is a sequence of equal-length tuples or an int array with a
    row per tuple; it is copied.
    """
    try:
        arr = np.array(tuples, dtype=np.intp)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"power-domain tuples must share one arity: {exc}") from exc
    if not len(arr):
        raise DomainError("a power domain needs at least one tuple")
    if arr.ndim != 2:
        raise DomainError("power-domain tuples must share one arity")
    return PowerDomain(arr, name=f"{base.name}^({arr.shape[1]})")


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
        step = _block_rows(vals.shape[1])
        for lo in range(0, len(vals), step):
            stray = np.logical_and(vals[lo:lo + step] != 0.0,
                                   np.logical_not(sups[lo:lo + step]))
            if stray.any():
                idx, sample = np.argwhere(stray)[0]
                raise SupportError(
                    f"family {self.name or '?'}: index {self.labels[lo + idx]} is "
                    f"nonzero outside its declared support at sample {sample}")
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

    def report(self) -> dict:
        sums = self.sums()
        return {
            "name": self.name,
            "domain": self.domain.name,
            "indices": self.index_count,
            "samples": self.domain.size,
            "unity": bool(self.unity),
            "max_sum_deviation": float(np.max(np.abs(sums - 1.0))),
            "max_active_count": self.max_active_count(),
            "uncovered_samples": int((sums == 0.0).sum()),
        }


def _divide_by_column_sums(values: np.ndarray) -> None:
    """Divide each column by its sum, in place; a zero sum is an uncovered sample."""
    sums = values.sum(axis=0)
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        raise UncoveredSampleError([int(k) for k in dead])
    values /= sums


def _tent_family(domain: SampledDomain, centers: np.ndarray, width: float,
                 labels: tuple, name: str) -> ScalarFamily:
    """Tents max(0, 1 - d/width) around center coordinates, normalized to unity.

    A block of rows at a time, the distances are written into the value
    array, the supports d < width are read off them and the tents are made
    where they lie; the column sums then divide the whole array in place.
    """
    domain._require_metric()
    values = np.empty((len(centers), domain.size))
    supports = np.empty(values.shape, dtype=bool)
    step = _block_rows(domain.size)
    for lo in range(0, len(centers), step):
        block = values[lo:lo + step]
        block[...] = domain.metric(centers[lo:lo + step, None], domain.coords)
        np.less(block, width, out=supports[lo:lo + step])
        np.divide(block, width, out=block)
        np.subtract(1.0, block, out=block)
        np.maximum(0.0, block, out=block)
    _divide_by_column_sums(values)
    return ScalarFamily(domain=domain, labels=labels, values=values,
                        supports=supports, unity=True, name=name)


def arc_cover_family(domain: SampledDomain, k: int) -> ScalarFamily:
    """k tent functions on evenly spaced arc centers, normalized to unity.

    Half-width is 1/k, so neighboring tents overlap and the raw sum is
    already positive everywhere.
    """
    if k < 2:
        raise DomainError("an arc cover needs at least two arcs")
    return _tent_family(domain, np.arange(k) / k, 1.0 / k, tuple(range(k)),
                        name=f"arcs{k}")


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


def numerability_rescue(layers: Sequence[ScalarFamily]) -> ScalarFamily:
    """Merge squeezed layers into a normalized partition of unity.

    Level n is damped by n times the running total q_n of all earlier
    levels, then passed through the bump again and normalized.  The second
    bump is taken in log space: near support boundaries its honest value is
    exp of a large negative power and would flush to zero in double
    precision, losing coverage.  Ratios against the per-sample maximum are
    still representable; terms more than 50 e-folds below the leader are
    dropped.

    Samples untouched by every level are an error.
    """
    if not layers:
        raise DomainError("rescue needs at least one layer")
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
    support is raised to the (q+1)-st power, as an index grid in
    lexicographic order, so every tuple lies in the diagonal neighborhood by
    construction.  The first occurrence of each tuple is kept, in the order
    the grids list them, and values for all indices are then evaluated on
    that union.
    """
    if q < 0:
        raise DomainError("power level must be nonnegative")
    if max_tuples_per_index < 1:
        raise DomainError(f"a product family needs at least one tuple per index, "
                          f"got max_tuples_per_index={max_tuples_per_index}")
    per_axis = max(1, int(max_tuples_per_index ** (1.0 / (q + 1))))
    grids = [np.empty((0, q + 1), dtype=np.intp)]
    for row in range(base.index_count):
        picks = _strided(np.flatnonzero(base.supports[row]), per_axis)
        axes = np.meshgrid(*[picks] * (q + 1), indexing="ij")
        grids.append(np.stack(axes, axis=-1).reshape(-1, q + 1))
    tuples = np.concatenate(grids)
    if not len(tuples):
        raise DomainError("no sampled tuples: every support is empty")
    _, first = np.unique(tuples, axis=0, return_index=True)
    domain = power_domain(base.domain, tuples[np.sort(first)])
    cols = domain.tuples
    vals = np.empty((base.index_count, domain.size))
    sups = np.empty(vals.shape, dtype=bool)
    for row in range(base.index_count):
        np.abs(base.values[row][cols]).prod(axis=1, out=vals[row])
        base.supports[row][cols].all(axis=1, out=sups[row])
    _divide_by_column_sums(vals)
    return ScalarFamily(domain=domain, labels=base.labels, values=vals,
                        supports=sups, unity=True, name=f"{base.name}-power{q}")


# ---------------------------------------------------------------------------
# metric ball families


def ball_family(domain: SampledDomain, eps: float,
                max_centers: int = 256) -> ScalarFamily:
    """Normalized tents over epsilon-balls around strided sample centers.

    The tent max(0, 1 - d/eps) is positive exactly on the sampled ball, so
    cozero sets match the balls; centers are strided to keep the family
    small on dense domains.  The family is built in place: besides its
    values and supports it holds only a block of rows at a time.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"ball radius must be positive and finite, got {eps}")
    if max_centers < 1:
        raise DomainError(f"a ball family needs at least one center, "
                          f"got max_centers={max_centers}")
    domain._require_metric()
    centers = _strided(np.arange(domain.size), max_centers)
    return _tent_family(domain, domain.coords[centers], eps,
                        tuple(int(c) for c in centers), name=f"balls-eps{eps}")


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
