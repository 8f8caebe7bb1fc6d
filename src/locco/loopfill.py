"""Loop contractions, the recursive simplex filler and sampled paths.

A loop contraction slides a carrier to its zero element through additive
maps: time 0 is the identity, time 1 the constant zero.  Out of it the
edge filler interpolates two points, and the recursive simplex filler turns
barycentric weights into carrier elements, one cone at a time.  Carriers are
numpy arrays, so vectors and uniformly sampled paths share all the code.

The filler works on batches: its core takes vertices shaped
``(rows, k, *carrier)`` and weights shaped ``(rows, k)``, renormalises the
weights depth by depth as the recursion does, then folds the cones from the
last vertex back; a weight above ``1 - BRANCH_EPS`` short-circuits its row
to that vertex.  ``sigma_fill`` is the checked batch of one.  A
contraction's ``apply`` sees a time per row, shaped to broadcast over the
carrier axes, so one written for a single element runs unchanged on a batch.

The property batteries draw their trials one at a time, in a fixed order
from one seeded generator, and check all of them with one batched fill per
property (in chunks that bound memory), so the reports depend only on the
seed.  They need at least one trial, a simplex size of at least 1 and a
finite tolerance of at least 0, and raise ``DomainError`` otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

BRANCH_EPS = 1e-12
DEFAULT_PATH_SAMPLES = 257
# a battery's --samples comes from outside: its trials are checked in chunks
# of about this many floats, so memory stays bounded however many there are
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class LoopContraction:
    """Additive family of self-maps with identity at 0 and zero map at 1.

    ``reversed`` adapts carriers whose native sliding runs the other way
    (zero map at 0); the evaluation flips the time argument.  A scalar time
    reaches ``apply`` as a float; times for a batch, one per row of ``v``,
    reach it shaped ``(rows, 1, ..., 1)`` so they broadcast over the carrier.
    """

    name: str
    apply: Callable
    reversed: bool = False

    def __call__(self, v, t):
        v = np.asarray(v, dtype=float)
        t = np.asarray(t, dtype=float)
        s = 1.0 - t if self.reversed else t
        if s.ndim == 0:
            return self.apply(v, float(s))
        return self.apply(v, s.reshape(s.shape + (1,) * (v.ndim - s.ndim)))


def linear_contraction() -> LoopContraction:
    """Straight-line sliding of a real vector space: v goes to (1 - t) v."""
    return LoopContraction(name="linear", apply=lambda v, t: (1.0 - t) * v)


# ---------------------------------------------------------------------------
# fillers


def edge_fill(contraction: LoopContraction, v0, w, t) -> np.ndarray:
    """Slide from w (time 0) to v0 (time 1) along the contraction."""
    v0 = np.asarray(v0, dtype=float)
    w = np.asarray(w, dtype=float)
    return v0 + np.asarray(contraction(w - v0, t))


def check_barycentric(weights: Sequence[float], tol: float = 1e-12) -> tuple:
    try:
        ws = tuple(float(w) for w in weights)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"barycentric weights must be numbers: {exc}") from exc
    if not ws:
        raise DomainError("need at least one barycentric weight")
    if not all(math.isfinite(w) for w in ws):
        raise DomainError(f"non-finite barycentric weight in {ws}")
    if any(w < -tol for w in ws):
        raise DomainError(f"negative barycentric weight in {ws}")
    if abs(sum(ws) - 1.0) > tol:
        raise DomainError(f"barycentric weights sum to {sum(ws)}, not 1")
    return ws


def sigma_fill(contraction: LoopContraction, vertices: Sequence,
               weights: Sequence[float], tol: float = 1e-12) -> np.ndarray:
    """Recursive cone filler: barycentric weights select a carrier element.

    The first weight drives an edge fill between the first vertex and the
    filler of the remaining vertices at renormalized weights; weight 1 on
    the first vertex short-circuits to that vertex.  Vertices must be finite
    and share one shape.
    """
    try:
        vs = [np.asarray(v, dtype=float) for v in vertices]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"vertices must be numeric arrays: {exc}") from exc
    shapes = sorted({v.shape for v in vs})
    if len(shapes) > 1:
        raise DomainError(f"vertices have unequal shapes {shapes}")
    ws = check_barycentric(weights, tol)
    if len(vs) != len(ws):
        raise DomainError(f"{len(vs)} vertices against {len(ws)} weights")
    stacked = np.stack(vs)
    if not np.isfinite(stacked).all():
        raise DomainError("vertex coordinates must be finite")
    return _fill_rows(contraction, stacked[None], np.array([ws]))[0]


def _fill_rows(contraction: LoopContraction, vertices: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
    """The filler on every row of a batch.

    ``vertices`` is shaped ``(rows, k, *carrier)`` and ``weights``
    ``(rows, k)``, each row barycentric; the result is ``(rows, *carrier)``.
    """
    rows, k = weights.shape
    carrier_axes = (1,) * (vertices.ndim - 2)
    times, shorts = [], []
    for _ in range(k - 1):
        t0 = weights[:, 0]
        short = t0 > 1.0 - BRANCH_EPS
        times.append(t0)
        shorts.append(short.reshape((rows,) + carrier_axes))
        # a short-circuited row never reads its deeper weights; dividing it by
        # 1 keeps them finite
        weights = weights[:, 1:] / np.where(short, 1.0, 1.0 - t0)[:, None]
    acc = vertices[:, k - 1]
    for j in range(k - 2, -1, -1):
        v = vertices[:, j]
        acc = np.where(shorts[j], v, edge_fill(contraction, v, acc, times[j]))
    return acc


def _weighted_sums(vertices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    acc = np.zeros(vertices.shape[:1] + vertices.shape[2:])
    carrier_axes = (1,) * (vertices.ndim - 2)
    for j in range(weights.shape[1]):
        acc = acc + weights[:, j].reshape((-1,) + carrier_axes) * vertices[:, j]
    return acc


def linear_combination(vertices: Sequence, weights: Sequence[float]) -> np.ndarray:
    """Closed form the filler must reproduce over a linear contraction."""
    vs = np.stack([np.asarray(v, dtype=float) for v in vertices])
    ws = np.array([float(w) for w in weights]).reshape(1, -1)
    return _weighted_sums(vs[None], ws)[0]


# ---------------------------------------------------------------------------
# property batteries


@dataclass(frozen=True)
class CheckReport:
    name: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
        }


def _max_dev(a, b) -> np.float64:
    """Largest absolute difference; a NaN anywhere makes it NaN."""
    return np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)),
                  initial=0.0)


def _uniform_weight_draws(rng, count: int) -> np.ndarray:
    return rng.uniform(1e-12, 1.0, size=count)


def _barycentric_from_draws(draws: np.ndarray) -> np.ndarray:
    """Normalised exponentials of uniform draws, per row of the last axis."""
    raw = -np.log(draws)
    return raw / raw.sum(axis=-1, keepdims=True)


def _run_check(name: str, trials: int, tol: float, draw_trial: Callable,
               deviation: Callable, count: int = 0) -> CheckReport:
    """Draw ``trials`` trials in order and check them a chunk at a time.

    ``draw_trial()`` returns one trial as a tuple of arrays or numbers;
    ``deviation`` gets each field stacked over a chunk of trials and returns
    the chunk's largest deviation.
    """
    dev = np.float64(0.0)
    chunk = 1
    batch = []
    for done in range(trials):
        batch.append(draw_trial())
        if done == 0:
            chunk = max(1, _CHUNK_CELLS // max(1, sum(np.size(f) for f in batch[0])))
        if len(batch) == chunk or done == trials - 1:
            dev = np.maximum(dev, deviation(*(np.stack(f) for f in zip(*batch))))
            batch = []
    dev = float(dev)
    return CheckReport(name, count or trials, dev, tol, dev <= tol)


def check_contraction_axioms(contraction: LoopContraction, carrier_samples,
                             rng, trials: int = 50, tol: float = 1e-9) -> CheckReport:
    """Identity at 0, zero at 1, additivity in the carrier argument."""
    pool = np.asarray(carrier_samples, dtype=float)

    def draw_trial():
        i = rng.integers(len(pool))
        j = rng.integers(len(pool))
        return i, j, float(rng.uniform(0.0, 1.0))

    def deviation(i, j, t):
        v, w = pool[i], pool[j]
        zeros = np.zeros(len(t))
        return np.max([_max_dev(contraction(v, zeros), v),
                       _max_dev(contraction(v, zeros + 1.0), 0.0),
                       _max_dev(contraction(v + w, t),
                                np.asarray(contraction(v, t)) + np.asarray(contraction(w, t)))])

    return _run_check("contraction-axioms", trials, tol, draw_trial, deviation,
                      count=3 * trials)


def check_vertex_property(contraction: LoopContraction, draw: Callable,
                          n: int, rng, trials: int = 50,
                          tol: float = 1e-12) -> CheckReport:
    """Weight 1 at slot i must return vertex i exactly.

    ``draw(rng, count)`` returns ``count`` random carrier elements stacked.
    """
    def draw_trial():
        vs = draw(rng, n + 1)
        return vs, rng.integers(n + 1)

    def deviation(vs, slot):
        rows = np.arange(len(slot))
        ws = np.zeros(vs.shape[:2])
        ws[rows, slot] = 1.0
        return _max_dev(_fill_rows(contraction, vs, ws), vs[rows, slot])

    return _run_check(f"vertex-property-n{n}", trials, tol, draw_trial, deviation)


def check_face_compatibility(contraction: LoopContraction, draw: Callable,
                             n: int, rng, trials: int = 50,
                             tol: float = 1e-12) -> CheckReport:
    """Inserting zero weight at a slot matches dropping that vertex."""
    def draw_trial():
        vs = draw(rng, n + 2)
        u = _uniform_weight_draws(rng, n + 1)
        return vs, u, rng.integers(n + 2)

    def deviation(vs, u, slot):
        ws = _barycentric_from_draws(u)
        keep = np.ones(vs.shape[:2], dtype=bool)
        keep[np.arange(len(slot)), slot] = False
        small = vs[keep].reshape((len(vs), n + 1) + vs.shape[2:])
        big_ws = np.zeros(vs.shape[:2])
        big_ws[keep] = ws.ravel()
        return _max_dev(_fill_rows(contraction, small, ws),
                        _fill_rows(contraction, vs, big_ws))

    return _run_check(f"face-compatibility-n{n}", trials, tol, draw_trial, deviation)


def check_additivity(contraction: LoopContraction, draw: Callable,
                     n: int, rng, trials: int = 50,
                     tol: float = 1e-12) -> CheckReport:
    """The filler is additive in the vertex family."""
    def draw_trial():
        both = draw(rng, 2 * (n + 1))
        return both[:n + 1], both[n + 1:], _uniform_weight_draws(rng, n + 1)

    def deviation(vs, us, u):
        ws = _barycentric_from_draws(u)
        lhs = _fill_rows(contraction, vs + us, ws)
        rhs = _fill_rows(contraction, vs, ws) + _fill_rows(contraction, us, ws)
        return _max_dev(lhs, rhs)

    return _run_check(f"additivity-n{n}", trials, tol, draw_trial, deviation)


def check_diagonal_constancy(contraction: LoopContraction, draw: Callable,
                             n: int, rng, trials: int = 50,
                             tol: float = 1e-12) -> CheckReport:
    """Equal vertices give a constant filler."""
    def draw_trial():
        return draw(rng, 1)[0], _uniform_weight_draws(rng, n + 1)

    def deviation(v, u):
        vs = np.repeat(v[:, None], n + 1, axis=1)
        return _max_dev(_fill_rows(contraction, vs, _barycentric_from_draws(u)), v)

    return _run_check(f"diagonal-constancy-n{n}", trials, tol, draw_trial, deviation)


def check_linear_oracle(contraction: LoopContraction, dim: int, n: int, rng,
                        trials: int = 100, tol: float = 1e-12) -> CheckReport:
    """Against the closed-form weighted sum; only for the linear contraction."""
    def draw_trial():
        vs = rng.uniform(-1.0, 1.0, size=(n + 1, dim))
        return vs, _uniform_weight_draws(rng, n + 1)

    def deviation(vs, u):
        ws = _barycentric_from_draws(u)
        return _max_dev(_fill_rows(contraction, vs, ws), _weighted_sums(vs, ws))

    return _run_check(f"linear-oracle-n{n}", trials, tol, draw_trial, deviation)


def _check_battery_args(n_max: int, trials: int, tol: float) -> None:
    if n_max < 1:
        raise DomainError(f"the largest simplex size must be at least 1, got {n_max}")
    if trials < 1:
        raise DomainError(f"a battery needs at least one trial, got {trials}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"the tolerance must be finite and nonnegative, got {tol}")


def vector_battery(dim: int, n_max: int, seed: int, trials: int = 50,
                   tol: float = 1e-12) -> list:
    """All filler checks on real vectors up to the requested simplex size."""
    if dim < 1:
        raise DomainError(f"the vector carrier needs dimension at least 1, got {dim}")
    _check_battery_args(n_max, trials, tol)
    rng = np.random.default_rng(seed)
    contraction = linear_contraction()
    draw = lambda r, count: r.uniform(-1.0, 1.0, size=(count, dim))
    out = [check_contraction_axioms(contraction, draw(rng, 8), rng, tol=tol)]
    for n in range(1, n_max + 1):
        out.append(check_vertex_property(contraction, draw, n, rng, trials, tol))
        out.append(check_face_compatibility(contraction, draw, n, rng, trials, tol))
        out.append(check_additivity(contraction, draw, n, rng, trials, tol))
        out.append(check_diagonal_constancy(contraction, draw, n, rng, trials, tol))
        out.append(check_linear_oracle(contraction, dim, n, rng, trials, tol))
    return out


# ---------------------------------------------------------------------------
# sampled paths


def _interp_rows(times: np.ndarray, grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Read each sampled path at its own times, one ``np.interp`` per path and component.

    ``values`` is shaped ``(rows, samples, *components)``, sampled on
    ``grid``, and ``times`` ``(rows, *query)``; the result is shaped
    ``(rows, *query, *components)``.
    """
    rows, samples = values.shape[:2]
    flat = values.reshape(rows, samples, int(np.prod(values.shape[2:])))
    out = np.empty((rows,) + times.shape[1:] + flat.shape[2:])
    for r in range(rows):
        for k in range(flat.shape[2]):
            out[r, ..., k] = np.interp(times[r], grid, flat[r, :, k])
    return out.reshape((rows,) + times.shape[1:] + values.shape[2:])


@dataclass(frozen=True)
class SampledPath:
    """Uniform samples of a based path; the first sample is the identity."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] < 2:
            raise DomainError("a sampled path needs at least two samples")
        if float(np.max(np.abs(arr[0]))) > 1e-12:
            raise DomainError("a based path must start at the identity")
        object.__setattr__(self, "values", arr)

    @property
    def samples(self) -> int:
        return int(self.values.shape[0])

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.samples)

    def at(self, t) -> np.ndarray:
        """Linear interpolation between samples."""
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        return _interp_rows(t[None], self.grid(), self.values[None])[0]

    def add(self, other: "SampledPath") -> "SampledPath":
        if self.values.shape != other.values.shape:
            raise DomainError("paths have different sample shapes")
        return SampledPath(self.values + other.values)


def path_from_function(func: Callable, samples: int = DEFAULT_PATH_SAMPLES) -> SampledPath:
    grid = np.linspace(0.0, 1.0, samples)
    return SampledPath(np.asarray([func(t) for t in grid], dtype=float))


def path_group_contraction(path: SampledPath, s: float) -> SampledPath:
    """Freeze the tail of a based path: resample at (1 - s) times the grid.

    At s = 0 the path is unchanged, at s = 1 only the identity remains, so
    the sliding runs in the package's orientation.
    """
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"contraction time must lie in [0, 1], got {s}")
    grid = path.grid()
    return SampledPath(path.at((1.0 - float(s)) * grid))


def path_loop_contraction(samples: int = DEFAULT_PATH_SAMPLES) -> LoopContraction:
    """The path-group contraction as a raw-array loop contraction.

    ``apply`` takes one path, shaped ``(samples, *components)``, at a float
    time, or a batch ``(rows, samples, *components)`` at one time per row.
    """
    grid = np.linspace(0.0, 1.0, samples)

    def apply(values: np.ndarray, s) -> np.ndarray:
        if np.ndim(s) == 0:
            return _interp_rows(((1.0 - s) * grid)[None], grid, values[None])[0]
        return _interp_rows((1.0 - np.reshape(s, (len(values), 1))) * grid, grid, values)

    return LoopContraction(name="path-group", apply=apply)


@functools.lru_cache(maxsize=8)
def _sine_modes(samples: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, samples)
    modes = np.stack([np.sin(0.5 * np.pi * k * grid) for k in (1, 2, 3)])
    modes.setflags(write=False)
    return modes


def random_path_values(rng, samples: int = DEFAULT_PATH_SAMPLES,
                       count: Optional[int] = None) -> np.ndarray:
    """Smooth random based path: a few sine modes vanishing at time zero.

    With ``count`` it returns that many paths stacked, drawn as ``count``
    calls in a row would draw them.
    """
    modes = _sine_modes(samples)
    coeffs = rng.uniform(-1.0, 1.0, size=3 if count is None else (count, 3))
    out = np.zeros(coeffs.shape[:-1] + (samples,))
    for k in range(3):
        out = out + coeffs[..., k, None] * modes[k]
    return out


def path_battery(n_max: int, seed: int, samples: int = DEFAULT_PATH_SAMPLES,
                 trials: int = 20, tol: float = 1e-9) -> list:
    """Filler checks over the sampled path carrier."""
    if samples < 2:
        raise DomainError(f"a sampled path needs at least two samples, got {samples}")
    _check_battery_args(n_max, trials, tol)
    rng = np.random.default_rng(seed)
    contraction = path_loop_contraction(samples)
    draw = lambda r, count: random_path_values(r, samples, count)
    out = [check_contraction_axioms(contraction, draw(rng, 6), rng, tol=tol)]
    for n in range(1, n_max + 1):
        out.append(check_vertex_property(contraction, draw, n, rng, trials, tol))
        out.append(check_face_compatibility(contraction, draw, n, rng, trials, tol))
        out.append(check_additivity(contraction, draw, n, rng, trials, tol))
        out.append(check_diagonal_constancy(contraction, draw, n, rng, trials, tol))
    return out
