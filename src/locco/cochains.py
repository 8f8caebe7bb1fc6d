"""Cochain carriers and their differentials.

Three kinds of cochains appear:

* local cochains: functions on the level-n diagonal neighborhood of a cover,
  with the alternating-sum differential;
* pages: alternating families indexed by strictly increasing cover-index
  tuples, each entry a function on a power of the matching intersection;
* simplicial cochains on an ordered complex.

All carriers are sparse maps; an absent key means the value is zero.  Every
differential here is one face-sum kernel on those maps: :func:`_cofaces`
lists the tuples one letter longer than a key, and :func:`_face_sum` takes
the alternating sum over position deletions at each of them.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .coeff import CoefficientSystem, PrimeField
from .errors import DomainError, ModelError
from .model import CoverModel


def permutation_sign(seq: Sequence[int]) -> int:
    """Parity of the permutation sorting seq; 0 when an entry repeats."""
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def _warn_two_torsion(system: CoefficientSystem) -> None:
    """Warn that a page over GF(2) drops repeated-index entries by convention.

    The warning names the first frame outside this package, the code that
    asked for the page: pages are built in many places inside the package,
    and the dataclass ``__init__`` that calls here runs in its globals too.
    """
    if isinstance(system, PrimeField) and system.p == 2:
        level, frame, inside = 2, sys._getframe(1), __package__ + "."
        while frame is not None and frame.f_globals.get("__name__", "").startswith(inside):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            "alternating storage treats repeated-index entries as zero; over a "
            "two-torsion system this is a convention, not a consequence",
            stacklevel=level,
        )


# ---------------------------------------------------------------------------
# the alternating face-sum kernel


def _cofaces(keys: Iterable[tuple], letters: Sequence, allowed: Optional[Callable] = None) -> set:
    """Every tuple made by inserting one letter at one position of one key,
    kept when ``allowed`` (if given) accepts it."""
    out = set()
    for key in keys:
        for pos in range(len(key) + 1):
            head, tail = key[:pos], key[pos:]
            for u in letters:
                cand = head + (u,) + tail
                if allowed is None or allowed(cand):
                    out.add(cand)
    return out


def _face_sum(values: Mapping, candidates: Iterable[tuple], system: CoefficientSystem,
              negate: bool = False) -> dict:
    """At each candidate, the alternating sum of ``values`` over its position
    deletions (negated when asked), zeros dropped."""
    out = {}
    for cand in candidates:
        acc = system.zero()
        sign = 1
        for i in range(len(cand)):
            v = values.get(cand[:i] + cand[i + 1:])
            if v is not None:
                acc = system.add(acc, v) if sign > 0 else system.sub(acc, v)
            sign = -sign
        if negate:
            acc = system.neg(acc)
        if not system.is_zero(acc):
            out[cand] = acc
    return out


def _increasing(t: tuple) -> bool:
    return all(a < b for a, b in zip(t, t[1:]))


# ---------------------------------------------------------------------------
# local cochains


@dataclass(frozen=True)
class LocalCochain:
    """Function on the level-n diagonal neighborhood of the cover."""

    model: CoverModel
    system: CoefficientSystem
    degree: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        domain = self.model.diagonal_neighborhood(self.degree)
        clean = {}
        for key, raw in self.values.items():
            t = tuple(key)
            if t not in domain:
                raise DomainError(f"tuple {t} is outside the level-{self.degree} neighborhood")
            v = self.system.check_value(raw)
            if not self.system.is_zero(v):
                clean[t] = v
        object.__setattr__(self, "values", clean)

    def __call__(self, t: Sequence):
        return self.values.get(tuple(t), self.system.zero())

    def _combine(self, other: "LocalCochain", op) -> "LocalCochain":
        if self.model is not other.model or self.degree != other.degree or self.system != other.system:
            raise DomainError("cochains live on different complexes")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = op(out.get(k, self.system.zero()), v)
        return LocalCochain(self.model, self.system, self.degree, out)

    def add(self, other: "LocalCochain") -> "LocalCochain":
        return self._combine(other, self.system.add)

    def sub(self, other: "LocalCochain") -> "LocalCochain":
        return self._combine(other, self.system.sub)

    def is_zero(self) -> bool:
        return not self.values

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "values": [
                {"tuple": list(t), "value": self.system.value_to_json(v)}
                for t, v in sorted(self.values.items(), key=lambda kv: self.model.point_key(kv[0]))
            ],
        }


def local_cochain_from_json(model: CoverModel, system: CoefficientSystem, doc: dict) -> LocalCochain:
    if "degree" not in doc or "values" not in doc:
        raise DomainError("cochain document needs degree and values")
    vals = {}
    for entry in doc["values"]:
        t = tuple(entry["tuple"])
        vals[t] = system.value_from_json(entry["value"])
    return LocalCochain(model, system, int(doc["degree"]), vals)


def local_differential(f: LocalCochain) -> LocalCochain:
    """Alternating sum over coordinate deletions, landing one level up."""
    target = f.model.diagonal_neighborhood(f.degree + 1)
    candidates = _cofaces(f.values, f.model.points, target.__contains__)
    return LocalCochain(f.model, f.system, f.degree + 1, _face_sum(f.values, candidates, f.system))


def random_local_cochain(model: CoverModel, system: CoefficientSystem, degree: int,
                         rng, entries: int = 6) -> LocalCochain:
    domain = model.diagonal_neighborhood(degree)
    vals = {}
    for _ in range(min(entries, len(domain))):
        t = domain.tuples[rng.randrange(len(domain))]
        vals[t] = system.random_value(rng)
    return LocalCochain(model, system, degree, vals)


# ---------------------------------------------------------------------------
# pages: alternating families of functions on intersection powers


@dataclass(frozen=True)
class CechPage:
    """Bidegree (p, q) family: for each increasing (p+1)-index tuple a
    function on the (q+1)-st power of the matching intersection."""

    model: CoverModel
    system: CoefficientSystem
    p: int
    q: int
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        _warn_two_torsion(self.system)
        if self.p < 0 or self.q < 0:
            raise DomainError(f"bidegree ({self.p}, {self.q}) is negative")
        clean = {}
        for raw_idx, func in self.components.items():
            idx = tuple(raw_idx)
            if len(idx) != self.p + 1:
                raise DomainError(f"component {idx} has wrong length for p = {self.p}")
            members = set(self.model.intersection(idx))  # validates the index tuple
            if not members:
                if any(not self.system.is_zero(self.system.check_value(v)) for v in func.values()):
                    raise DomainError(f"component {idx} must vanish: empty intersection")
                continue
            entry = {}
            for key, raw in func.items():
                t = tuple(key)
                if len(t) != self.q + 1 or any(c not in members for c in t):
                    raise DomainError(f"tuple {t} is outside the intersection power of {idx}")
                v = self.system.check_value(raw)
                if not self.system.is_zero(v):
                    entry[t] = v
            if entry:
                clean[idx] = entry
        object.__setattr__(self, "components", clean)

    def component(self, indices: Sequence[int]) -> dict:
        return self.components.get(tuple(indices), {})

    def value(self, indices: Sequence[int], t: Sequence):
        return self.component(indices).get(tuple(t), self.system.zero())

    def is_zero(self) -> bool:
        return not self.components

    def _combine(self, other: "CechPage", op) -> "CechPage":
        if (self.model is not other.model or self.p != other.p
                or self.q != other.q or self.system != other.system):
            raise DomainError("pages live at different bidegrees")
        out = {idx: dict(func) for idx, func in self.components.items()}
        for idx, func in other.components.items():
            tgt = out.setdefault(idx, {})
            for t, v in func.items():
                tgt[t] = op(tgt.get(t, self.system.zero()), v)
        return CechPage(self.model, self.system, self.p, self.q, out)

    def add(self, other: "CechPage") -> "CechPage":
        return self._combine(other, self.system.add)

    def sub(self, other: "CechPage") -> "CechPage":
        return self._combine(other, self.system.sub)

    def max_deviation(self, other: "CechPage") -> float:
        """Largest componentwise absolute difference; real-vector pages only."""
        dev = 0.0
        keys = set(self.components) | set(other.components)
        for idx in keys:
            pts = set(self.component(idx)) | set(other.component(idx))
            for t in pts:
                a = self.value(idx, t)
                b = other.value(idx, t)
                dev = max(dev, max(abs(x - y) for x, y in zip(a, b)))
        return dev


def evaluate_alternating(page: CechPage, indices: Sequence[int], t: Sequence):
    """Value of the alternating extension at a possibly unsorted index tuple."""
    idx = tuple(indices)
    if len(idx) != page.p + 1:
        raise DomainError(f"index tuple {idx} has wrong length for p = {page.p}")
    sign = permutation_sign(idx)
    if sign == 0:
        return page.system.zero()
    ordered = tuple(sorted(idx))
    members = set(page.model.intersection(ordered))
    tt = tuple(t)
    if len(tt) != page.q + 1 or any(c not in members for c in tt):
        raise DomainError(f"point tuple {tt} is outside the intersection power of {ordered}")
    v = page.value(ordered, tt)
    return v if sign > 0 else page.system.neg(v)


def cech_coboundary(page: CechPage) -> CechPage:
    """Alternating sum over index deletions, one Cech degree up.

    The page is regrouped by point tuple t; each index tuple holding t gains
    one cover index j with t inside U_j, at its increasing position.
    """
    model = page.model
    by_point: dict = {}
    for idx, func in page.components.items():
        for t, v in func.items():
            by_point.setdefault(t, {})[idx] = v
    out: dict = {}
    for t, values in by_point.items():
        letters = [j for j, members in enumerate(model.cover) if all(c in members for c in t)]
        candidates = _cofaces(values, letters, _increasing)
        for idx, v in _face_sum(values, candidates, page.system).items():
            out.setdefault(idx, {})[t] = v
    return CechPage(model, page.system, page.p + 1, page.q, out)


def page_vertical_differential(page: CechPage) -> CechPage:
    """Componentwise alternating-sum differential times (-1)^p, one q up."""
    out = {}
    for idx, func in page.components.items():
        candidates = _cofaces(func, page.model.intersection(idx))
        entry = _face_sum(func, candidates, page.system, negate=page.p % 2 == 1)
        if entry:
            out[idx] = entry
    return CechPage(page.model, page.system, page.p, page.q + 1, out)


# ---------------------------------------------------------------------------
# the standard complex of one set, with its cone contraction

def standard_differential(g: Mapping, members: Sequence, system: CoefficientSystem) -> dict:
    """Alternating-sum differential for functions keyed by k-tuples of one set.

    Keys of length 0 (the coefficient copy) are handled by the same formula;
    their image is the constant function.
    """
    return _face_sum(g, _cofaces(g, members), system)


def standard_column_contraction(g: Mapping, basepoint, system: CoefficientSystem) -> dict:
    """Cone operator: prepend the basepoint, dropping one tuple slot.

    Sends functions on k-tuples to functions on (k-1)-tuples; on 1-tuples the
    output is keyed by the empty tuple, the coefficient copy itself.
    """
    out = {}
    for key, v in g.items():
        if len(key) == 0:
            raise DomainError("cone contraction undefined on the coefficient copy")
        if key[0] == basepoint and not system.is_zero(v):
            out[key[1:]] = v
    return out


def smallest_point(model: CoverModel, members: Sequence):
    """Canonical basepoint of a set: its first point in model order."""
    ordered = model.sort_points(members)
    if not ordered:
        raise ModelError("cannot pick a basepoint in an empty set")
    return ordered[0]


# ---------------------------------------------------------------------------
# simplicial cochains


@dataclass(frozen=True)
class SimplicialCochain:
    """Cochain on an ordered simplicial complex, one value per n-simplex."""

    complex: tuple
    system: CoefficientSystem
    degree: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        allowed = {s for s in self.complex if len(s) == self.degree + 1}
        clean = {}
        for key, raw in self.values.items():
            s = tuple(key)
            if s not in allowed:
                raise DomainError(f"{s} is not a degree-{self.degree} simplex of the complex")
            v = self.system.check_value(raw)
            if not self.system.is_zero(v):
                clean[s] = v
        object.__setattr__(self, "values", clean)

    def __call__(self, simplex: Sequence):
        return self.values.get(tuple(simplex), self.system.zero())

    def is_zero(self) -> bool:
        return not self.values

    def _combine(self, other: "SimplicialCochain", op) -> "SimplicialCochain":
        if (self.complex, self.system, self.degree) != \
                (other.complex, other.system, other.degree):
            raise DomainError("simplicial cochains live on different complexes")
        keys = set(self.values) | set(other.values)
        vals = {k: op(self(k), other(k)) for k in keys}
        return SimplicialCochain(self.complex, self.system, self.degree, vals)

    def add(self, other: "SimplicialCochain") -> "SimplicialCochain":
        return self._combine(other, self.system.add)

    def sub(self, other: "SimplicialCochain") -> "SimplicialCochain":
        return self._combine(other, self.system.sub)


def simplicial_coboundary(c: SimplicialCochain) -> SimplicialCochain:
    """Alternating sum over vertex deletions at each (n+1)-simplex of the complex."""
    candidates = [s for s in c.complex if len(s) == c.degree + 2]
    return SimplicialCochain(c.complex, c.system, c.degree + 1,
                             _face_sum(c.values, candidates, c.system))


def vertex_pullback(f: LocalCochain, subcomplex: Optional[tuple] = None) -> SimplicialCochain:
    """Restrict a local cochain to ordered vertex tuples of cover-small simplices."""
    model = f.model
    if subcomplex is None:
        subcomplex = model.u_small_subcomplex()
    domain = model.diagonal_neighborhood(f.degree)
    vals = {}
    for simplex in subcomplex:
        if len(simplex) != f.degree + 1:
            continue
        if simplex not in domain:
            raise DomainError(f"vertex tuple {simplex} escapes the level-{f.degree} neighborhood")
        v = f.values.get(simplex)
        if v is not None:
            vals[simplex] = v
    return SimplicialCochain(subcomplex, f.system, f.degree, vals)
