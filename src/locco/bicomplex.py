"""The page bicomplex: total cochains, augmentations and row contractions.

Pages at bidegree (p, q) are tied together by the index-deletion coboundary
and the signed point-tuple differential; these anticommute, so their sum is
a differential on the total complex.  Weight families subordinate to the
cover powers contract the rows: exactly when the family sums to one, up to
the weight sum otherwise, and through a simplex filler when values sit in a
contractible carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .coeff import CoefficientSystem, RealVectors
from .cochains import (CechPage, LocalCochain, cech_coboundary,
                       page_vertical_differential, permutation_sign)
from .errors import DomainError, SupportError
from .model import CoverModel


# ---------------------------------------------------------------------------
# weight families subordinate to the cover powers


@dataclass(frozen=True)
class PartitionFamily:
    """Per-index weights on level-q tuples, supported in the index's power.

    Weights are plain numbers (int, Fraction or float); integer weights act
    on every coefficient system.  When ``unity`` is set the family is checked
    to sum to one at every tuple of the level-q neighborhood.
    """

    model: CoverModel
    q: int
    weights: dict                 # cover index -> {tuple: weight}
    unity: bool = False
    label: str = ""
    tol: float = 1e-9

    def __post_init__(self):
        clean = {}
        for i, wmap in self.weights.items():
            if not (0 <= i < len(self.model.cover)):
                raise SupportError(f"weight index {i} out of range")
            members = self.model.cover[i]
            entry = {}
            for key, w in wmap.items():
                t = tuple(key)
                if len(t) != self.q + 1:
                    raise SupportError(f"tuple {t} has wrong arity for level {self.q}")
                if w == 0:
                    continue
                if any(c not in members for c in t):
                    raise SupportError(
                        f"weight for index {i} at {t} escapes its declared support")
                entry[t] = w
            if entry:
                clean[i] = entry
        object.__setattr__(self, "weights", clean)
        if self.unity:
            dev = self.max_unity_deviation()
            exact = all(not isinstance(w, float)
                        for wmap in clean.values() for w in wmap.values())
            if (exact and dev != 0) or (not exact and dev > self.tol):
                raise SupportError(f"family is not a partition of unity (deviation {dev})")

    def weight(self, i: int, t: tuple):
        return self.weights.get(i, {}).get(tuple(t), 0)

    def weight_sum(self, t: tuple):
        total = 0
        for wmap in self.weights.values():
            w = wmap.get(tuple(t))
            if w:
                total = total + w
        return total

    def active_indices(self, t: tuple) -> tuple:
        tt = tuple(t)
        return tuple(sorted(i for i, wmap in self.weights.items() if wmap.get(tt)))

    def max_unity_deviation(self) -> float:
        domain = self.model.diagonal_neighborhood(self.q)
        dev = 0
        for t in domain.tuples:
            delta = abs(self.weight_sum(t) - 1)
            if delta > dev:
                dev = delta
        return dev

    def is_nonnegative(self) -> bool:
        return all(w >= 0 for wmap in self.weights.values() for w in wmap.values())

    def to_json_dict(self) -> dict:
        entries = []
        for i in sorted(self.weights):
            for t in sorted(self.weights[i], key=self.model.point_key):
                w = self.weights[i][t]
                if isinstance(w, Fraction) and w.denominator != 1:
                    w = f"{w.numerator}/{w.denominator}"
                elif isinstance(w, Fraction):
                    w = int(w)
                entries.append({"index": i, "tuple": list(t), "weight": w})
        return {"level": self.q, "unity": self.unity, "weights": entries}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _weight_from_json(raw):
    """An int, a finite float or an ``"a/b"`` string; anything else is refused."""
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"weight {raw!r} is not a fraction a/b") from None
    if _is_int(raw) or (isinstance(raw, float) and math.isfinite(raw)):
        return raw
    raise DomainError(f"weight {raw!r} is not an int, a finite float or an a/b string")


def family_from_json(model: CoverModel, doc: dict) -> PartitionFamily:
    """The family of a ``{"level", "unity", "weights"}`` document, the form
    :meth:`PartitionFamily.to_json_dict` writes; a malformed one is a
    :class:`DomainError`."""
    if not isinstance(doc, dict) or "level" not in doc or "weights" not in doc:
        raise DomainError("family document needs level and weights")
    unity = doc.get("unity", False)
    if not (_is_int(doc["level"]) and isinstance(doc["weights"], list) and isinstance(unity, bool)):
        raise DomainError("family level must be an int, weights a list and unity a boolean")
    weights: dict = {}
    for entry in doc["weights"]:
        if not (isinstance(entry, dict) and {"index", "tuple", "weight"} <= entry.keys()):
            raise DomainError(f"weight entry {entry!r} needs index, tuple and weight")
        i, t = entry["index"], entry["tuple"]
        if not _is_int(i):
            raise DomainError(f"weight index {i!r} is not an int")
        if not isinstance(t, list) or any(isinstance(c, (list, dict)) for c in t):
            raise DomainError(f"weight tuple {t!r} is not a list of point ids")
        weights.setdefault(i, {})[tuple(t)] = _weight_from_json(entry["weight"])
    return PartitionFamily(model, doc["level"], weights, unity=unity)


def first_hit_family(model: CoverModel, q: int) -> PartitionFamily:
    """Indicator weights of the first cover set whose power holds each tuple."""
    weights: dict = {}
    for t in model.diagonal_neighborhood(q).tuples:
        for i, members in enumerate(model.cover):
            if all(c in members for c in t):
                weights.setdefault(i, {})[t] = 1
                break
    return PartitionFamily(model, q, weights, unity=True, label="first-hit")


def random_unity_family(model: CoverModel, q: int, rng, spread: int = 2) -> PartitionFamily:
    """Integer weights, random except the first active index restores the sum."""
    weights: dict = {}
    for t in model.diagonal_neighborhood(q).tuples:
        active = [i for i, members in enumerate(model.cover)
                  if all(c in members for c in t)]
        drawn = {i: rng.randrange(-spread, spread + 1) for i in active[1:]}
        drawn[active[0]] = 1 - sum(drawn.values())
        for i, w in drawn.items():
            if w:
                weights.setdefault(i, {})[t] = w
    return PartitionFamily(model, q, weights, unity=True, label="random-unity")


def uniform_unity_family(model: CoverModel, q: int) -> PartitionFamily:
    """Equal rational weight on every cover set whose power holds the tuple."""
    weights: dict = {}
    for t in model.diagonal_neighborhood(q).tuples:
        active = [i for i, members in enumerate(model.cover)
                  if all(c in members for c in t)]
        share = Fraction(1, len(active))
        for i in active:
            weights.setdefault(i, {})[t] = share
    return PartitionFamily(model, q, weights, unity=True, label="uniform")


# ---------------------------------------------------------------------------
# row contractions


def _require_page(page: CechPage, min_p: int) -> None:
    if page.p < min_p:
        raise DomainError(f"operation needs a page with p >= {min_p}, got p = {page.p}")


def _check_family(page: CechPage, family: PartitionFamily) -> None:
    if family.model is not page.model:
        raise DomainError("family and page live on different models")
    if family.q != page.q:
        raise DomainError(f"family level {family.q} does not match page level {page.q}")


def _contraction_candidates(page: CechPage) -> dict:
    cands: dict = {}
    for k, func in page.components.items():
        for m in range(len(k)):
            cands.setdefault(k[:m] + k[m + 1:], set()).update(func.keys())
    return cands


def _signed_value(page: CechPage, prefix: int, ivec: tuple, t: tuple):
    """Alternating value of the page at (prefix, *ivec) without domain checks."""
    if prefix in ivec:
        return None
    full = (prefix,) + ivec
    sign = permutation_sign(full)
    val = page.components.get(tuple(sorted(full)), {}).get(t)
    if val is None:
        return None
    return val if sign > 0 else page.system.neg(val)


def _contract(page: CechPage, family: PartitionFamily, combine: Callable) -> dict:
    """Entries {index tuple: {t: value}} of a row contraction, one Cech degree down.

    At each candidate (ivec, t), ``combine(terms)`` folds the triples
    (i, weight, alternating page value at (i, *ivec) or None) of every index
    i weighted at t, in family order; a None or zero result is dropped.
    """
    system = page.system
    out = {}
    for ivec, xs in _contraction_candidates(page).items():
        entry = {}
        for t in xs:
            terms = [(i, wmap[t], _signed_value(page, i, ivec, t))
                     for i, wmap in family.weights.items() if wmap.get(t)]
            value = combine(terms)
            if value is not None and not system.is_zero(value):
                entry[t] = value
        if entry:
            out[ivec] = entry
    return out


def _weighted_sum(system: CoefficientSystem) -> Callable:
    """The combine step of the linear contraction: sum of weight times value."""
    def combine(terms):
        acc = system.zero()
        for _, w, val in terms:
            if val is not None:
                acc = system.add(acc, system.scale(w, val))
        return acc
    return combine


def row_contraction(page: CechPage, family: PartitionFamily) -> CechPage:
    """Weighted first-index sum, one Cech degree down (p >= 1)."""
    _require_page(page, 1)
    _check_family(page, family)
    out = _contract(page, family, _weighted_sum(page.system))
    return CechPage(page.model, page.system, page.p - 1, page.q, out)


def row_contraction_to_local(page: CechPage, family: PartitionFamily) -> LocalCochain:
    """The p = 0 companion: lands in the local cochains of the same level."""
    if page.p != 0:
        raise DomainError(f"companion entry point needs p = 0, got p = {page.p}")
    _check_family(page, family)
    values = _contract(page, family, _weighted_sum(page.system)).get((), {})
    return LocalCochain(page.model, page.system, page.q, values)


def contraction_defect(page: CechPage, family: PartitionFamily) -> CechPage:
    """h∘δ + δ∘h − id on a page, for the row contraction h by ``family``.

    At p = 0, δ∘h is the augmentation of the local contraction.  The page is
    zero exactly when the homotopy identity holds on ``page``.
    """
    if page.p >= 1:
        left = cech_coboundary(row_contraction(page, family))
    else:
        left = augment_local(row_contraction_to_local(page, family))
    return left.add(row_contraction(cech_coboundary(page), family)).sub(page)


def approximate_row_contraction(page: CechPage, family: PartitionFamily):
    """Same formula without the unity requirement.

    Returns the contracted page together with the family's weight-sum
    function on the level-q neighborhood; the contraction identity holds up
    to pointwise multiplication by that sum.
    """
    _require_page(page, 1)
    _check_family(page, family)
    contracted = row_contraction(page, family)
    sums = {t: family.weight_sum(t)
            for t in page.model.diagonal_neighborhood(page.q).tuples}
    return contracted, sums


def scale_page_by_weight_sum(page: CechPage, sums: dict) -> CechPage:
    """Multiply every stored value by the weight sum at its tuple."""
    system = page.system
    out = {}
    for idx, func in page.components.items():
        entry = {}
        for t, v in func.items():
            w = sums.get(t, 0)
            if w:
                scaled = system.scale(w, v)
                if not system.is_zero(scaled):
                    entry[t] = scaled
        if entry:
            out[idx] = entry
    return CechPage(page.model, system, page.p, page.q, out)


def sigma_row_contraction(page: CechPage, family: PartitionFamily,
                          fill: Callable) -> CechPage:
    """Row contraction through a simplex filler on the active indices.

    ``fill(vertices, weights)`` receives the alternating page values at the
    active indices (smallest first) and the matching weights, which must be
    barycentric.  With a linear filler this reproduces the weighted sum.
    """
    _require_page(page, 1)
    _check_family(page, family)
    if not isinstance(page.system, RealVectors):
        raise DomainError("the filler route needs real-vector values")
    if not family.is_nonnegative():
        raise SupportError("filler weights must be nonnegative barycentric coordinates")
    if not family.unity:
        raise SupportError("filler weights must sum to one")
    zero = page.system.zero()

    def combine(terms):
        if not terms:
            return None
        terms.sort(key=lambda term: term[0])   # the filler takes the smallest index first
        return tuple(fill([zero if val is None else val for _, _, val in terms],
                          [float(w) for _, w, _ in terms]))

    out = _contract(page, family, combine)
    return CechPage(page.model, page.system, page.p - 1, page.q, out)


# ---------------------------------------------------------------------------
# total cochains


@dataclass(frozen=True)
class TotalCochain:
    """Degree-n element of the total complex: one page per p with p + q = n."""

    model: CoverModel
    system: CoefficientSystem
    degree: int
    pages: dict = field(default_factory=dict)  # p -> CechPage

    def __post_init__(self):
        clean = {}
        for p, page in self.pages.items():
            if page.p != p or page.p + page.q != self.degree:
                raise DomainError(
                    f"page at ({page.p}, {page.q}) cannot sit in total degree {self.degree}")
            if page.model is not self.model or page.system != self.system:
                raise DomainError("page does not match the total cochain")
            if not page.is_zero():
                clean[p] = page
        object.__setattr__(self, "pages", clean)

    def page(self, p: int) -> CechPage:
        got = self.pages.get(p)
        if got is not None:
            return got
        return CechPage(self.model, self.system, p, self.degree - p, {})

    def is_zero(self) -> bool:
        return not self.pages

    def _combine(self, other: "TotalCochain", op) -> "TotalCochain":
        if (self.model is not other.model or self.degree != other.degree
                or self.system != other.system):
            raise DomainError("total cochains live in different degrees")
        out = {p: op(self.page(p), other.page(p)) for p in set(self.pages) | set(other.pages)}
        return TotalCochain(self.model, self.system, self.degree, out)

    def add(self, other: "TotalCochain") -> "TotalCochain":
        return self._combine(other, CechPage.add)

    def sub(self, other: "TotalCochain") -> "TotalCochain":
        return self._combine(other, CechPage.sub)


def total_from_page(page: CechPage) -> TotalCochain:
    return TotalCochain(page.model, page.system, page.p + page.q, {page.p: page})


def total_differential(tc: TotalCochain, max_degree: Optional[int] = None) -> TotalCochain:
    """Index-deletion part plus signed point-tuple part, one degree up."""
    if max_degree is not None and tc.degree + 1 > max_degree:
        raise DomainError(
            f"total degree {tc.degree + 1} exceeds the requested truncation {max_degree}")
    acc: dict = {}

    def mix(p: int, page: CechPage) -> None:
        if page.is_zero():
            return
        if p in acc:
            acc[p] = acc[p].add(page)
        else:
            acc[p] = page

    for p, page in tc.pages.items():
        mix(p + 1, cech_coboundary(page))
        mix(p, page_vertical_differential(page))
    return TotalCochain(tc.model, tc.system, tc.degree + 1, acc)


# ---------------------------------------------------------------------------
# augmentations into the total complex


def augment_local(f: LocalCochain) -> CechPage:
    """Restrict a local cochain to every cover power: the (0, q) page."""
    model = f.model
    components = {}
    for i, members in enumerate(model.cover):
        entry = {t: v for t, v in f.values.items() if all(c in members for c in t)}
        if entry:
            components[(i,)] = entry
    return CechPage(model, f.system, 0, f.degree, components)


def augment_cech(model: CoverModel, system: CoefficientSystem,
                 degree: int, values: dict) -> CechPage:
    """Spread constants over each intersection: the (p, 0) page."""
    components = {}
    for raw_idx, v in values.items():
        idx = tuple(raw_idx)
        if len(idx) != degree + 1:
            raise DomainError(f"index tuple {idx} has wrong length for degree {degree}")
        members = model.intersection(idx)
        if not members:
            if not system.is_zero(system.check_value(v)):
                raise DomainError(f"constant on empty intersection {idx}")
            continue
        if not system.is_zero(system.check_value(v)):
            components[idx] = {(u,): v for u in members}
    return CechPage(model, system, degree, 0, components)


# ---------------------------------------------------------------------------
# random pages for verification runs


def random_page(model: CoverModel, system: CoefficientSystem, p: int, q: int,
                rng, entries: int = 5) -> CechPage:
    nerve = model.nerve()
    simplices = nerve.of_dimension(p)
    components: dict = {}
    if not simplices:
        return CechPage(model, system, p, q, {})
    for _ in range(entries):
        idx = simplices[rng.randrange(len(simplices))]
        power = model.intersection_power(idx, q + 1)
        if len(power) == 0:
            continue
        t = power.tuples[rng.randrange(len(power))]
        components.setdefault(idx, {})[t] = system.random_value(rng)
    return CechPage(model, system, p, q, components)
