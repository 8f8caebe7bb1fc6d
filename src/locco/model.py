"""Finite cover models: a point set, an ordered cover and an optional complex.

A model is the combinatorial stand-in for a space with an open cover.  All
tuple enumerations are ordered lexicographically by the position of each
point in the model's point list, so every downstream basis is reproducible.
A tuple is also coded as one integer, its point positions read as digits in
base |X| with the first most significant, so ascending codes are exactly that
order.  Bases are built as sorted code arrays, and the codes are the basis:
the point tuples are decoded only when a caller reads them, the whole set at
most once, or one tuple at a time.  Every power is enumerated by
:meth:`CoverModel.power_codes` and looked up by :meth:`TupleSet.positions`.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetError, ModelError

Point = object  # point ids are ints or strings; order comes from the model

DEFAULT_BUDGET = 2_000_000
BUDGET_ENV_VAR = "LOCCO_BUDGET"


_BUDGET_DIGITS = 4300   # the longest decimal string int() converts by default


def enumeration_budget() -> int:
    """Effective tuple budget: the env var, else the default.

    The value is a nonnegative integer, written plainly or in exponent
    form (``2e7``, ``2.5e3``) and read exactly; anything else is a
    :class:`ModelError`.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = Decimal(raw)
    except InvalidOperation:
        value = None
    if (value is None or not value.is_finite() or value != value.to_integral_value()
            or value.adjusted() >= _BUDGET_DIGITS):
        raise ModelError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")
    if value < 0:
        raise ModelError(f"{BUDGET_ENV_VAR} must be nonnegative, got {raw!r}")
    return int(value)


# ---------------------------------------------------------------------------
# integer codes of tuples


_INT64_MAX = 2 ** 63 - 1


def code_dtype(bound: int):
    """int64 when every code below ``bound`` fits, else ``object`` (Python ints).

    Digit weights and partial codes stay below the bound too, so once a basis
    has its dtype no arithmetic on it can wrap around.
    """
    return np.int64 if bound <= _INT64_MAX else object


def encode(digits: np.ndarray, radix: int, dtype) -> np.ndarray:
    """Codes of the rows of a (count, arity) digit array, first digit most significant."""
    digits = np.asarray(digits)
    arity = digits.shape[1]
    places = np.array([radix ** (arity - 1 - j) for j in range(arity)], dtype=dtype)
    return digits.astype(dtype) @ places


def decode(codes: np.ndarray, radix: int, arity: int) -> np.ndarray:
    """The (count, arity) int64 digit array of ``codes``; inverse of :func:`encode`."""
    digits = np.empty((len(codes), arity), dtype=np.int64)
    for j in reversed(range(arity)):
        digits[:, j] = codes % radix
        codes = codes // radix
    return digits


def decode_tuples(names: np.ndarray, codes: np.ndarray, arity: int) -> tuple:
    """The point tuples of ``codes``, digits in base ``len(names)`` naming points."""
    return tuple(map(tuple, names[decode(codes, len(names), arity)].tolist()))


def delete_digit(codes: np.ndarray, radix: int, weight) -> np.ndarray:
    """Codes with the digit of place value ``weight`` (a power of the radix,
    one per code or shared) removed: ``(c // (weight * radix)) * weight + c % weight``."""
    return codes // (weight * radix) * weight + codes % weight


def mask_positions(masks: Sequence[int], width: int) -> np.ndarray:
    """The point positions below ``width`` that bitmasks hold, ascending
    within each mask, one mask after another."""
    size = (width + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), size), axis=1, count=width, bitorder="little")
    return bits.nonzero()[1]


@dataclass(frozen=True, eq=False)
class TupleSet:
    """A finite set of point tuples of fixed length with a frozen basis order.

    The set is its ascending ``codes``; ``names`` holds the point id at each
    position, so the code digits name the points.  ``tuples`` is decoded on
    first use and :meth:`at` decodes a single tuple, while :meth:`positions`
    encodes a batch of items and searches the codes, decoding nothing; ``in``
    and :meth:`index` ask it about one item.  Two sets are equal when their
    arity, label, points and codes are.
    """

    arity: int                      # tuple length, n + 1 for level n
    codes: np.ndarray = field(repr=False)   # ascending, so tuples in point order
    names: np.ndarray = field(repr=False)   # point id by position, the digit radix
    label: str = ""

    @cached_property
    def tuples(self) -> tuple:
        """The tuples of the codes, in order, decoded once."""
        return decode_tuples(self.names, self.codes, self.arity)

    @cached_property
    def _digit_of(self) -> dict:
        return {x: k for k, x in enumerate(self.names.tolist())}

    def positions(self, items: Iterable) -> np.ndarray:
        """Where each of ``items`` is in the codes, as int64, or -1 for a
        non-member (a non-tuple, or a tuple of the wrong arity or with an
        unknown point id); one encoding and one binary search for them all."""
        digit_of, arity = self._digit_of, self.arity
        rows = [tuple(digit_of.get(x, -1) for x in item)
                if isinstance(item, tuple) and len(item) == arity else (-1,) * arity
                for item in items]
        digits = np.array(rows, dtype=np.int64).reshape(len(rows), arity)
        known = (digits >= 0).all(axis=1)
        wanted = encode(np.where(known[:, None], digits, 0), len(self.names), self.codes.dtype)
        at = self.codes.searchsorted(wanted)
        found = known & (np.concatenate((self.codes, [-1]))[at] == wanted)   # codes are never negative
        return np.where(found, at, -1)

    @property
    def degree(self) -> int:
        return self.arity - 1

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TupleSet):
            return NotImplemented
        return (self.arity == other.arity and self.label == other.label
                and np.array_equal(self.names, other.names)
                and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.arity, self.label, len(self.codes)))

    def at(self, k: int) -> tuple:
        """The k-th tuple, decoded on its own."""
        k = range(len(self.codes))[k]   # IndexError out of range; counts from the end if negative
        return decode_tuples(self.names, self.codes[k:k + 1], self.arity)[0]

    def __contains__(self, item) -> bool:
        return self.positions([item])[0] >= 0

    def index(self, item) -> int:
        k = int(self.positions([item])[0])
        if k < 0:
            raise KeyError(item)
        return k


@dataclass(frozen=True)
class Nerve:
    """Index tuples (strictly increasing) whose cover sets meet, sorted by
    length, then index, so the nerve through a lower dimension is a prefix;
    with the intersection of each as a bitmask of point positions when the
    model built it."""

    simplices: tuple
    masks: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def bounds(self) -> tuple:
        """Where each dimension starts in ``simplices``, then their count."""
        top = len(self.simplices[-1]) if self.simplices else 0
        return tuple(bisect_left(self.simplices, k, key=len) for k in range(1, top + 2))

    def span(self, p: int) -> range:
        """The positions of the dimension-p simplices."""
        bounds = self.bounds
        return range(bounds[p], bounds[p + 1]) if 0 <= p < len(bounds) - 1 else range(0)

    def of_dimension(self, p: int) -> tuple:
        at = self.span(p)
        return self.simplices[at.start:at.stop]

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.simplices)

    def __contains__(self, item) -> bool:
        return tuple(item) in self._members

    def __len__(self) -> int:
        return len(self.simplices)


@dataclass(frozen=True)
class CoverModel:
    """Finite point set with an ordered cover and an optional simplicial complex."""

    points: tuple
    cover: tuple                    # tuple of frozensets, file order is normative
    cover_names: tuple
    complex: Optional[tuple] = None  # strictly increasing vertex tuples
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cover", tuple(frozenset(m) for m in self.cover))
        object.__setattr__(self, "point_index", {p: k for k, p in enumerate(self.points)})
        names = np.empty(len(self.points), dtype=object)   # point ids by position
        for k, p in enumerate(self.points):
            names[k] = p
        object.__setattr__(self, "_names", names)
        self.validate()
        # each cover set as a bitmask of point positions
        object.__setattr__(self, "_masks", tuple(sum(1 << self.point_index[p] for p in members)
                                                 for members in self.cover))

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if len(self.points) == 0:
            raise ModelError("model has no points")
        if len(set(self.points)) != len(self.points):
            raise ModelError("duplicate point ids")
        if len(self.cover) == 0:
            raise ModelError("model has no cover sets")
        if len(self.cover_names) != len(self.cover):
            raise ModelError("cover_names must match cover length")
        pts = set(self.points)
        covered = set()
        for name, members in zip(self.cover_names, self.cover):
            if not members:
                raise ModelError(f"cover set {name} is empty")
            stray = members - pts
            if stray:
                raise ModelError(f"cover set {name} contains unknown points {sorted(map(str, stray))}")
            covered |= members
        if covered != pts:
            missing = sorted(str(p) for p in pts - covered)
            raise ModelError(f"cover does not cover the points {missing}")
        if self.complex is not None:
            self._validate_complex()

    def _validate_complex(self) -> None:
        seen = set()
        for simplex in self.complex:
            if len(simplex) == 0:
                raise ModelError("empty simplex in complex")
            for v in simplex:
                if v not in self.point_index:
                    raise ModelError(f"simplex {simplex} uses unknown vertex {v!r}")
            ranks = [self.point_index[v] for v in simplex]
            if any(a >= b for a, b in zip(ranks, ranks[1:])):
                raise ModelError(f"simplex {simplex} is not strictly increasing in point order")
            if simplex in seen:
                raise ModelError(f"duplicate simplex {simplex}")
            seen.add(simplex)
        for simplex in seen:
            if len(simplex) > 1:
                for k in range(len(simplex)):
                    face = simplex[:k] + simplex[k + 1:]
                    if face not in seen:
                        raise ModelError(f"complex not closed under faces: {face} missing from {simplex}")

    # -- ordering helpers ----------------------------------------------------

    def point_key(self, t: Sequence) -> tuple:
        return tuple(self.point_index[p] for p in t)

    def sort_points(self, pts: Iterable) -> tuple:
        return tuple(sorted(set(pts), key=lambda p: self.point_index[p]))

    # -- cover combinatorics --------------------------------------------------

    def cached(self, key, build, *args):
        """The value kept under ``key``, made by ``build(*args)`` on first use.

        The build runs outside the lock, so it may itself read the cache; if
        two threads race, the value stored first is the one kept.
        """
        with self._lock:
            value = self._cache.get(key)
        if value is None:
            value = build(*args)
            with self._lock:
                value = self._cache.setdefault(key, value)
        return value

    def power_codes(self, blocks: list, size: int, what: str) -> np.ndarray:
        """Codes of the tuples from intersections, in (block id, index tuple,
        arity, intersection bitmask) blocks with ascending ids: ``block id *
        size + tuple code``, so the codes ascend within each block as across
        blocks.

        The budget is charged |U_indices|^arity per block before any block is
        enumerated.  The blocks of one arity k and one size |U| are enumerated
        at once, as k-fold products of their points in point order.
        """
        limit = enumeration_budget()
        masks = [mask for _, _, _, mask in blocks]
        count = np.array([mask.bit_count() for mask in masks], dtype=np.int64)   # |U| per block
        arity = np.array([a for _, _, a, _ in blocks], dtype=np.int64)
        charge = sum(c ** a for c, a in zip(count.tolist(), arity.tolist()))
        if charge > limit:
            raise BudgetError(charge, limit, what)
        dtype = code_dtype(max((b + 1) * size for b, _, _, _ in blocks) if blocks else 1)
        offsets = np.array([b * size for b, _, _, _ in blocks], dtype=dtype)
        radix, positions = len(self.points), mask_positions(masks, len(self.points))
        first = np.cumsum(count) - count   # where each block's points start in ``positions``
        sizes = count ** arity
        start = np.cumsum(sizes) - sizes   # where each block's codes start
        codes = np.empty(int(sizes.sum()), dtype=dtype)
        for k, c in set(zip(arity.tolist(), count.tolist())):
            at = np.flatnonzero((arity == k) & (count == c))
            points = positions[first[at, None] + np.arange(c)].astype(dtype)
            t = np.zeros((len(at), 1), dtype=dtype)
            for _ in range(k):   # one more digit, least significant, on every tuple
                t = (t[:, :, None] * radix + points[:, None, :]).reshape(len(at), -1)
            codes[start[at, None] + np.arange(c ** k)] = offsets[at, None] + t
        return codes

    def diagonal_neighborhood(self, n: int) -> TupleSet:
        """All (n+1)-tuples lying in some cover set's (n+1)-st power.

        The budget is charged for the tuples the enumeration visits, the sum
        of |U_i|^(n+1) over the cover sets, before any is enumerated.  A level
        already enumerated is not charged again.
        """
        return self.cached(("diag", n), self._diagonal_neighborhood, n)

    def _diagonal_neighborhood(self, n: int) -> TupleSet:
        if n < 0:
            raise ModelError(f"level must be nonnegative, got {n}")
        blocks = [(0, (i,), n + 1, mask) for i, mask in enumerate(self._masks)]
        codes = self.power_codes(blocks, len(self.points) ** (n + 1),
                                 f"sum of |U_i|^{n + 1} over {len(self.cover)} cover sets")
        # every power is block 0, so the level is their sorted codes less repeats; a
        # stable sort shares its code with the assembly kernel's, and np.unique would
        # fault in about 0.8 MB more of numpy at first use
        codes.sort(kind="stable")
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        return TupleSet(n + 1, codes, self._names, f"diag[{n}]")

    def tuples_of(self, codes: np.ndarray, arity: int) -> tuple:
        """The point tuples of arity-tuple ``codes``, decoded now."""
        return decode_tuples(self._names, codes, arity)

    def intersection(self, indices: Sequence[int]) -> tuple:
        """Common points of the named cover sets, in point order."""
        idx = tuple(indices)
        return self.cached(("inter", idx), self._intersection, idx)

    def _intersection(self, idx: tuple) -> tuple:
        if len(idx) == 0:
            raise ModelError("need at least one cover index")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ModelError(f"cover indices must be strictly increasing, got {idx}")
        for i in idx:
            if not (0 <= i < len(self.cover)):
                raise ModelError(f"cover index {i} out of range 0..{len(self.cover) - 1}")
        common = set(self.cover[idx[0]])
        for i in idx[1:]:
            common &= self.cover[i]
        return self.sort_points(common)

    def intersection_power(self, indices: Sequence[int], arity: int) -> TupleSet:
        """All arity-tuples drawn from the intersection of the named sets,
        charged to the budget before any is enumerated."""
        idx = tuple(indices)
        return self.cached(("ipow", idx, arity), self._intersection_power, idx, arity)

    def _intersection_power(self, idx: tuple, arity: int) -> TupleSet:
        mask = sum(1 << self.point_index[p] for p in self.intersection(idx))
        label = f"U{idx}^{arity}"
        codes = self.power_codes([(0, idx, arity, mask)], len(self.points) ** arity, label)
        return TupleSet(arity, codes, self._names, label)

    def nerve(self, top: Optional[int] = None) -> Nerve:
        """The strictly increasing index tuples with nonempty intersection,
        through dimension ``top``, or all of them.

        The nerve grows one dimension at a time, each built once per model
        (:meth:`cached`), so asking for a lower dimension builds no more
        than it needs.  The budget is charged one unit per simplex through
        the dimension being built and checked after it, so enumeration
        stops within one dimension of passing the limit.
        """
        return self.cached(("nerve", top), self._nerve, top)

    def _nerve(self, top: Optional[int]) -> Nerve:
        simplices, masks, d = [], [], 0
        while (top is None or d <= top) and (layer := self._nerve_layer(d))[0]:
            simplices += layer[0]
            masks += layer[1]
            d += 1
        return Nerve(simplices=tuple(simplices), masks=tuple(masks))

    def _nerve_layer(self, d: int) -> tuple:
        """(simplices, intersection bitmasks) of nerve dimension d, in index order."""
        return self.cached(("nerve-layer", d), self._grow_nerve, d)

    def _grow_nerve(self, d: int) -> tuple:
        masks = self._masks
        if d == 0:
            simplices, common = [(i,) for i in range(len(masks))], list(masks)
        else:
            # a subset meets only if it extends a meeting subset one dimension down
            simplices, common = [], []
            for base, mask in zip(*self._nerve_layer(d - 1)):
                for j in range(base[-1] + 1, len(masks)):
                    if mask & masks[j]:
                        simplices.append(base + (j,))
                        common.append(mask & masks[j])
        limit = enumeration_budget()
        charge = len(simplices) + sum(len(self._nerve_layer(k)[0]) for k in range(d))
        if charge > limit:
            raise BudgetError(charge, limit, f"the nerve of {len(masks)} cover sets")
        return simplices, common

    def intersection_closure(self) -> dict:
        """Every distinct nonempty intersection of cover sets, named by the
        index tuple of all the cover sets that hold it, a nerve simplex with
        exactly that intersection, mapped to the number of nerve simplices
        whose intersection it is.

        The closure of the cover under intersection, kept as bitmasks of
        point positions, grows one round at a time, charging the budget one
        unit per intersection.  A set I held by c(I) cover sets lies in the
        intersection of 2^c(I) - 1 nerve simplices; those whose intersection
        is exactly I are that number less the counts of the closed sets
        above I, taken first.
        """
        return self.cached(("closure",), self._intersection_closure)

    def _intersection_closure(self) -> dict:
        masks, limit = self._masks, enumeration_budget()
        closed = set(masks)
        new = closed
        while new:
            if len(closed) > limit:
                raise BudgetError(len(closed), limit,
                                  f"the intersections of {len(masks)} cover sets")
            new = {a & m for a in new for m in masks if a & m} - closed
            closed |= new
        exact: dict = {}
        for common in sorted(closed, key=int.bit_count, reverse=True):
            holders = tuple(i for i, m in enumerate(masks) if common & m == common)
            exact[common] = holders, (1 << len(holders)) - 1 - sum(
                n for above, (_, n) in exact.items() if above & common == common)
        return dict(exact.values())

    def u_small_subcomplex(self) -> tuple:
        """Simplices of the model complex whose vertex set sits in one cover set."""
        if self.complex is None:
            raise ModelError("model has no complex")
        out = []
        for simplex in self.complex:
            vs = set(simplex)
            if any(vs <= members for members in self.cover):
                out.append(simplex)
        return tuple(sorted(out, key=lambda s: (len(s), self.point_key(s))))

    def full_subcomplex(self, vertex_set: Iterable) -> tuple:
        """Simplices of the model complex with all vertices in the given set."""
        if self.complex is None:
            raise ModelError("model has no complex")
        vs = set(vertex_set)
        out = [s for s in self.complex if set(s) <= vs]
        return tuple(sorted(out, key=lambda s: (len(s), self.point_key(s))))

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "points": list(self.points),
            "cover": [
                {"name": name, "members": list(self.sort_points(members))}
                for name, members in zip(self.cover_names, self.cover)
            ],
        }
        if self.complex is not None:
            doc["complex"] = [list(s) for s in self.complex]
        if self.name:
            doc["name"] = self.name
        return doc


def _point_ids(values: list, what: str) -> tuple:
    """Point ids are JSON scalars; a list or an object cannot name a point."""
    for v in values:
        if isinstance(v, (list, dict)):
            raise ModelError(f"{what} must hold scalar point ids, got {v!r}")
    return tuple(values)


def model_from_json_dict(doc: dict, name: str = "") -> CoverModel:
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    for key in ("points", "cover"):
        if key not in doc:
            raise ModelError(f"model document lacks required key {key!r}")
    points = doc["points"]
    if not isinstance(points, list):
        raise ModelError("points must be a list")
    cover_raw = doc["cover"]
    if not isinstance(cover_raw, list):
        raise ModelError("cover must be a list")
    cover, names = [], []
    for k, entry in enumerate(cover_raw):
        if not isinstance(entry, dict) or "members" not in entry:
            raise ModelError(f"cover entry {k} must be an object with a members list")
        members = entry["members"]
        if not isinstance(members, list):
            raise ModelError(f"cover entry {k} members must be a list")
        cover.append(frozenset(_point_ids(members, f"cover entry {k} members")))
        names.append(str(entry.get("name", f"U{k}")))
    complex_raw = doc.get("complex")
    cx = None
    if complex_raw is not None:
        if not (isinstance(complex_raw, list) and all(isinstance(s, list) for s in complex_raw)):
            raise ModelError("complex must be a list of vertex lists")
        cx = tuple(_point_ids(s, "complex simplices") for s in complex_raw)
    return CoverModel(
        points=_point_ids(points, "points"),
        cover=tuple(cover),
        cover_names=tuple(names),
        complex=cx,
        name=str(doc.get("name", name)),
    )


def load_model(path: str) -> CoverModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_json_dict(doc, name=os.path.splitext(os.path.basename(path))[0])


def left_invariant_cover(m: int, k: int) -> CoverModel:
    """Arc cover of the cyclic group of order m by radius-k balls around each element.

    The complex is the m-cycle.  k is capped so that arcs stay proper and the
    cycle edges stay cover-small: 1 <= k <= floor((m-1)/2) - 1.
    """
    if m < 3:
        raise ModelError(f"cyclic order must be at least 3, got {m}")
    cap = (m - 1) // 2 - 1
    if cap < 1:
        raise ModelError(f"cyclic order {m} leaves no valid radius")
    if not (1 <= k <= cap):
        raise ModelError(f"radius must satisfy 1 <= k <= {cap} for m = {m}, got {k}")
    points = tuple(range(m))
    cover = tuple(frozenset((g + d) % m for d in range(-k, k + 1)) for g in range(m))
    names = tuple(f"U{g}" for g in range(m))
    simplices = [(v,) for v in range(m)]
    for g in range(m):
        edge = tuple(sorted((g, (g + 1) % m)))
        simplices.append(edge)
    cx = tuple(sorted(set(simplices), key=lambda s: (len(s), s)))
    return CoverModel(points=points, cover=cover, cover_names=names, complex=cx,
                      name=f"cyclic{m}_arcs_k{k}")


def arc(m: int, radius: int, center: int = 0) -> frozenset:
    """Radius-ball arc around a element of the cyclic group of order m."""
    if radius < 0:
        raise ModelError(f"radius must be nonnegative, got {radius}")
    return frozenset((center + d) % m for d in range(-radius, radius + 1))


def shrink_relation_check(m: int, k_small: int, k_big: int) -> bool:
    """Whether difference tuples of the small arc stay inside the big arc.

    For arcs around the identity this asks that the set of products
    v0^{-1} v1 (v0, v1 in the small arc) is contained in the big arc.
    """
    if m < 1:
        raise ModelError(f"cyclic order must be positive, got {m}")
    if k_small < 0 or k_big < 0:
        raise ModelError("radii must be nonnegative")
    small = arc(m, k_small)
    big = arc(m, k_big)
    diffs = {(b - a) % m for a in small for b in small}
    return diffs <= big
