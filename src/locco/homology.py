"""Exact cohomology: basis enumeration, integer matrices, ranks and torsion.

Differentials of all complexes used here have integer entries, so dimension
profiles over a field reduce to exact ranks of integer matrices.  A basis is
its ascending integer codes: sizes, matrices and ranks read only those, and
labels are decoded from them when a caller first asks for them
(:meth:`ComplexSpec.basis`).  The tuples of a nerve-blocked basis are
enumerated for all blocks of one arity at once.  Every differential is
assembled in index space by one kernel, :func:`assemble_matrix`: basis
elements are integer codes, faces are found by deleting a digit or swapping
a block and matched to their columns by binary search.

One column sweep, :func:`_sweep`, eliminates over Z, Q and GF(p), unit
pivots first (Dumas, Heckenbach, Saunders and Welker 2003).  It takes the
columns last first; a column whose lead, its least row, is a unit (±1, or
any nonzero value mod p) held by no pivot is recorded by its index and
built only when a later column leads there, so most columns of a
differential are never built as dicts.  Any other column is cleared by the
pivots at its leads, and one left with a lead that is not a unit is set
aside, which never happens mod p.  A field rank counts the unit pivots and
adds an :class:`Echelon` of the set-aside columns (:func:`matrix_rank`); a
kernel is the same sweep with each column tagged by its own index, with no
back-substitution (:func:`kernel_basis`).  Over the integers the Smith
normal form is the sweep with its column operations kept, and what the
set-aside columns keep off the pivots' rows, the remainder, is finished by
a search for an entry of least absolute value.  Once d_n d_{n-1} = 0 is
checked exactly by a sparse product, d_n's sweep leaves out every column at
which a pivot of d_{n-1} leads, a unit pivot over the integers: its kernel
is then h_n cocycle representatives.  The Smith certificate is the sweep's
column operations and the remainder's own: the check replays the first on a
fresh copy of the matrix and confirms the unit echelon, whose finish by row
operations then exists, and replays the second on the remainder alone, with
no determinant taken.  Many small simplicial complexes are computed together
as the blocks of one :class:`SimplicialComplexSpec`: its differentials are
block-diagonal, so one assembly and one sweep per degree give each block's
rank (:func:`block_profiles`), while over the integers each block keeps a
Smith form of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .coeff import CoefficientSystem, Integers, PrimeField, Rationals
from .errors import BudgetError, CoefficientError, ModelError
from .model import (CoverModel, Nerve, code_dtype, delete_digit, encode, enumeration_budget,
                    mask_positions)

# ---------------------------------------------------------------------------
# complex descriptors: ordered bases, their integer codes and one face rule


class FaceRule:
    """How d_n finds the faces of the degree-(n+1) basis on integer codes.

    A code is ``block * row_size + t``, where ``t`` codes a tuple of
    ``arity[block]`` digits in base ``radix``, the first most significant.
    Deleting tuple position j gives a face in the same block with sign
    ``weight[block] * (-1)^j`` (none where the weight is 0).  Deleting
    index k of the block keeps the tuple and moves to block
    ``face_blocks[block][k]`` (none where it is -1) with sign (-1)^k.  Face
    codes are ``block * col_size + tuple code``.  The kernel reads three
    tables with one row per block: ``places``, the place value of each
    deleted digit (1 past the arity); ``blocks``, the face blocks, a 2-d
    int array; and ``signs``, point faces then index faces, 0 where there is
    no face.  Each is built at once over the blocks; the place values come
    from a table of Python-int powers, so they stay exact past int64.
    """

    def __init__(self, radix: int, row_size: int, col_size: int, arity, weight,
                 face_blocks: np.ndarray):
        self.radix, self.row_size, self.col_size = radix, row_size, col_size
        arity = np.asarray(arity, dtype=np.int64)[:, None]
        width = int(arity.max(initial=0))
        j = np.arange(width)
        powers = np.array([radix ** e for e in range(width)], dtype=code_dtype(radix ** width))
        self.places = powers[np.maximum(arity - 1 - j, 0)]
        self.blocks = face_blocks
        alternate = 1 - 2 * (np.arange(max(width, face_blocks.shape[1])) % 2)   # (-1)^j
        point = np.where(j < arity, np.asarray(weight, dtype=np.int64)[:, None] * alternate[:width], 0)
        index = np.where(face_blocks >= 0, alternate[:face_blocks.shape[1]], 0)
        self.signs = np.concatenate((point, index), axis=1)


@lru_cache(maxsize=256)
def _alternating_rule(radix: int, arity: int, blocks: int = 1) -> FaceRule:
    """Alternating deletion on arity-tuples in each of ``blocks`` blocks, with
    no index faces; shared by every spec."""
    return FaceRule(radix, radix ** arity, radix ** (arity - 1), [arity] * blocks,
                    [1] * blocks, np.zeros((blocks, 0), dtype=np.int64))


def _block_faces(nerve: Nerve, offset: int = 0, empty: int = -1) -> np.ndarray:
    """Face blocks of a nerve's simplices for :class:`FaceRule`, one int64
    row per block: simplex b is block ``offset + b`` and its row lists it
    with each index deleted in turn, padded with -1.  The empty tuple is
    block ``empty`` (-1: no face); the ``offset`` leading blocks have no
    index faces.  A degree's rule reads the first columns.  Each face is
    found by binary search among the simplices one dimension down, coded
    with their indices as digits in base one past the last vertex."""
    bounds, radix = nerve.bounds, 1 + max((s[0] for s in nerve.of_dimension(0)), default=0)
    table = np.full((offset + len(nerve), len(bounds) - 1), -1, dtype=np.int64)
    for d in range(len(bounds) - 1):
        rows = slice(offset + bounds[d], offset + bounds[d + 1])
        codes = encode(np.array(nerve.of_dimension(d)), radix, code_dtype(radix ** (d + 1)))
        for k in range(d + 1):
            table[rows, k] = empty if d == 0 else offset + bounds[d - 1] + below.searchsorted(
                delete_digit(codes, radix, radix ** (d - k)))
        below = codes
    return table


def _nerve_faces(model: CoverModel, top: int) -> np.ndarray:
    """The face table of ``model.nerve(top)``, built once per model and
    prefix, and shared by every spec that reads it."""
    return model.cached(("block-faces", top), _block_faces, model.nerve(top))


def _power_blocks(model: CoverModel, blocks: list, size: int, what: str) -> np.ndarray:
    """Codes of the tuples from intersections, in (block id, index tuple,
    arity, intersection bitmask) blocks with ascending ids: ``block id *
    size + tuple code``.

    The budget is charged |U_indices|^arity per block before any block is
    enumerated.  Each run of blocks of one arity is enumerated at once: the
    j-th tuple of a block is j written in base |U| with the first digit
    most significant, each digit naming a point of U in point order, so the
    codes ascend within each block as across blocks.
    """
    limit = enumeration_budget()
    masks = [mask for _, _, _, mask in blocks]
    count = np.array([mask.bit_count() for mask in masks], dtype=np.int64)   # |U| per block
    charge = sum(c ** a for c, (_, _, a, _) in zip(count.tolist(), blocks))
    if charge > limit:
        raise BudgetError(charge, limit, what)
    dtype = code_dtype(max((b + 1) * size for b, _, _, _ in blocks) if blocks else 1)
    ids = np.array([b for b, _, _, _ in blocks], dtype=np.int64)
    arity = np.array([a for _, _, a, _ in blocks], dtype=np.int64)
    positions = mask_positions(masks, len(model.points))
    first = np.cumsum(count) - count   # where each block's points start in ``positions``
    starts = np.flatnonzero(np.diff(arity, prepend=0)).tolist()   # arities are positive
    codes = [np.zeros(0, dtype=dtype)]
    for lo, hi in zip(starts, starts[1:] + [len(blocks)]):
        k = int(arity[lo])
        sizes = count[lo:hi] ** k
        block = np.repeat(np.arange(lo, hi), sizes)
        j = np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        radix_u, start = count[block], first[block]
        t = np.zeros(len(block), dtype=dtype)
        for place in range(k - 1, -1, -1):
            digit = j // radix_u ** place % radix_u
            t = t * len(model.points) + positions[start + digit].astype(dtype)
        codes.append(ids[block].astype(dtype) * size + t)
    return np.concatenate(codes)


class ComplexSpec:
    """A cochain complex presented by ordered bases, their ascending integer
    codes and a :class:`FaceRule` per differential.

    The codes are the basis: sizes, matrices and ranks read only them.  The
    labels (point tuples, index tuples, triples) are decoded from the codes
    when :meth:`basis` is first called for a degree.  The default rule has
    one block of (n + 1)-tuples in degree n, digits in base ``radix``, and
    the alternating point-deletion differential.
    """

    label = ""
    radix = 1
    drops_missing_faces = False

    def __init__(self):
        self._codes: dict = {}
        self._bases: dict = {}

    def codes(self, n: int) -> np.ndarray:
        """Ascending integer codes of the degree-n basis, built once per degree."""
        built = self._codes.get(n)
        if built is None:
            built = self._codes[n] = self._build_basis(n)
        return built

    def size(self, n: int) -> int:
        """Dimension of the degree-n cochains."""
        return len(self.codes(n))

    def basis(self, n: int) -> tuple:
        """Labels of the degree-n basis in code order, decoded once."""
        built = self._bases.get(n)
        if built is None:
            self.codes(n)   # the labels name the codes: build, and charge for, them first
            built = self._bases[n] = tuple(self._labels(n))
        return built

    def _build_basis(self, n: int) -> np.ndarray:
        """Ascending codes of degree n."""
        raise NotImplementedError

    def _labels(self, n: int) -> Sequence:
        """Labels of ``codes(n)``, in order."""
        raise NotImplementedError

    def face_rule(self, n: int) -> FaceRule:
        return _alternating_rule(self.radix, n + 2)


class LocalComplexSpec(ComplexSpec):
    """Functions on diagonal neighborhoods with the alternating differential."""

    label = "local"

    def __init__(self, model: CoverModel):
        super().__init__()
        self.model = model
        self.radix = len(model.points)

    def _build_basis(self, n: int) -> np.ndarray:
        return self.model.diagonal_neighborhood(n).codes

    def _labels(self, n: int) -> Sequence:
        return self.model.tuples_of(self.codes(n), n + 1)


class CechComplexSpec(ComplexSpec):
    """One coefficient copy per nerve simplex, alternating index deletion.

    A simplex is coded by its position in the nerve.  Degree n reads the
    nerve through dimension n, and d_n's face table lists the simplices
    through dimension n + 1 only, so a profile to degree N grows no nerve
    simplex past dimension N + 1 (:meth:`CoverModel.nerve`).
    """

    label = "cech"

    def __init__(self, model: CoverModel):
        super().__init__()
        self.model = model

    def _build_basis(self, n: int) -> np.ndarray:
        at = self.model.nerve(n).span(n)
        return np.arange(at.start, at.stop)

    def _labels(self, n: int) -> Sequence:
        return self.model.nerve(n).of_dimension(n)

    def face_rule(self, n: int) -> FaceRule:
        faces = _nerve_faces(self.model, n + 1)
        blocks = len(faces)
        return FaceRule(1, 1, 1, np.zeros(blocks), np.zeros(blocks), faces[:, :n + 2])


class SimplicialComplexSpec(ComplexSpec):
    """Simplicial cochains of an ordered complex, or of a disjoint union of
    complexes kept apart as blocks.

    Vertices are ranked by ``order_key((v,))`` and simplices ordered by
    length, then block, then lexicographically by vertex rank; a face that
    is not a simplex is dropped from the differential.  ``blocks`` lists one
    collection of simplices per block; without it ``simplices`` is block 0.
    A degree-n simplex of block b is coded ``b * radix^(n+1)`` plus the code
    of its vertex ranks, which every block shares, so each face stays in its
    block, every differential is block-diagonal and each block's basis is a
    contiguous run (:meth:`block_bounds`).  Labels are the simplices, which
    may repeat across blocks.
    """

    label = "simplicial"
    drops_missing_faces = True

    def __init__(self, simplices: Sequence[tuple] = (), order_key=None,
                 blocks: Optional[Sequence[Sequence[tuple]]] = None):
        super().__init__()
        key = order_key or (lambda s: s)
        sets = [{tuple(s) for s in block} for block in ([simplices] if blocks is None else blocks)]
        vertices = sorted({v for faces in sets for s in faces for v in s}, key=lambda v: key((v,)))
        rank = {v: k for k, v in enumerate(vertices)}
        ranked = sorted((len(s), b, tuple(rank[v] for v in s), s)
                        for b, faces in enumerate(sets) for s in faces)
        self.simplices = tuple(s for _, _, _, s in ranked)
        self.radix = max(len(vertices), 1)
        self.block_count = max(len(sets), 1)
        self._by_length: dict = {}   # length -> (simplices, blocks, vertex ranks)
        for length, b, ranks, s in ranked:
            group = self._by_length.setdefault(length, ([], [], []))
            group[0].append(s)
            group[1].append(b)
            group[2].append(ranks)

    def _build_basis(self, n: int) -> np.ndarray:
        _, blocks, ranks = self._by_length.get(n + 1, ((), (), ()))
        size = self.radix ** (n + 1)
        dtype = code_dtype(self.block_count * size)
        digits = np.array(ranks, dtype=np.int64).reshape(-1, n + 1)
        offsets = np.array(blocks, dtype=np.int64).astype(dtype) * size
        return encode(digits, self.radix, dtype) + offsets

    def _labels(self, n: int) -> Sequence:
        return self._by_length.get(n + 1, ((),))[0]

    def block_bounds(self, n: int) -> np.ndarray:
        """Where each block's run starts in the degree-n basis, then its length."""
        blocks = np.array(self._by_length.get(n + 1, ((), (), ()))[1], dtype=np.int64)
        return np.concatenate(([0], np.cumsum(np.bincount(blocks, minlength=self.block_count))))

    def face_rule(self, n: int) -> FaceRule:
        return _alternating_rule(self.radix, n + 2, self.block_count)


class TotalComplexSpec(ComplexSpec):
    """Total complex of the page bicomplex.

    Degree-n basis elements are triples (p, index tuple, point tuple) with
    the point tuple of arity n - p + 1 drawn from the intersection named by
    the index tuple.  The differential combines index insertion with the
    alternating point-tuple differential weighted by (-1)^p.  Blocks are the
    nerve simplices in nerve order, so codes ascend with p, then the index
    tuple, then the point tuple.  Degree n reads the nerve through dimension
    n, and d_n's face tables list the blocks through dimension n + 1 only.
    """

    label = "total"

    def __init__(self, model: CoverModel):
        super().__init__()
        self.model = model
        self.radix = len(model.points)

    def _blocks(self, n: int) -> list:
        nerve = self.model.nerve(n)
        return [(b, idx, n + 2 - len(idx), mask)
                for b, (idx, mask) in enumerate(zip(nerve.simplices, nerve.masks))]

    def _build_basis(self, n: int) -> np.ndarray:
        return _power_blocks(self.model, self._blocks(n), self.radix ** (n + 1),
                             f"total-complex basis in degree {n}")

    def _labels(self, n: int) -> Sequence:
        return [(len(idx) - 1, idx, t) for _, idx, k, _ in self._blocks(n)
                for t in self.model.intersection_power(idx, k).tuples]

    def face_rule(self, n: int) -> FaceRule:
        nerve = self.model.nerve(n + 1)
        dims = np.repeat(np.arange(len(nerve.bounds) - 1), np.diff(nerve.bounds))
        # a block of dimension p holds (n + 2 - p)-tuples in degree n + 1
        arity = n + 2 - dims
        weight = np.where(arity >= 2, 1 - 2 * (dims % 2), 0)   # (-1)^p
        return FaceRule(self.radix, self.radix ** (n + 2), self.radix ** (n + 1),
                        arity, weight, _nerve_faces(self.model, n + 1)[:, :n + 2])


class AugmentedRowSpec(ComplexSpec):
    """Row at a fixed level q, prefixed by the local cochains it restricts.

    Degree 0 is the local degree-q space; degree p >= 1 holds the families
    indexed by (p-1)-dimensional nerve simplices.  Exactness of this complex
    is the row-contraction statement in matrix form.  The local space is
    block 0 and the nerve simplices follow, so d_0 deletes the only index.
    Degree n reads the nerve through dimension n - 1.
    """

    label = "augmented-row"

    def __init__(self, model: CoverModel, q: int):
        super().__init__()
        self.model = model
        self.q = q
        self.radix = len(model.points)

    def _blocks(self, n: int) -> list:
        nerve = self.model.nerve(n - 1)
        return [(b + 1, nerve.simplices[b], self.q + 1, nerve.masks[b]) for b in nerve.span(n - 1)]

    def _build_basis(self, n: int) -> np.ndarray:
        if n == 0:
            return self.model.diagonal_neighborhood(self.q).codes
        return _power_blocks(self.model, self._blocks(n), self.radix ** (self.q + 1),
                             f"augmented-row basis in degree {n}")

    def _labels(self, n: int) -> Sequence:
        if n == 0:
            return self.model.tuples_of(self.codes(0), self.q + 1)
        return [(idx, t) for _, idx, k, _ in self._blocks(n)
                for t in self.model.intersection_power(idx, k).tuples]

    def face_rule(self, n: int) -> FaceRule:
        faces = _block_faces(self.model.nerve(n), offset=1, empty=0)
        size = self.radix ** (self.q + 1)
        return FaceRule(self.radix, size, size, np.full(len(faces), self.q + 1),
                        np.zeros(len(faces)), faces[:, :n + 1])


class AugmentedColumnSpec(ComplexSpec):
    """Column at a fixed nerve simplex, prefixed by the coefficient copy.

    Degree 0 is one coefficient copy (the constants); degree k >= 1 holds
    functions on arity-k tuples of the intersection.  Exactness is the cone
    contraction in matrix form.  The copy is coded as the empty tuple, so d_0
    is point deletion too.
    """

    label = "augmented-column"

    def __init__(self, model: CoverModel, indices: tuple):
        super().__init__()
        self.model = model
        self.indices = tuple(indices)
        self.members = model.sort_points(model.intersection(self.indices))
        if not self.members:
            raise ModelError(f"intersection of {self.indices} is empty")
        self.radix = len(model.points)

    def _build_basis(self, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros(1, dtype=np.int64)
        return self.model.intersection_power(self.indices, n).codes

    def _labels(self, n: int) -> Sequence:
        return (self.indices,) if n == 0 else self.model.tuples_of(self.codes(n), n)

    def face_rule(self, n: int) -> FaceRule:
        return _alternating_rule(self.radix, n + 1)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse integer matrix of a differential.

    ``shape`` is (rows, columns), and ``entries`` holds int64 arrays (row,
    column, value), one per nonzero cell, sorted by row and then column.
    ``rows`` are built from the entries on first use and kept, as is
    ``by_column``, which Smith forms and their checks read; ``columns`` are
    built afresh on each use.  A matrix of d_n assembled from ``spec``
    reads its labels from it when they are first asked for: the degree-(n+1)
    basis for rows, the degree-n basis for columns.  Without a spec the
    labels are the positions.
    """

    shape: tuple
    entries: tuple
    spec: Optional[ComplexSpec] = None
    degree: int = 0

    @property
    def row_labels(self) -> tuple:
        return self._labels(self.degree + 1, self.shape[0])

    @property
    def col_labels(self) -> tuple:
        return self._labels(self.degree, self.shape[1])

    def _labels(self, n: int, count: int) -> tuple:
        return tuple(range(count)) if self.spec is None else self.spec.basis(n)

    @cached_property
    def by_column(self) -> tuple:
        """The entries in column order, as :func:`_by_column` gives them, so
        that each column's least row comes first; kept.  Raises
        :class:`ModelError` unless the entries are as documented."""
        r, c, v = self.entries
        if not ((np.diff(r * max(self.shape[1], 1) + c) > 0).all() and (v != 0).all()):
            raise ModelError("matrix entries must be nonzero cells sorted by row, then column")
        return _by_column(self.entries, self.shape[1])

    @cached_property
    def rows(self) -> tuple:
        """Dicts column index -> integer, one per row."""
        r, c, v = self.entries
        return tuple(_split(r, c, v, self.shape[0]))

    @property
    def columns(self) -> list:
        """Dicts row index -> integer, one per column."""
        r, c, v = self.entries
        order = np.argsort(c, kind="stable")
        return list(_split(c[order], r[order], v[order], self.shape[1]))

    def __len__(self) -> int:
        """Rows; with ``mat[i]`` it reads as dense rows, as certbench's snf_cells count does."""
        return self.shape[0]

    def __getitem__(self, i: int) -> list:
        """Row i as a dense list, built from its entries alone."""
        r, c, v = self.entries
        at = r == range(self.shape[0])[i]
        return [dict(zip(c[at].tolist(), v[at].tolist())).get(j, 0) for j in range(self.shape[1])]


def _split(major: np.ndarray, minor: np.ndarray, values: np.ndarray, count: int):
    """Dicts minor -> value, one per major index 0..count-1, in order, each
    made when it is read; ``major`` ascends."""
    bounds = major.searchsorted(np.arange(count + 1)).tolist()
    minor, values = minor.tolist(), values.tolist()
    for k in range(count):
        a, b = bounds[k], bounds[k + 1]
        yield dict(zip(minor[a:b], values[a:b]))


def _reduced(entries: tuple, p: int) -> tuple:
    """COO ``entries`` with values reduced mod a prime p and zeros dropped."""
    r, c, v = entries
    v = v % p
    live = v != 0
    return r[live], c[live], v[live]


def _faces(rule: FaceRule, rows: np.ndarray) -> tuple:
    """The face codes of every row, one column per deleted position, point
    digits first, then block indices; and their signs, 0 where there is no
    face."""
    block_code = rows // rule.row_size
    t = (rows % rule.row_size)[:, None]
    block = block_code.astype(np.int64, copy=False)
    place = rule.places[block].astype(rows.dtype, copy=False)
    point = (block_code * rule.col_size)[:, None] + delete_digit(t, rule.radix, place)
    index = rule.blocks[block].astype(rows.dtype, copy=False) * rule.col_size + t
    return np.concatenate((point, index), axis=1), rule.signs[block]


def _summed(cell: np.ndarray, sign: np.ndarray) -> tuple:
    """Distinct cells in ascending order with their signs summed, zeros dropped."""
    order = cell.argsort(kind="stable")
    cell, sign = cell[order], sign[order]
    new = np.ones(len(cell), dtype=bool)
    new[1:] = cell[1:] != cell[:-1]
    first = new.nonzero()[0]
    value = np.add.reduceat(sign, first) if len(first) else sign
    keep = value != 0
    return cell[first[keep]], value[keep]


def assemble_matrix(spec: ComplexSpec, n: int) -> BoundaryMatrix:
    """Matrix of d_n with rows indexed by the degree-(n+1) basis.

    Every face of every row is found at once on integer codes: point faces
    by deleting one digit, index faces through the spec's block table, each
    matched to its column by binary search in the ascending column codes.
    The search runs one deletion position at a time, where the faces of
    ascending rows nearly ascend, so numpy's search starts from its last
    bound; everything else, the missing face an error names included, is in
    row order.  Repeated cells are summed and zeros dropped.
    """
    cols, rows = spec.codes(n), spec.codes(n + 1)
    if cols.dtype != rows.dtype:   # one degree outgrew int64
        cols, rows = cols.astype(object), rows.astype(object)
    face, sign = _faces(spec.face_rule(n), rows)
    live = sign != 0
    sign = sign[live]
    at = live.T.copy()   # the faces by deletion position
    c = np.empty(at.shape, dtype=np.intp)
    c[at] = cols.searchsorted(face.T[at])
    r, c, face = live.nonzero()[0], c.T[live], face[live]
    found = np.concatenate((cols, [-1]))[c] == face   # live faces are never negative
    del face   # not needed for the sort below, where memory peaks
    if not found.all():
        if not spec.drops_missing_faces:
            missing = spec.basis(n + 1)[r[~found][0]]
            raise ModelError(f"a face of {missing!r} is missing from the degree-{n} basis")
        r, c, sign = r[found], c[found], sign[found]
    ncols = max(len(cols), 1)
    cell, value = _summed(r * ncols + c, sign)
    entries = (cell // ncols, cell % ncols, value)
    return BoundaryMatrix((len(rows), len(cols)), entries, spec, n)


# ---------------------------------------------------------------------------
# exact sparse elimination


class Echelon:
    """Exact echelon form of explicit sparse integer vectors, inserted one at
    a time; nothing is back-substituted.  It takes the vectors of
    :func:`rank_in_quotient` and, over Q, the columns :func:`_sweep` sets
    aside.

    Pivot vectors are kept in a dict keyed by their leading index, so a new
    vector meets only the pivots of the indices it reaches and no vector is
    scanned again when a pivot is chosen.  With ``p = 0`` elimination is
    fraction-free over the integers and gives ranks over Q: a pivot vector
    is primitive with a positive lead, a lead of 1 is subtracted without
    rescaling, and any other lead cross-multiplies by gcd-reduced factors,
    after which the vector's content is divided out.  With a prime ``p`` the
    entries of a vector lie in 1..p-1 and pivot vectors are scaled to lead 1.
    """

    def __init__(self, p: int = 0):
        self.p = p
        self.pivots: dict = {}   # leading index -> pivot vector

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: dict) -> bool:
        """Reduce ``row`` by the pivots; keep it if it is independent.

        The row is taken over, not copied, and may be changed or kept as a
        pivot vector.  Over GF(p) its entries must already be reduced mod p,
        with no zeros.
        """
        pivots = self.pivots
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = self._normalise(row, c)
                return True
            row = self._eliminate(row, pivot, c)
        return False

    def _normalise(self, row: dict, c: int) -> dict:
        p, lead = self.p, row[c]
        if p:
            if lead == 1:
                return row
            inv = pow(lead, -1, p)
            return {k: v * inv % p for k, v in row.items()}
        g = gcd(*row.values())
        if lead < 0:
            g = -g
        return row if g == 1 else {k: v // g for k, v in row.items()}

    def _eliminate(self, row: dict, pivot: dict, c: int) -> dict:
        """Clear column ``c`` of ``row`` with the pivot row leading there."""
        a, p, lead = row[c], self.p, pivot[c]
        if p:
            for k, v in pivot.items():
                nv = (row.get(k, 0) - a * v) % p
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            return row
        if lead != 1:
            g = gcd(a, lead)
            a //= g
            scale = lead // g
            if scale != 1:
                row = {k: scale * v for k, v in row.items()}
        for k, v in pivot.items():
            nv = row.get(k, 0) - a * v
            if nv:
                row[k] = nv
            else:
                del row[k]
        if lead != 1 and row:
            g = gcd(*row.values())
            if g > 1:
                row = {k: v // g for k, v in row.items()}
        return row


def _modulus(system: CoefficientSystem) -> int:
    """The ``p`` of :func:`_sweep` and :class:`Echelon` for a field: 0 for
    Q, p for GF(p)."""
    if isinstance(system, Rationals):
        return 0
    if isinstance(system, PrimeField):
        return system.p
    raise CoefficientError(f"no exact elimination over {system.name}")


def _by_column(entries: tuple, ncols: int) -> tuple:
    """Rows and values of sorted COO ``entries`` in column order, rows
    ascending within each column, and the bounds of each column in them."""
    r, c, v = entries
    # numpy sorts 16-bit keys stably by radix, several times faster
    order = np.argsort(c.astype(np.uint16) if ncols <= 1 << 16 else c, kind="stable")
    return r[order], v[order], c[order].searchsorted(np.arange(ncols + 1))


def _check_integers(values: np.ndarray) -> None:
    """Raise unless every value reads as a Python int, as an integer dtype does."""
    for v in values.tolist() if values.dtype.kind not in "iu" else ():
        if v.__class__ is not int:
            raise CoefficientError(f"Smith normal form needs integer entries, got {v!r}")


def _add_multiple(col: dict, f: int, vec: dict, p: int = 0) -> None:
    """col += f * vec, for sparse integer vectors without zeros, mod p
    unless p is 0."""
    get = col.get
    for i, x in vec.items():
        x = (get(i, 0) + f * x) % p if p else get(i, 0) + f * x
        if x:
            col[i] = x
        else:
            del col[i]


class _Columns:
    """The columns of an integer matrix, those in ``skip`` zero, as column
    operations change them: over the integers with ``p`` None, over Q with
    0, else mod p.  A column is read from the entries in column order until
    it is first used, with 1 at ``nrows + k`` on column k if ``tagged``;
    from then on it is a dict row -> entry in ``built``, as a column in
    ``skip`` is from the start.  Over the integers the entries are the
    matrix's checked :attr:`~BoundaryMatrix.by_column`, kept for the
    certificate; over a field they are sorted afresh, first reduced mod p."""

    def __init__(self, matrix: BoundaryMatrix, skip: Sequence[int] = (),
                 p: Optional[int] = None, tagged: bool = False):
        self.shape, self.tagged = matrix.shape, tagged
        if p is None:
            _check_integers(matrix.entries[2])
            self.r, self.v, self.bounds = matrix.by_column
        else:
            entries = _reduced(matrix.entries, p) if p else matrix.entries
            self.r, self.v, self.bounds = _by_column(entries, matrix.shape[1])
        self._starts = self.bounds.tolist()
        self.built: dict = {k: {} for k in skip}

    def column(self, k: int) -> dict:
        col = self.built.get(k)
        if col is None:
            a, b = self._starts[k], self._starts[k + 1]
            col = self.built[k] = dict(zip(self.r[a:b].tolist(), self.v[a:b].tolist()))
            if self.tagged:
                col[self.shape[0] + k] = 1
        return col

    def leads_hold(self, lead: dict) -> bool:
        """Whether column c has its least row at lead[c], holding ±1, for
        every c in ``lead``."""
        raw, want = [], []
        for c, i in lead.items():
            col = self.built.get(c)
            if col is None:
                raw.append(c)
                want.append(i)
            elif min(col, default=-1) != i or abs(col[i]) != 1:
                return False
        raw = np.array(raw, dtype=np.int64)
        a, b = self.bounds[raw], self.bounds[raw + 1]
        # an empty column has no lead
        return bool((b > a).all() and (self.r[a] == want).all() and (abs(self.v[a]) == 1).all())

    def cells_off(self, lead: dict) -> Optional[list]:
        """The cells (row, column, entry) of the columns not in ``lead``, or
        None if one lies on a row in its values."""
        cells = [(i, k, x) for k, col in self.built.items() if k not in lead for i, x in col.items()]
        other = np.ones(self.shape[1], dtype=bool)
        other[list(lead)] = other[list(self.built)] = False
        counts = np.diff(self.bounds)
        at = np.repeat(other, counts)   # the entries of the other columns, as read
        if at.any():
            cols = np.repeat(np.arange(self.shape[1]), counts)
            cells += zip(self.r[at].tolist(), cols[at].tolist(), self.v[at].tolist())
        return cells if set(lead.values()).isdisjoint(i for i, _, _ in cells) else None


def _sweep(mat: BoundaryMatrix, p: Optional[int], skip: Iterable[int] = (),
           tagged: bool = False) -> tuple:
    """The unit sweep of ``mat``'s columns, over Z, Q or GF(p) as ``p`` is
    None, 0 or a prime (:class:`_Columns`), without the columns listed in
    ``skip``, which are never read; with ``tagged``, column j also holds 1
    at ``nrows + j``.  Returns the :class:`_Columns` it changed, the pivots
    as a dict lead -> column, the columns set aside and the ``("col", src,
    dst, f)`` operations applied, in order.

    A unit is ±1 over Z and Q and any nonzero value mod p.  The kept
    columns are taken last first (an empty one only if tagged, leading at
    its tag).  A column whose lead, its least row, is a unit held by no
    pivot becomes a pivot by its index and is built only if a later column
    leads there (the emergent pairs of Ripser, Bauer 2021).  Any other
    column is built and cleared by the pivots at its leads, each step one
    operation, until it is zero, becomes a pivot itself or leads, with an
    entry that is not a unit, at a row no pivot holds: then it is set
    aside.  After the sweep each column set aside is cleared the same way
    at every row a pivot leads at, so it keeps no cell on a pivot's lead.
    Mod p nothing is set aside.  The pivots form a column echelon with unit
    leads (Dumas, Heckenbach, Saunders and Welker 2003).
    """
    nrows, ncols = mat.shape
    cols = _Columns(mat, p=p, tagged=tagged)
    column, built, r, v, bounds = cols.column, cols.built, cols.r, cols.v, cols.bounds
    kept = np.ones(ncols, dtype=bool)
    kept[np.fromiter(skip, dtype=np.int64)] = False
    which = kept.nonzero()[0][::-1]   # last first
    start, empty = bounds[which], bounds[which] == bounds[which + 1]
    if tagged:
        lead = np.where(empty, nrows + which, np.append(r, 0)[start])
        value = np.where(empty, 1, np.append(v, 0)[start])
    else:
        which, start = which[~empty], start[~empty]
        lead, value = r[start], v[start]
    unit = value != 0 if p else abs(value) == 1
    held, aside, ops = {}, [], []

    def clear(k: int, col: dict, i: int) -> None:   # col's entry at i, a pivot's lead
        j = held[i]
        pivot = built.get(j) or column(j)   # a dict lookup before the method call
        f = -col[i] * (pow(pivot[i], -1, p) if p else pivot[i])
        ops.append(("col", j, k, f))
        _add_multiple(col, f, pivot, p)

    for k, i, u in zip(which.tolist(), lead.tolist(), unit.tolist()):
        if u and i not in held:
            held[i] = k
            continue
        col = column(k)
        while col and (i := min(col)) in held:
            clear(k, col, i)
        if col and (p or abs(col[i]) == 1):
            held[i] = k
        elif col:
            aside.append(k)
    for k in aside:   # a pivot adds rows past its lead only
        col = column(k)
        while (i := min((x for x in col if x in held), default=-1)) >= 0:
            clear(k, col, i)
    return cols, held, aside, ops


def _eliminated(mat: BoundaryMatrix, p: int, skip: Iterable[int], tagged: bool = False) -> tuple:
    """:func:`_sweep` over a field, and the columns it set aside inserted
    into an :class:`Echelon`: the columns built, the sweep's pivots (lead ->
    column) and the remainder's (lead -> vector).  Those columns keep no
    cell on a unit pivot's lead, and the unit pivots' block is triangular
    with a unit diagonal, so the rank is the pivots' count; only over Q
    may anything be set aside."""
    cols, held, aside, _ = _sweep(mat, p, skip, tagged)
    rest = Echelon(p)
    for k in aside:
        rest.insert(cols.column(k))
    return cols, held, rest.pivots


def matrix_rank(mat: BoundaryMatrix, system: CoefficientSystem, skip: Iterable[int] = (),
                leads: Optional[set] = None, blocks: Optional[np.ndarray] = None):
    """Rank over a field; over the integers, the rank over Q.

    The unit pivots of :func:`_sweep` count once each, and an
    :class:`Echelon` of the columns it sets aside, over Q only, adds the
    rest.  Columns listed in ``skip`` are left out; the caller vouches that
    each is a combination of the columns after it (:func:`cleared_columns`).
    A set passed as ``leads`` receives the row index at which each pivot
    leads: they are the leads of the column space, whichever way it is
    eliminated.

    With ``blocks``, ascending bounds that cut the rows of a block-diagonal
    matrix into its blocks, the rank comes back per block as an array.
    Every pivot then lies in one block, so a block's rank is the number of
    pivots that lead inside it.
    """
    p = 0 if isinstance(system, Integers) else _modulus(system)
    _, held, rest = _eliminated(mat, p, skip)
    if leads is not None:
        leads.update(held, rest)
    if blocks is None:
        return len(held) + len(rest)
    keys = np.fromiter([*held, *rest], dtype=np.int64, count=len(held) + len(rest))
    return np.bincount(blocks.searchsorted(keys, "right") - 1, minlength=len(blocks) - 1)


def kernel_basis(mat: BoundaryMatrix, system: CoefficientSystem, skip: Iterable[int] = (),
                 leads: Optional[set] = None) -> list:
    """Independent vectors (dicts column -> value) that ``mat`` annihilates
    over a field: a nullspace basis, or with ``skip`` from
    :func:`cleared_columns`, h_n cocycle representatives.

    :func:`matrix_rank`'s sweep runs with column j tagged by one more
    entry, 1 at key ``nrows + j``.  A column whose row part cancels leads
    at its own tag, a unit, since the tags it met are above it, and its tag
    part is a nullspace vector, integral over Q; over Q the set-aside
    columns, tagged, add the vectors of the remainder's pivots that lead at
    a tag.  The other pivots' leads go to ``leads``.  The vectors lead at
    distinct kept columns and B^n's pivots at the skipped ones, so they are
    independent modulo B^n (the clearing of Chen and Kerber; de Silva,
    Morozov, Vejdemo-Johansson).
    """
    nrows = mat.shape[0]
    cols, held, rest = _eliminated(mat, _modulus(system), skip, tagged=True)
    if leads is not None:
        leads.update(c for c in [*held, *rest] if c < nrows)
    vectors = [cols.column(k) for c, k in held.items() if c >= nrows]
    vectors += [vec for c, vec in rest.items() if c >= nrows]
    return [{k - nrows: v for k, v in vec.items()} for vec in vectors]


def rank_in_quotient(vectors: list, subspace: list, system: CoefficientSystem) -> int:
    """Dimension of span(vectors) inside the quotient by span(subspace).

    Vectors are dicts index -> int, reduced mod p here over GF(p).  One
    elimination takes the subspace first; each vector that still adds a
    pivot after it counts once.
    """
    p = _modulus(system)
    ech = Echelon(p)

    def row(vec: dict) -> dict:   # a fresh row without zeros: the eliminator takes it over
        if p:
            return {c: v % p for c, v in vec.items() if v % p}
        return {c: v for c, v in vec.items() if v}

    for vec in subspace:
        ech.insert(row(vec))
    return sum(ech.insert(row(vec)) for vec in vectors)


def profile_from_ranks(dims: Sequence[int], ranks: Sequence[int]) -> list:
    """Cohomology dimensions from basis sizes and the ranks of d_0, d_1, ..."""
    return [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(len(ranks))]


# ---------------------------------------------------------------------------
# Smith normal form with certificates


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form of M with the elementary operations that certify it:
    ``("col", src, dst, f)`` is col dst += f * col src, ``("row", src, dst,
    f)`` row dst += f * row src and ``("neg", i)`` row i = -row i.

    The columns in ``skip`` are left out: M' is M with them zero, and each is
    vouched for by a unit pivot of d_{n-1} (:func:`check_smith_certificate`),
    so M' has M's invariants.  ``ops``, the sweep of
    :func:`smith_normal_form`, are ``col`` operations only, and make M'V a
    unit echelon.  The first ``units`` pivots are ``(lead, col, 1)``: column
    col of M'V has its least row at lead, holding ±1, no two pivots share a
    lead, and no other column has a cell on a lead row.  Taken in increasing
    lead order, one-cell row operations then clear each pivot column below
    its lead, and a lead of -1 is negated; that finish exists, so it is not
    recorded.  What the other columns keep is the remainder, on rows and
    columns of no unit pivot.  ``remainder_ops`` act on it alone and leave
    only the other pivots, whose d form a positive divisor chain.  The
    invariants are 1 per unit pivot, then those d.
    """

    invariants: tuple        # nonzero diagonal entries, each dividing the next
    pivots: tuple            # (row, col, d) per invariant, in the same order
    ops: tuple               # the sweep's column operations, in the order applied
    shape: tuple
    units: int = 0           # how many pivots, first, are unit leads
    remainder_ops: tuple = ()   # the remainder's operations, in the order applied
    skip: tuple = ()         # the columns left out, ascending

    @property
    def rank(self) -> int:
        return len(self.invariants)

    @property
    def unit_leads(self) -> set:
        """The rows at which the unit pivots lead."""
        return {r for r, _, _ in self.pivots[:self.units]}

    def torsion(self) -> tuple:
        return tuple(d for d in self.invariants if abs(d) != 1)


class _SparseIntegers:
    """An integer matrix of ``shape`` as sparse rows (dicts column -> entry), each
    column keeping the set of rows that reach it, filled from (row, column, entry)
    ``cells`` and changed by elementary operations."""

    def __init__(self, shape: tuple, cells: Iterable[tuple]):
        self.shape = shape
        rows = self.rows = [{} for _ in range(shape[0])]
        cols = self.cols = [set() for _ in range(shape[1])]
        for r, c, v in cells:
            if v:
                rows[r][c] = v
                cols[c].add(r)

    def apply(self, op: tuple) -> None:
        """Carry out one operation in the encoding of :class:`SmithDecomposition`."""
        rows, cols = self.rows, self.cols
        if op[0] == "neg":
            rows[op[1]] = {c: -v for c, v in rows[op[1]].items()}
            return
        kind, src, dst, f = op
        cells = (((dst, c, v) for c, v in rows[src].items()) if kind == "row"
                 else ((r, dst, rows[r][src]) for r in list(cols[src])))
        for r, c, v in cells:
            row = rows[r]
            v = row.get(c, 0) + f * v
            if v:
                row[c] = v
                cols[c].add(r)
            elif row.pop(c, None) is not None:
                cols[c].discard(r)


def smith_normal_form(matrix: BoundaryMatrix, skip: Iterable[int] = ()) -> SmithDecomposition:
    """Smith normal form of a :class:`BoundaryMatrix`, unit pivots first
    (Dumas, Heckenbach, Saunders and Welker 2003), without the columns listed
    in ``skip``, which are never read; the caller vouches that each is a
    combination of the columns after it, as :func:`check_smith_certificate`
    confirms.

    It is :func:`_sweep` over the integers, whose ``col`` operations it
    keeps: the pivots form a column echelon with ±1 leads, whose finish by
    row operations :class:`SmithDecomposition` leaves unwritten.  What the
    set-aside columns keep is the remainder, which meets no pivot's row or
    column; :func:`_smith_remainder` finishes it.
    """
    skip = tuple(sorted(set(skip)))
    cols, held, aside, ops = _sweep(matrix, None, skip)
    pivots = [(lead, k, 1) for lead, k in sorted(held.items())]
    units, finish = len(pivots), []
    cells = [(i, k, x) for k in aside for i, x in cols.built[k].items()]
    pivots += _smith_remainder(_SparseIntegers(matrix.shape, cells), finish) if cells else []
    return SmithDecomposition(invariants=tuple(d for _, _, d in pivots), pivots=tuple(pivots),
                              ops=tuple(ops), shape=matrix.shape, units=units,
                              remainder_ops=tuple(finish), skip=skip)


def _smith_remainder(work: _SparseIntegers, ops: list) -> list:
    """Pivots (row, col, d) of the Smith normal form of ``work``, appending its
    operations to ``ops``.

    The next pivot is an entry of least absolute value outside the pivot
    rows, found by a scan that stops at an entry equal to the last invariant:
    every entry left is a multiple of it.  Row operations clear the pivot
    column, then column operations, which meet only the pivot row, clear the
    pivot row; a remainder becomes the new pivot, Euclid-style, and a
    quotient of 0 is not recorded.  A divisibility repair folds in a row
    with an entry the pivot does not divide, so the pivots form a divisor
    chain.  Pivots stay in place.
    """
    rows, cols = work.rows, work.cols
    live = [i for i, row in enumerate(rows) if row]   # rows outside the pivots; none refills
    pivots, last = [], 1

    def apply(*op):
        if op[0] == "neg" or op[3]:   # a factor of 0 would change nothing
            ops.append(op)
            work.apply(op)

    def least():
        at, a = None, 0
        for i in live:
            for j, x in rows[i].items():
                if not a or abs(x) < a:
                    at, a = (i, j), abs(x)
                    if a == last:
                        return at
        return at

    for r, c in iter(least, None):
        while True:
            d, moved = rows[r][c], None
            for i in [i for i in cols[c] if i != r]:
                apply("row", r, i, -(rows[i][c] // d))
                if c in rows[i]:
                    moved = (i, c)
                    break
            if moved is None:
                # column c now holds d alone, so these touch row r only
                for j in [j for j in rows[r] if j != c]:
                    apply("col", c, j, -(rows[r][j] // d))
                    if j in rows[r]:
                        moved = (r, j)
                        break
            if moved is None and abs(d) != last:   # else every entry left is a multiple of d
                bad = next((i for i in live if i != r and any(x % d for x in rows[i].values())),
                           None)
                if bad is not None:
                    apply("row", bad, r, 1)
                    moved = (r, c)
            if moved is None:
                break
            r, c = moved
        if d < 0:
            apply("neg", r)
        last = abs(d)
        pivots.append((r, c, last))
        live = [i for i in live if i != r and rows[i]]
    return pivots


def _is_elementary(op, nrows: int, ncols: int) -> bool:
    """Whether ``op`` adds an integer multiple of one row or column to
    another, or negates a row: unimodular, with an elementary inverse."""
    if isinstance(op, tuple) and len(op) == 4:
        kind, src, dst, f = op
        bound = nrows if kind == "row" else ncols if kind == "col" else 0
        return (src.__class__ is dst.__class__ is f.__class__ is int
                and 0 <= src < bound and 0 <= dst < bound and src != dst)
    return (isinstance(op, tuple) and len(op) == 2 and op[0] == "neg"
            and op[1].__class__ is int and 0 <= op[1] < nrows)


def _replayed(matrix: BoundaryMatrix, dec: SmithDecomposition) -> Optional[_Columns]:
    """M's columns, ``dec.skip`` zero, after ``dec.ops``; None unless the
    shapes agree and every operation is an elementary column operation."""
    nrows, ncols = matrix.shape
    if dec.shape != matrix.shape or not all(_is_elementary(op, nrows, ncols) and op[0] == "col"
                                            for op in dec.ops):
        return None
    cols = _Columns(matrix, dec.skip)
    for _, src, dst, f in dec.ops:
        _add_multiple(cols.column(dst), f, cols.column(src))
    return cols


def _unit_pivots(pivots: Sequence, nrows: int, ncols: int) -> Optional[dict]:
    """Unit pivots (row, col, 1) as a dict col -> row, or None unless their
    rows and columns are ints in range, each used once."""
    lead = {c: r for r, c, d in pivots
            if r.__class__ is c.__class__ is int and 0 <= r < nrows and 0 <= c < ncols and d == 1}
    return lead if len(lead) == len(pivots) == len(set(lead.values())) else None


def _skip_justified(matrix: BoundaryMatrix, skip: Sequence[int], below: Optional[BoundaryMatrix],
                    below_dec: Optional[SmithDecomposition]) -> bool:
    """Whether each column j in ``skip`` is an integer combination of the
    columns after it.  A unit pivot of ``below_dec`` must lead at row j:
    replaying its sweep on ``below`` gives a column v of below·V, so in the
    image of ``below``, whose least entry is ±1 at j.  With ``matrix ·
    below = 0``, matrix · v = 0 writes column j through the later ones."""
    if below is None or below_dec is None or not all(j.__class__ is int for j in skip):
        return False
    wanted = set(skip)
    lead = _unit_pivots([p for p in below_dec.pivots[:below_dec.units] if p[0] in wanted],
                        *below.shape)
    if lead is None or set(lead.values()) != wanted:
        return False
    cols = _replayed(below, below_dec)
    return cols is not None and cols.leads_hold(lead) and composes_to_zero(matrix, below)


def _off_units(op: tuple, rows: set, cols: set) -> bool:
    """Whether a remainder operation meets no lead row and no pivot column."""
    if op[0] == "neg":
        return op[1] not in rows
    return not {op[1], op[2]} & (rows if op[0] == "row" else cols)


def check_smith_certificate(matrix: BoundaryMatrix, dec: SmithDecomposition,
                            below: Optional[BoundaryMatrix] = None,
                            below_dec: Optional[SmithDecomposition] = None) -> bool:
    """Check ``dec`` against M without forming U or V.

    A nonempty ``dec.skip`` needs d_{n-1}, ``below``, with its decomposition:
    each skipped column must be the lead row of one of its unit pivots, whose
    lead is replayed, and M · below = 0 is checked exactly
    (:func:`composes_to_zero`).  Then ``dec.ops``, column operations only,
    are replayed on a fresh copy of M without the skipped columns.  Each unit
    pivot's column must have its least row at the pivot's row, holding ±1,
    at distinct rows; every other column keeps no cell on a lead row, and
    those cells, the remainder, are replayed alone under
    ``dec.remainder_ops``, which must meet no lead row or pivot column, to
    leave only the remaining pivots, positive, a divisor chain.  Each
    operation must be elementary, which makes U and V unimodular without a
    determinant; the finish of the unit echelon by row operations exists
    (:class:`SmithDecomposition`).
    """
    nrows, ncols = matrix.shape
    units = dec.units
    if units.__class__ is not int or not 0 <= units <= len(dec.pivots):
        return False
    if dec.skip and not _skip_justified(matrix, dec.skip, below, below_dec):
        return False
    cols = _replayed(matrix, dec)
    lead = _unit_pivots(dec.pivots[:units], nrows, ncols)
    if cols is None or lead is None or not cols.leads_hold(lead):
        return False
    cells = cols.cells_off(lead)
    rows, columns = set(lead.values()), set(lead)
    if cells is None or not all(_is_elementary(op, nrows, ncols) and _off_units(op, rows, columns)
                                for op in dec.remainder_ops):
        return False
    rest = dec.pivots[units:]
    if cells or dec.remainder_ops or rest:
        work = _SparseIntegers(matrix.shape, cells)
        for op in dec.remainder_ops:
            work.apply(op)
        if (len({r for r, _, _ in rest}) != len(rest) or len({c for _, c, _ in rest}) != len(rest)
                or sum(map(len, work.rows)) != len(rest)
                or any(not 0 <= r < nrows or work.rows[r].get(c) != d for r, c, d in rest)):
            return False
    seen = tuple(d for _, _, d in rest)
    return (dec.invariants == (1,) * units + seen and all(d > 0 for d in seen)
            and all(b % a == 0 for a, b in zip(seen, seen[1:])))


# ---------------------------------------------------------------------------
# profiles


_PRODUCT_CHUNK = 1 << 13   # cell products formed at once by composes_to_zero


def composes_to_zero(upper: BoundaryMatrix, lower: BoundaryMatrix, p: int = 0) -> bool:
    """Whether ``upper · lower`` is the zero matrix, exactly over the integers,
    or mod p unless p is 0.

    Each entry (a, b, x) of ``upper`` meets the entries (b, c, y) of row b of
    ``lower`` to give x·y at cell (a, c); the products are summed per cell
    by sorting.  They are formed in chunks of whole rows of ``upper``, each
    of about ``_PRODUCT_CHUNK`` products, so a cell is summed within one
    chunk and memory stays small.
    """
    if upper.shape[1] != lower.shape[0]:
        return False
    ur, uc, uv = upper.entries
    lr, lc, lv = lower.entries
    starts = lr.searchsorted(np.arange(lower.shape[0] + 1))
    width = (starts[1:] - starts[:-1])[uc]   # products per entry of upper
    done = np.concatenate(([0], np.cumsum(width)))   # products before each entry
    row_at = ur.searchsorted(np.arange(upper.shape[0] + 1))   # first entry of each row
    before_row = done[row_at]
    ncols = max(lower.shape[1], 1)
    lo = 0
    while lo < upper.shape[0]:
        hi = max(int(before_row.searchsorted(before_row[lo] + _PRODUCT_CHUNK, "right")) - 1,
                 lo + 1)
        first, end = row_at[lo], row_at[hi]   # the entries of rows lo..hi-1
        entry = np.repeat(np.arange(first, end), width[first:end])
        position = starts[uc[entry]] + np.arange(len(entry)) - (done[entry] - done[first])
        cell = (ur[entry] - lo) * ncols + lc[position]
        value = _summed(cell, uv[entry] * lv[position])[1]
        if (value % p if p else value).any():
            return False
        lo = hi
    return True


def cleared_columns(mat: BoundaryMatrix, below: Optional[BoundaryMatrix], leads: set):
    """The columns of d_n, ``mat``, that its rank and kernel, or its Smith
    form, may leave out: the ``leads`` of d_{n-1}, ``below``, eliminated
    through its columns.

    Each pivot row v of d_{n-1} is in its image and leads at some index j.
    If d_n d_{n-1} = 0, checked exactly by :func:`composes_to_zero`, then
    d_n v = 0 makes column j of d_n a combination of the columns after it;
    by downward induction on j the columns left keep the span.  Over the
    integers v must lead with ±1, as a unit pivot of d_{n-1}'s Smith sweep
    does, so the combination is integral and the columns left keep the
    lattice.  Where the check fails nothing is left out.  On a
    block-diagonal d_n, v and the columns it combines lie in one block, so
    each block keeps its rank.
    """
    return leads if leads and composes_to_zero(mat, below) else ()


def _field_ranks(spec: ComplexSpec, system: CoefficientSystem, max_degree: int,
                 split: bool = False) -> list:
    """Ranks of d_0, ..., d_max over a field, each without the columns that
    :func:`cleared_columns` leaves out; with ``split``, one array of ranks
    per degree, by block of a block-coded :class:`SimplicialComplexSpec`.
    """
    if not system.is_field:
        raise CoefficientError(f"{system.name} is not a field; use the integer path")
    ranks, below, leads = [], None, set()
    for n in range(max_degree + 1):
        mat = assemble_matrix(spec, n)
        skip = cleared_columns(mat, below, leads)
        below, leads = mat, set()   # the matrix below is let go before the rank
        blocks = spec.block_bounds(n + 1) if split else None
        ranks.append(matrix_rank(mat, system, skip=skip, leads=leads, blocks=blocks))
    return ranks


def field_cohomology(spec: ComplexSpec, system: CoefficientSystem, max_degree: int) -> list:
    """Dimensions of the cohomology of the described complex, degrees 0..max,
    from the ranks of :func:`_field_ranks`."""
    ranks = _field_ranks(spec, system, max_degree)
    return profile_from_ranks([spec.size(n) for n in range(max_degree + 2)], ranks)


def _certified_smith(mat: BoundaryMatrix, n: int, below: Optional[BoundaryMatrix] = None,
                     below_dec: Optional[SmithDecomposition] = None) -> SmithDecomposition:
    """Smith normal form of d_n, ``mat``, without the columns that the unit
    pivots of d_{n-1}, ``below``, lead at, its certificate checked before it
    is used.  The check proves d_n d_{n-1} = 0, which justifies the skip
    (:func:`cleared_columns`), so a pair that fails it is refused."""
    dec = smith_normal_form(mat, below_dec.unit_leads if below_dec else ())
    if not check_smith_certificate(mat, dec, below, below_dec):
        raise ModelError(f"Smith certificate failed in degree {n}")
    return dec


def _integer_profile(dims: Sequence[int], decs: Sequence[SmithDecomposition]) -> list:
    """(free rank, torsion) per degree from the Smith forms of d_0, d_1, ..."""
    out = []
    for n, dec in enumerate(decs):
        below = decs[n - 1] if n else None
        out.append((dims[n] - dec.rank - (below.rank if below else 0),
                    below.torsion() if below else ()))
    return out


def integer_cohomology(spec: ComplexSpec, max_degree: int) -> list:
    """Free rank and torsion factors per degree, from Smith normal forms."""
    dims = [spec.size(n) for n in range(max_degree + 2)]
    decs, below = [], None
    for n in range(max_degree + 1):
        mat = assemble_matrix(spec, n)
        decs.append(_certified_smith(mat, n, below, decs[-1] if decs else None))
        below = mat
    return _integer_profile(dims, decs)


def cohomology_profile(spec: ComplexSpec, system: CoefficientSystem, max_degree: int):
    """Field dimensions, or (free rank, torsion) pairs over the integers."""
    if system.is_field:
        return field_cohomology(spec, system, max_degree)
    if isinstance(system, Integers):
        return integer_cohomology(spec, max_degree)
    raise CoefficientError(f"no cohomology profile over {system.name}")


def block_profiles(spec: SimplicialComplexSpec, system: CoefficientSystem,
                   tops: Sequence[int]) -> list:
    """The profile of each block of ``spec``, block b in degrees 0..tops[b].

    Each degree is assembled once for all blocks.  Over a field one
    elimination per degree gives every block's rank (:func:`_field_ranks`).
    Over the integers each block gets its own certified Smith form, on its
    slice of the assembled matrix: a divisibility repair may fold a row of
    one block into another, so one Smith form of the whole matrix would not
    tell each block's torsion.
    """
    top = max(tops)
    bounds = [spec.block_bounds(n) for n in range(top + 2)]
    dims = np.diff(bounds, axis=1).T.tolist()   # per block, per degree
    if system.is_field:
        ranks = np.array(_field_ranks(spec, system, top, split=True)).T.tolist()
        return [profile_from_ranks(dims[b][:t + 2], ranks[b][:t + 1]) for b, t in enumerate(tops)]
    if not isinstance(system, Integers):
        raise CoefficientError(f"no cohomology profile over {system.name}")
    decs: list = [[] for _ in tops]
    below: list = [None] * len(tops)   # each block's matrix one degree down
    for n in range(top + 1):
        r, c, v = assemble_matrix(spec, n).entries
        rows, cols = bounds[n + 1], bounds[n]
        at = r.searchsorted(rows)   # each block's first entry
        for b in (b for b, t in enumerate(tops) if n <= t):
            part = slice(at[b], at[b + 1])
            block = BoundaryMatrix((int(rows[b + 1] - rows[b]), int(cols[b + 1] - cols[b])),
                                   (r[part] - rows[b], c[part] - cols[b], v[part]))
            decs[b].append(_certified_smith(block, n, below[b], decs[b][-1] if n else None))
            below[b] = block
    return [_integer_profile(dims[b], decs[b]) for b in range(len(tops))]
