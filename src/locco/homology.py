"""Exact cohomology: basis enumeration, integer matrices, ranks and torsion.

Differentials of all complexes used here have integer entries, so dimension
profiles over a field reduce to exact ranks of integer matrices.  One sparse
eliminator, :class:`Echelon`, takes every field rank, kernel and quotient
rank: it inserts rows one at a time into pivot rows keyed by leading column,
fraction-free with gcd stripping over Q and with normalised pivots over
GF(p).  A matrix with more rows than columns has its rank taken through its
transpose.  Over the integers a sparse Smith elimination gives free ranks and
torsion; its certificate, every elementary operation it made, is checked by
replaying them on a fresh copy of the matrix, with no determinant taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Optional, Sequence

from .coeff import CoefficientSystem, Integers, PrimeField, Rationals
from .errors import BudgetError, CoefficientError, ModelError
from .model import CoverModel, enumeration_budget

# ---------------------------------------------------------------------------
# complex descriptors: ordered bases plus face rules


class ComplexSpec:
    """A cochain complex presented by ordered bases and face incidences."""

    label = ""

    def __init__(self):
        self._bases: dict = {}

    def basis(self, n: int) -> tuple:
        """Ordered degree-n basis, built once per degree and then reused."""
        out = self._bases.get(n)
        if out is None:
            out = self._bases[n] = self._build_basis(n)
        return out

    def _build_basis(self, n: int) -> tuple:
        raise NotImplementedError

    def row_entries(self, n: int, row_label) -> list:
        """Pairs (column label, integer coefficient) describing d_n pulled
        back to one degree-(n+1) basis element."""
        raise NotImplementedError


class LocalComplexSpec(ComplexSpec):
    """Functions on diagonal neighborhoods with the alternating differential."""

    label = "local"

    def __init__(self, model: CoverModel, budget: Optional[int] = None):
        super().__init__()
        self.model = model
        self.budget = budget

    def _build_basis(self, n: int) -> tuple:
        return self.model.diagonal_neighborhood(n, budget=self.budget).tuples

    def row_entries(self, n: int, row_label) -> list:
        domain = self.model.diagonal_neighborhood(n, budget=self.budget)
        out = {}
        sign = 1
        for i in range(len(row_label)):
            face = row_label[:i] + row_label[i + 1:]
            if face in domain:
                out[face] = out.get(face, 0) + sign
            sign = -sign
        return list(out.items())


class CechComplexSpec(ComplexSpec):
    """One coefficient copy per nerve simplex, alternating index deletion."""

    label = "cech"

    def __init__(self, model: CoverModel):
        super().__init__()
        self.model = model
        self.nerve = model.nerve()

    def _build_basis(self, n: int) -> tuple:
        return self.nerve.of_dimension(n)

    def row_entries(self, n: int, row_label) -> list:
        out = []
        sign = 1
        for k in range(len(row_label)):
            out.append((row_label[:k] + row_label[k + 1:], sign))
            sign = -sign
        return out


class SimplicialComplexSpec(ComplexSpec):
    """Simplicial cochains of an ordered complex."""

    label = "simplicial"

    def __init__(self, simplices: Sequence[tuple], order_key=None):
        super().__init__()
        key = order_key or (lambda s: s)
        self.simplices = tuple(sorted((tuple(s) for s in simplices), key=lambda s: (len(s), key(s))))
        self._faces = {s for s in self.simplices}

    def _build_basis(self, n: int) -> tuple:
        return tuple(s for s in self.simplices if len(s) == n + 1)

    def row_entries(self, n: int, row_label) -> list:
        out = []
        sign = 1
        for k in range(len(row_label)):
            face = row_label[:k] + row_label[k + 1:]
            if face in self._faces:
                out.append((face, sign))
            sign = -sign
        return out


class TotalComplexSpec(ComplexSpec):
    """Total complex of the page bicomplex.

    Degree-n basis elements are triples (p, index tuple, point tuple) with
    the point tuple of arity n - p + 1 drawn from the intersection named by
    the index tuple.  The differential combines index insertion with the
    alternating point-tuple differential weighted by (-1)^p.
    """

    label = "total"

    def __init__(self, model: CoverModel, budget: Optional[int] = None):
        super().__init__()
        self.model = model
        self.nerve = model.nerve()
        self.budget = budget
        self._inter = {}
        for s in self.nerve.simplices:
            self._inter[s] = set(model.intersection(s))

    def _build_basis(self, n: int) -> tuple:
        limit = enumeration_budget(self.budget)
        out = []
        total = 0
        for p in range(min(n, self.nerve.dimension) + 1):
            q = n - p
            for idx in self.nerve.of_dimension(p):
                power = self.model.intersection_power(idx, q + 1)
                total += len(power)
                if total > limit:
                    raise BudgetError(total, limit, f"total-complex basis in degree {n}")
                for t in power.tuples:
                    out.append((p, idx, t))
        return tuple(out)

    def row_entries(self, n: int, row_label) -> list:
        p, idx, t = row_label
        out = {}
        # index-deletion part: contributions from (p - 1, n + 1 - p)
        if p >= 1:
            sign = 1
            for k in range(len(idx)):
                face = idx[:k] + idx[k + 1:]
                key = (p - 1, face, t)
                out[key] = out.get(key, 0) + sign
                sign = -sign
        # point-deletion part: contributions from (p, n - p), sign (-1)^p
        if len(t) >= 2:
            base = -1 if p % 2 else 1
            sign = base
            for i in range(len(t)):
                key = (p, idx, t[:i] + t[i + 1:])
                out[key] = out.get(key, 0) + sign
                sign = -sign
        return [(k, v) for k, v in out.items() if v]


class AugmentedRowSpec(ComplexSpec):
    """Row at a fixed level q, prefixed by the local cochains it restricts.

    Degree 0 is the local degree-q space; degree p >= 1 holds the families
    indexed by (p-1)-dimensional nerve simplices.  Exactness of this complex
    is the row-contraction statement in matrix form.
    """

    label = "augmented-row"

    def __init__(self, model: CoverModel, q: int, budget: Optional[int] = None):
        super().__init__()
        self.model = model
        self.q = q
        self.nerve = model.nerve()
        self.budget = budget

    def _build_basis(self, n: int) -> tuple:
        if n == 0:
            return self.model.diagonal_neighborhood(self.q, budget=self.budget).tuples
        out = []
        for idx in self.nerve.of_dimension(n - 1):
            power = self.model.intersection_power(idx, self.q + 1)
            out.extend((idx, t) for t in power.tuples)
        return tuple(out)

    def row_entries(self, n: int, row_label) -> list:
        if n == 0:
            idx, t = row_label
            return [(t, 1)]  # restriction of the local cochain
        idx, t = row_label
        inter_cache = {}
        out = []
        sign = 1
        for k in range(len(idx)):
            face = idx[:k] + idx[k + 1:]
            members = inter_cache.get(face)
            if members is None:
                members = set(self.model.intersection(face))
                inter_cache[face] = members
            if all(c in members for c in t):
                out.append(((face, t), sign))
            sign = -sign
        return out


class AugmentedColumnSpec(ComplexSpec):
    """Column at a fixed nerve simplex, prefixed by the coefficient copy.

    Degree 0 is one coefficient copy (the constants); degree k >= 1 holds
    functions on arity-k tuples of the intersection.  Exactness is the cone
    contraction in matrix form.
    """

    label = "augmented-column"

    def __init__(self, model: CoverModel, indices: tuple):
        super().__init__()
        self.model = model
        self.indices = tuple(indices)
        self.members = model.sort_points(model.intersection(self.indices))
        if not self.members:
            raise ModelError(f"intersection of {self.indices} is empty")

    def _build_basis(self, n: int) -> tuple:
        if n == 0:
            return (self.indices,)
        return self.model.intersection_power(self.indices, n).tuples

    def row_entries(self, n: int, row_label) -> list:
        if n == 0:
            return [(self.indices, 1)]  # constants embed
        out = {}
        sign = 1
        for i in range(len(row_label)):
            face = row_label[:i] + row_label[i + 1:]
            out[face] = out.get(face, 0) + sign
            sign = -sign
        return [(k, v) for k, v in out.items() if v]


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse integer matrix of a differential, with frozen basis labels."""

    row_labels: tuple
    col_labels: tuple
    rows: tuple  # tuple of dicts column index -> integer

    @property
    def shape(self) -> tuple:
        return (len(self.row_labels), len(self.col_labels))

    def dense(self) -> list:
        out = [[0] * len(self.col_labels) for _ in self.row_labels]
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                out[r][c] = v
        return out


def assemble_matrix(spec: ComplexSpec, n: int) -> BoundaryMatrix:
    """Matrix of d_n with rows indexed by the degree-(n+1) basis."""
    cols = spec.basis(n)
    rows = spec.basis(n + 1)
    col_index = {label: k for k, label in enumerate(cols)}
    data = []
    for label in rows:
        entry = {}
        for col_label, coef in spec.row_entries(n, label):
            c = col_index.get(col_label)
            if c is None:
                raise ModelError(f"face {col_label!r} missing from degree-{n} basis")
            entry[c] = entry.get(c, 0) + coef
        data.append({c: v for c, v in entry.items() if v})
    return BoundaryMatrix(row_labels=tuple(rows), col_labels=tuple(cols), rows=tuple(data))


# ---------------------------------------------------------------------------
# exact sparse elimination


class Echelon:
    """Exact row echelon form of sparse integer rows, filled one row at a time.

    Pivot rows are kept in a dict keyed by their leading column, so a new row
    meets only the pivots of the columns it reaches and no row is scanned
    again when a pivot is chosen.  With ``p = 0`` elimination is
    fraction-free over the integers and gives ranks over Q: a pivot row is
    primitive with a positive lead, a lead of 1 is subtracted without
    rescaling, and any other lead cross-multiplies by gcd-reduced factors,
    after which the row's content is divided out.  With a prime ``p`` rows
    are reduced mod p and pivot rows are scaled to lead 1.
    """

    def __init__(self, p: int = 0):
        self.p = p
        self.pivots: dict = {}   # leading column -> pivot row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row) -> bool:
        """Reduce a copy of ``row`` by the pivots; keep it if it is independent."""
        p = self.p
        row = {c: v % p for c, v in row.items() if v % p} if p else dict(row)
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

    def kernel(self, ncols: int) -> list:
        """Sparse basis of the vectors of length ``ncols`` that every inserted
        row annihilates: one per free column, with integer entries over Q.

        The pivot rows are first reduced against each other, so each keeps
        only its lead and free columns; this rewrites them in place.
        """
        pivots, p = self.pivots, self.p
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [k for k in row if k != c and k in pivots]:
                row = self._eliminate(row, pivots[j], j)
            pivots[c] = row
        reach: dict = {}   # free column -> [(pivot column, entry)]
        for c, row in pivots.items():
            for k, v in row.items():
                if k != c:
                    reach.setdefault(k, []).append((c, v))
        basis = []
        for f in range(ncols):
            if f in pivots:
                continue
            terms = reach.get(f, ())
            if p:
                vec = {f: 1}
                vec.update((c, -v % p) for c, v in terms)
            else:
                scale = lcm(*(pivots[c][c] for c, _ in terms))
                vec = {f: scale}
                vec.update((c, -v * (scale // pivots[c][c])) for c, v in terms)
                g = gcd(*vec.values())
                if g > 1:
                    vec = {k: v // g for k, v in vec.items()}
            basis.append(vec)
        return basis


def transpose(rows: Sequence[dict], ncols: int) -> list:
    """Columns of a sparse row matrix, as sparse rows."""
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


def _modulus(system: CoefficientSystem) -> int:
    """The ``p`` of :class:`Echelon` for a field: 0 for Q, p for GF(p)."""
    if isinstance(system, Rationals):
        return 0
    if isinstance(system, PrimeField):
        return system.p
    raise CoefficientError(f"no exact elimination over {system.name}")


def matrix_rank(mat: BoundaryMatrix, system: CoefficientSystem) -> int:
    """Rank over a field; over the integers, the rank over Q.

    A matrix with more rows than columns is eliminated through its
    transpose, which has fewer rows to insert and the same rank.  Its rows
    are popped last column first, so each is freed once inserted; on the
    differentials here that order also leaves sparser pivot rows than
    column order does.
    """
    ech = Echelon(0 if isinstance(system, Integers) else _modulus(system))
    rows, ncols = mat.rows, len(mat.col_labels)
    if len(rows) > ncols:
        cols = transpose(rows, ncols)
        while cols:
            ech.insert(cols.pop())
    else:
        for row in rows:
            ech.insert(row)
    return ech.rank


def kernel_basis(mat: BoundaryMatrix, system: CoefficientSystem) -> list:
    """Sparse basis (dicts column -> value) of the nullspace over a field."""
    ech = Echelon(_modulus(system))
    for row in mat.rows:
        ech.insert(row)
    return ech.kernel(len(mat.col_labels))


def _integral(vec) -> dict:
    """A vector (dict or sequence) of rationals as an integer row of the same span."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    row = {c: v for c, v in items if v}
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: int(v * scale) for c, v in row.items()}


def rank_in_quotient(vectors: list, subspace: list, system: CoefficientSystem) -> int:
    """Dimension of span(vectors) inside the quotient by span(subspace).

    Vectors are dicts or sequences: integers or fractions over Q, integers
    over GF(p).  One elimination takes the subspace first; each vector that
    still adds a pivot after it counts once.
    """
    ech = Echelon(_modulus(system))
    for vec in subspace:
        ech.insert(_integral(vec))
    return sum(ech.insert(_integral(vec)) for vec in vectors)


def profile_from_ranks(dims: Sequence[int], ranks: Sequence[int]) -> list:
    """Cohomology dimensions from basis sizes and the ranks of d_0, d_1, ..."""
    return [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(len(ranks))]


# ---------------------------------------------------------------------------
# Smith normal form with certificates


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form of M with the elementary operations that certify it:
    ``("row", src, dst, f)`` is row dst += f * row src, ``("col", src, dst,
    f)`` col dst += f * col src and ``("neg", i)`` row i = -row i.  Replayed
    on M they leave U * M * V, U and V in GL(Z): ``d`` at ``(row, col)`` for
    each pivot and zeros elsewhere, the diagonal of invariants up to a
    permutation of rows and columns."""

    invariants: tuple        # nonzero diagonal entries, each dividing the next
    pivots: tuple            # (row, col, d) per invariant, in the same order
    ops: tuple               # elementary operations, in the order applied
    shape: tuple

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def torsion(self) -> tuple:
        return tuple(d for d in self.invariants if abs(d) != 1)


class _SparseIntegers:
    """An integer matrix as sparse rows (dicts column -> entry), each column
    keeping the set of rows that reach it, changed by elementary operations."""

    def __init__(self, matrix: Sequence[Sequence[int]]):
        ncols = len(matrix[0]) if matrix else 0
        self.rows = []
        self.cols = [set() for _ in range(ncols)]
        for r, row in enumerate(matrix):
            if len(row) != ncols:
                raise ModelError("ragged integer matrix")
            if set(map(type, row)) - {int}:
                bad = next(v for v in row if type(v) is not int)
                raise CoefficientError(f"Smith normal form needs integer entries, got {bad!r}")
            entries = {c: v for c, v in enumerate(row) if v}
            for c in entries:
                self.cols[c].add(r)
            self.rows.append(entries)

    def _set(self, r: int, c: int, v: int) -> None:
        if v:
            self.rows[r][c] = v
            self.cols[c].add(r)
        elif self.rows[r].pop(c, None) is not None:
            self.cols[c].discard(r)

    def apply(self, op: tuple) -> None:
        """Carry out one operation in the encoding of :class:`SmithDecomposition`."""
        rows = self.rows
        if op[0] == "neg":
            rows[op[1]] = {c: -v for c, v in rows[op[1]].items()}
            return
        kind, src, dst, f = op
        if kind == "row":
            row = rows[dst]
            for c, v in rows[src].items():
                self._set(dst, c, row.get(c, 0) + f * v)
        else:
            for r in list(self.cols[src]):
                row = rows[r]
                self._set(r, dst, row.get(dst, 0) + f * row[src])


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form of a dense integer matrix by sparse elimination.

    The next pivot is the entry of least absolute value among rows and
    columns not yet pivoted, ties broken by Markowitz cost
    (row nnz - 1) * (col nnz - 1) as last seen, so unit pivots come first.
    Row operations clear the pivot column, then column operations, which
    meet only the pivot row, clear the pivot row; a remainder becomes the
    new pivot, Euclid-style.  A divisibility repair folds in a row with an
    entry the pivot does not divide, so the pivots form a divisor chain.
    Pivots stay in place and every operation is recorded.
    """
    work = _SparseIntegers(matrix)
    rows, cols = work.rows, work.cols
    ops, pivots, done_rows, done_cols = [], [], set(), set()

    def cost(r, c):
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    heap = [(abs(v), cost(r, c), r, c) for r, row in enumerate(rows) for c, v in row.items()]
    heapify(heap)

    def apply(op):
        ops.append(op)
        work.apply(op)
        kind, src, dst, _ = op
        changed = ((dst, c) for c in rows[src]) if kind == "row" else ((r, dst) for r in cols[src])
        for r, c in changed:
            v = rows[r].get(c)
            if v:
                heappush(heap, (abs(v), cost(r, c), r, c))

    while heap:
        a, m, r, c = heappop(heap)
        if r in done_rows or c in done_cols or abs(rows[r].get(c, 0)) != a:
            continue
        if cost(r, c) != m:
            heappush(heap, (a, cost(r, c), r, c))
            continue
        while True:
            d, moved = rows[r][c], None
            for i in [i for i in cols[c] if i != r]:
                apply(("row", r, i, -(rows[i][c] // d)))
                if c in rows[i]:
                    moved = (i, c)
                    break
            if moved is None:
                # column c now holds d alone, so these touch row r only
                for j in [j for j in rows[r] if j != c]:
                    apply(("col", c, j, -(rows[r][j] // d)))
                    if j in rows[r]:
                        moved = (r, j)
                        break
            if moved is None and abs(d) != 1:
                bad = next((i for i, row in enumerate(rows) if i != r and i not in done_rows
                            and any(v % d for v in row.values())), None)
                if bad is not None:
                    apply(("row", bad, r, 1))
                    moved = (r, c)
            if moved is None:
                break
            r, c = moved
        if d < 0:
            ops.append(("neg", r))
            work.apply(ops[-1])
        done_rows.add(r)
        done_cols.add(c)
        pivots.append((r, c, abs(d)))
    return SmithDecomposition(invariants=tuple(d for _, _, d in pivots), pivots=tuple(pivots),
                              ops=tuple(ops), shape=(len(matrix), len(cols)))


def _is_elementary(op, nrows: int, ncols: int) -> bool:
    """Whether ``op`` adds an integer multiple of one row or column to
    another, or negates a row: unimodular, with an elementary inverse."""
    if not isinstance(op, tuple) or not all(type(x) is int for x in op[1:]):
        return False
    if len(op) == 4 and op[0] in ("row", "col"):
        bound = nrows if op[0] == "row" else ncols
        return 0 <= op[1] < bound and 0 <= op[2] < bound and op[1] != op[2]
    return len(op) == 2 and op[0] == "neg" and 0 <= op[1] < nrows


def check_smith_certificate(matrix: Sequence[Sequence[int]], dec: SmithDecomposition) -> bool:
    """Replay the operations on a fresh sparse copy of M and confirm that only
    the recorded pivots remain, positive, a divisor chain equal to the
    invariants.  Each operation must be elementary, which makes U and V
    unimodular without a determinant."""
    nrows, ncols = dec.shape
    if nrows != len(matrix) or (nrows and ncols != len(matrix[0])):
        return False
    work = _SparseIntegers(matrix)
    for op in dec.ops:
        if not _is_elementary(op, nrows, ncols):
            return False
        work.apply(op)
    pivots = dec.pivots
    if (len({r for r, _, _ in pivots}) != len(pivots) or len({c for _, c, _ in pivots}) != len(pivots)
            or sum(map(len, work.rows)) != len(pivots)
            or any(not 0 <= r < nrows or work.rows[r].get(c) != d for r, c, d in pivots)):
        return False
    seen = tuple(d for _, _, d in pivots)
    return (seen == dec.invariants and all(d > 0 for d in seen)
            and all(b % a == 0 for a, b in zip(seen, seen[1:])))


# ---------------------------------------------------------------------------
# profiles


def field_cohomology(spec: ComplexSpec, system: CoefficientSystem, max_degree: int) -> list:
    """Dimensions of the cohomology of the described complex, degrees 0..max."""
    if not system.is_field:
        raise CoefficientError(f"{system.name} is not a field; use the integer path")
    dims = [len(spec.basis(n)) for n in range(max_degree + 2)]
    ranks = [matrix_rank(assemble_matrix(spec, n), system) for n in range(max_degree + 1)]
    return profile_from_ranks(dims, ranks)


def integer_cohomology(spec: ComplexSpec, max_degree: int) -> list:
    """Free rank and torsion factors per degree, from Smith normal forms."""
    dims = [len(spec.basis(n)) for n in range(max_degree + 2)]
    decs = []
    for n in range(max_degree + 1):
        dense = assemble_matrix(spec, n).dense()
        dec = smith_normal_form(dense)
        if not check_smith_certificate(dense, dec):
            raise ModelError(f"Smith certificate failed in degree {n}")
        decs.append(dec)
    out = []
    for n in range(max_degree + 1):
        rank_here = decs[n].rank
        rank_below = decs[n - 1].rank if n >= 1 else 0
        torsion = decs[n - 1].torsion() if n >= 1 else ()
        out.append((dims[n] - rank_here - rank_below, tuple(torsion)))
    return out


def cohomology_profile(spec: ComplexSpec, system: CoefficientSystem, max_degree: int):
    """Field dimensions, or (free rank, torsion) pairs over the integers."""
    if system.is_field:
        return field_cohomology(spec, system, max_degree)
    if isinstance(system, Integers):
        return integer_cohomology(spec, max_degree)
    raise CoefficientError(f"no cohomology profile over {system.name}")
