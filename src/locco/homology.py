"""Exact cohomology: basis enumeration, integer matrices, ranks and torsion.

Differentials of all complexes used here have integer entries, so dimension
profiles over a field reduce to exact ranks of integer matrices.  One sparse
eliminator, :class:`Echelon`, takes every field rank, kernel and quotient
rank: it inserts rows one at a time into pivot rows keyed by leading column,
fraction-free with gcd stripping over Q and with normalised pivots over
GF(p).  A matrix with more rows than columns has its rank taken through its
transpose.  Over the integers the Smith normal form provides free ranks and
torsion, with unimodular certificates checked by exact determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    invariants: tuple        # nonzero diagonal entries, each dividing the next
    left: tuple              # U, unimodular, rows x rows
    right: tuple             # V, unimodular, cols x cols
    shape: tuple

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def torsion(self) -> tuple:
        return tuple(d for d in self.invariants if abs(d) != 1)


def _identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Diagonalize an integer matrix as U * M * V with unimodular U, V.

    Pivots are chosen with smallest absolute value; a divisibility repair
    folds offending rows into the pivot row, so the diagonal entries form a
    divisor chain.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = []
    for row in matrix:
        if len(row) != cols:
            raise ModelError("ragged integer matrix")
        fixed = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int):
                raise CoefficientError(f"Smith normal form needs integer entries, got {v!r}")
            fixed.append(v)
        d.append(fixed)
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):  # row_dst += factor * row_src
        d[dst] = [a + factor * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + factor * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, factor):  # col_dst += factor * col_src
        for row in d:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        d[i] = [-a for a in d[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    qt = d[i][t] // d[t][t]
                    add_row(t, i, -qt)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    qt = d[t][j] // d[t][t]
                    add_col(t, j, -qt)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # divisibility repair: fold a bad row in and restart the pivot
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    invariants = tuple(d[i][i] for i in range(limit) if d[i][i] != 0)
    return SmithDecomposition(invariants=invariants, left=tuple(map(tuple, u)),
                              right=tuple(map(tuple, v)), shape=(rows, cols))


def check_smith_certificate(matrix: Sequence[Sequence[int]], dec: SmithDecomposition) -> bool:
    """Re-multiply U * M * V and confirm diagonality, chain and unimodularity."""
    rows, cols = dec.shape
    if rows != len(matrix) or (rows and cols != len(matrix[0])):
        return False
    if abs(bareiss_determinant(dec.left)) != 1:
        return False
    if abs(bareiss_determinant(dec.right)) != 1:
        return False
    # product U * M
    um = [[sum(dec.left[i][k] * matrix[k][j] for k in range(rows)) for j in range(cols)]
          for i in range(rows)]
    prod = [[sum(um[i][k] * dec.right[k][j] for k in range(cols)) for j in range(cols)]
            for i in range(rows)]
    seen = []
    for i in range(rows):
        for j in range(cols):
            if i == j and prod[i][j] != 0:
                seen.append(prod[i][j])
            elif i != j and prod[i][j] != 0:
                return False
    if tuple(seen) != dec.invariants:
        return False
    for a, b in zip(seen, seen[1:]):
        if b % a != 0:
            return False
    return all(a > 0 for a in seen)


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
