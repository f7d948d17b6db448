"""Exact linear algebra for restrictions of operators to delta spaces.

Restriction matrices are small (dimensions C(n+r, n) at desk scale) and
mostly zeros, with Gaussian-rational entries in the graded-lex basis order
of `enumerate_multi_indices`.  A matrix stores n, its two degrees (which
fix its shape) and its sparse rows (the nonzero (column, entry) pairs of
each row; dense rows are derived for output), and caches the connected
parts of its nonzero pattern (`_split`), over which it is block diagonal
up to a permutation of rows and columns.  Everything here is exact and
runs per block, never on the whole matrix: the reduced row echelon form
of each bipartite block (`_rref`; it is unique, so solves, kernels and
witnesses equal the whole-matrix ones) and the Krylov annihilators behind
the block minimal polynomials (cached per part of the symmetrised pattern,
the lcm over the parts) both run on the one row reduction
`scalar.reduce_row`; Horner runs per block with the polynomial reduced mod
the block's minimal polynomial m_c, as f(M_c) = (f mod m_c)(M_c).  The
projection polynomial p_r(z) = prod(1 - z/lambda) over the nonzero
spectrum is the z-free part of the minimal polynomial of (Q|_r)* (Q|_r)
normalized to value 1 at zero.

`restrict` builds Q|_r column by column from the operator's integer kernel
`opalg.OperatorExpr._delta_image`, adding each column straight into the
sparse rows with one `_reduced` per nonzero entry; an image outside the
codomain is refused (AssertionError).  The adjoint builds each entry
conj(a) beta!/alpha! from a's triple with one gcd.

Every matrix-vector product is the one `_sparse_matvec`, which accumulates
over integers: the nonzero entries of the vector go over their common
denominator once per call, each row's entries over the row's lcm, and each
output entry is one integer sum reduced with one gcd.  No integer form is
kept with a matrix: the row lcm is recomputed per call, and keeping it
measured no faster on the counterterm benchmark.

Projections run on two routes, on A = Q|_r, A* (`gram_adjoint`) and
B = A* A (`gram`).  A^+ w has one route, `_pseudoinverse`: the least-norm
solve `_min_norm_solve` of B v = A* w and one exact certificate, both on
coordinate lists, with w read once and one `DeltaVector` built at the end.
It is the pseudoinverse solve of a normal restriction and, negated, the
on-shell counterterm (and so the order-raising one).  Its kernel step
`_Block.kernel_part` gives the kernel projector.
The projection polynomial (`minimal_polynomial`, `projection_polynomial_of_gram`,
the block Horner) serves `minpoly` and `projpoly`, where p is printed, and
the Casimir map ((p - 1)/z)(C) w, which p defines: it adds h(0) P_ker w to
-C^+ w, for h = (p - 1)/z.
A* is made on one route, `gram_adjoint`, which the Casimir check's
self-adjointness test reads too; its parts come from `_split` like every
matrix's.  `adjoint_restriction` stays as the paper's second, symbolic
route to A*: `onshell adjoint` prints it and the tests compare the two.

Each block is factored once and every right-hand side is substituted.
`_rref` keeps, beside the reduced row echelon form, the row operations
that produced it (the logs of `scalar.reduce_row` and `clear_above`);
`_Factor.substitute` replays them on a right-hand side in O(d^2), each
step one fused `scalar.sub_mul`, which decides consistency and gives the
solution with free variables 0 exactly as the augmented elimination would
(the RREF is unique).  A matrix keeps one `_Block` per part of `blocks`
(`RestrictionMatrix.parts`); a block factors itself, reads off its kernel
vectors and factors its kernel Gram system K* D K on first use, so
`_min_norm_solve`, `range_membership`, `kernel_basis` and
`kernel_projector` share one elimination per block and a block no solve
reaches is never eliminated.  Likewise a matrix keeps its
adjoint (whose parts give the witness of a "no"), its Gram matrix and its
normality answer once made.  `restrict`, the one table, keeps matrices per
(Q, r), so the counterterms of one (Q, r) build A, A* and B and factor
each block once however many residues they are asked for.  It is bounded
at RESTRICT_CACHE = 12 entries, the longest reuse measured: a counterterm
pass of the benchmark (seeds 1 and 43) repeats 196 of its 234 lookups, the
longest with 11 other (Q, r) asked in between, and one CLI command needs
at most 7 (`casimir-check`, `renorm --lorentz` at n = 4).  A larger table
only keeps unused matrices alive, which costs garbage-collector time on
fresh operators.  Cached matrices are shared: they are frozen, their rows
are tuples, and what they cache is a function of the matrix alone, never
changed once made.  `restrict.cache_clear()` empties the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import comb, lcm

from .scalar import GaussianRational, ZERO, ONE, _reduced, clear_above, reduce_row, sub_mul
from .deltaspace import (
    DeltaVector,
    DimensionMismatch,
    enumerate_multi_indices,
    inner,
    mi_factorial,
    smap,
    tmap,
)
from .opalg import OperatorExpr


# bound of the per-(Q, r) table of `restrict`; see above
RESTRICT_CACHE = 12


class NonSquareMatrixError(ValueError):
    pass


class NonNormalMatrixError(ValueError):
    """Raised by the pseudoinverse solve; fall back to range_membership."""


# ---------------------------------------------------------------------------
# univariate exact polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactPolynomial:
    """Univariate polynomial over Gaussian rationals, constant term first."""

    coeffs: tuple

    def __post_init__(self):
        cs = [GaussianRational.of(c) for c in self.coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "ExactPolynomial":
        return ExactPolynomial(())

    @staticmethod
    def one() -> "ExactPolynomial":
        return ExactPolynomial((ONE,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, z) -> GaussianRational:
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * GaussianRational.of(z) + c
        return out

    def scale(self, c) -> "ExactPolynomial":
        c = GaussianRational.of(c)
        return ExactPolynomial(tuple(x * c for x in self.coeffs))

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if self.is_zero() or other.is_zero():
            return ExactPolynomial.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ExactPolynomial(tuple(out))

    def divmod(self, other: "ExactPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        lead_inv = dv[-1].inverse()
        quo = [ZERO] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            f = rem[i] * lead_inv
            if f.is_zero():
                continue
            quo[i - dd] = f
            for j, c in enumerate(dv):
                rem[i - dd + j] = rem[i - dd + j] - f * c
        return ExactPolynomial(tuple(quo)), ExactPolynomial(tuple(rem))

    def monic(self) -> "ExactPolynomial":
        if self.is_zero():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def gcd(self, other: "ExactPolynomial") -> "ExactPolynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1].monic()
        return a.monic()

    def lcm(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if self.is_zero() or other.is_zero():
            return ExactPolynomial.zero()
        return (self * other.divmod(self.gcd(other))[0]).monic()


# ---------------------------------------------------------------------------
# restriction matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionMatrix:
    """Matrix of an operator between delta spaces in graded-lex basis order.

    Rows index the codomain basis (degree <= r_codomain), columns the domain
    basis (degree <= r_domain); column j is the image of the j-th domain
    basis vector.  The sparse rows are the only storage: per row, its
    nonzero (column, entry) pairs in ascending column order.  This form is
    canonical, so matrices compare and hash by it.
    """

    n: int
    r_domain: int
    r_codomain: int
    sparse_rows: tuple

    @property
    def domain_basis(self) -> tuple:
        return enumerate_multi_indices(self.n, self.r_domain)

    @property
    def codomain_basis(self) -> tuple:
        return enumerate_multi_indices(self.n, self.r_codomain)

    @property
    def nrows(self) -> int:
        return len(self.sparse_rows)

    @property
    def ncols(self) -> int:
        return comb(self.n + self.r_domain, self.n)

    @property
    def entries(self) -> tuple:
        """The dense rows, rebuilt from the sparse rows on every call."""
        return tuple(map(tuple, _dense(self.sparse_rows, self.ncols)))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @cached_property
    def blocks(self) -> tuple:
        """The (rows, columns) parts of the bipartite nonzero pattern."""
        return _split(self.sparse_rows, self.ncols)

    @cached_property
    def parts(self) -> tuple:
        """Per part of `blocks`, a `_Block` over the domain basis: its
        factorization, kernel, alpha! weights and kernel Gram system are
        made on first use and kept with the matrix."""
        return _blocks_of(self.sparse_rows, self.blocks, self.domain_basis)

    @cached_property
    def block_minimal_polynomials(self) -> tuple:
        """Per part of the symmetrised nonzero pattern of a square matrix,
        which the matrix maps into itself: (indices, local sparse rows,
        minimal polynomial).  Equal blocks are solved once."""
        rows = self.sparse_rows
        found = {}
        out = []
        for block, _ in _split(rows, len(rows), square=True):
            sub = _local_rows(rows, block, block)
            if sub not in found:
                found[sub] = _block_minimal_polynomial(sub)
            out.append((block, sub, found[sub]))
        return tuple(out)

    def to_vector(self, column) -> DeltaVector:
        basis = self.codomain_basis
        return DeltaVector(self.n, {basis[i]: c for i, c in enumerate(column)})

    def from_vector(self, v: DeltaVector) -> list:
        if v.n != self.n:
            raise DimensionMismatch("vector dimension does not match the matrix")
        if v.degree() > self.r_domain:
            raise DimensionMismatch(
                f"vector degree {v.degree()} exceeds the domain order {self.r_domain}")
        return [v.get(alpha) for alpha in self.domain_basis]

    def matvec(self, v: DeltaVector) -> DeltaVector:
        return self.to_vector(_sparse_matvec(self.sparse_rows, self.from_vector(v)))

    def matmul(self, other: "RestrictionMatrix") -> "RestrictionMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        right = other.sparse_rows
        rows = []
        for left in self.sparse_rows:
            acc = {}
            for k, a in left:
                for j, b in right[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            rows.append(tuple((j, acc[j]) for j in sorted(acc) if not acc[j].is_zero()))
        return RestrictionMatrix(self.n, other.r_domain, self.r_codomain, tuple(rows))

    def gram_adjoint(self) -> "RestrictionMatrix":
        """Adjoint with respect to the weighted scalar products on both sides:
        (M* v | w)_(r_dom) = (v | M w)_(r_cod); made once and kept."""
        return self._adjoint

    @cached_property
    def _adjoint(self) -> "RestrictionMatrix":
        """M*[i][j] = conj(M[j][i]) beta!/alpha! for the j-th codomain index
        beta and the i-th domain index alpha, one gcd per entry; row i of M*
        collects column i of M, in ascending j."""
        dom_w = [mi_factorial(alpha) for alpha in self.domain_basis]
        rows = [[] for _ in dom_w]
        for j, (row, beta) in enumerate(zip(self.sparse_rows, self.codomain_basis)):
            w = mi_factorial(beta)
            for i, x in row:
                rows[i].append((j, _reduced(x.a * w, -x.b * w, x.d * dom_w[i])))
        return RestrictionMatrix(self.n, self.r_codomain, self.r_domain, tuple(map(tuple, rows)))

    @cached_property
    def gram(self) -> "RestrictionMatrix":
        """The Gram matrix B = M* M, kept with the matrix."""
        return self.gram_adjoint().matmul(self)

    def is_normal(self) -> bool:
        """M M* = M* M for the weighted scalar products, decided once."""
        return self._normal

    @cached_property
    def _normal(self) -> bool:
        if not self.is_square() or self.r_domain != self.r_codomain:
            return False
        return self.matmul(self.gram_adjoint()) == self.gram


@lru_cache(maxsize=RESTRICT_CACHE)
def restrict(q: OperatorExpr, r: int) -> RestrictionMatrix:
    """Q|_r as an exact matrix from degree <= r to degree <= r + q; kept per
    (Q, r), with the factorizations its solves make.  Column j is the image
    of the j-th domain basis vector, from the operator's integer kernel
    `_delta_image`, added straight into the sparse rows with one `_reduced`
    per nonzero entry."""
    r_codomain = r + q.essential_order().q
    index = {beta: i for i, beta in enumerate(enumerate_multi_indices(q.n, r_codomain))}
    rows = [[] for _ in index]
    for j, alpha in enumerate(enumerate_multi_indices(q.n, r)):
        image, den = q._delta_image(alpha)
        for tgt, (x, y) in image.items():
            if x or y:
                i = index.get(tgt)
                if i is None:
                    raise AssertionError("a column image exceeds the codomain degree")
                rows[i].append((j, _reduced(x, y, den)))
    return RestrictionMatrix(q.n, r, r_codomain, tuple(map(tuple, rows)))


def adjoint_restriction(q: OperatorExpr, r: int) -> RestrictionMatrix:
    """(Q|_r)* = T_r conj(Q)^t S_(r+q), from degree <= r+q to degree <= r."""
    ess = q.essential_order().q
    qt = q.conj().transpose()
    index = {beta: i for i, beta in enumerate(enumerate_multi_indices(q.n, r))}
    cols = []
    for alpha in enumerate_multi_indices(q.n, r + ess):
        img = tmap(r, qt.apply_poly(smap(r + ess, DeltaVector.basis(q.n, alpha))))
        cols.append([(index[beta], c) for beta, c in img.coeffs.items()])
    return RestrictionMatrix(q.n, r + ess, r, _transpose(cols, len(index)))


# ---------------------------------------------------------------------------
# elimination, kernels, solving
# ---------------------------------------------------------------------------

def _dense(rows, ncols: int) -> list:
    """The dense rows, as lists, of the matrix given by its sparse rows."""
    out = []
    for row in rows:
        dense = [ZERO] * ncols
        for j, a in row:
            dense[j] = a
        out.append(dense)
    return out


def _transpose(cols, nrows: int) -> tuple:
    """The sparse rows of the matrix with nrows rows whose j-th column has
    the nonzero (row, entry) pairs cols[j]."""
    rows = [[] for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, a in col:
            rows[i].append((j, a))
    return tuple(map(tuple, rows))


def _split(rows, ncols: int, square: bool = False) -> tuple:
    """Connected parts of the nonzero pattern of a matrix given by its sparse
    rows, as (row indices, column indices) pairs, each ascending.

    Row i and column j are joined when entry (i, j) is nonzero, so the matrix
    is block diagonal over the parts up to a permutation of rows and columns.
    With square=True row i and column i are one node as well, which gives the
    parts of the symmetrised pattern (both lists then agree).  Parts holding
    a row come by their smallest row; a zero column is a part of its own.
    """
    nr = len(rows)
    off = 0 if square else nr
    parent = list(range(off + ncols))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(rows):
        for j, _ in row:
            a, b = find(i), find(off + j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    parts = {}
    for i in range(nr):
        parts.setdefault(find(i), ([], []))[0].append(i)
    for j in range(ncols):
        parts.setdefault(find(off + j), ([], []))[1].append(j)
    return tuple(parts.values())


def _local_rows(rows, rs, cs) -> tuple:
    """The sparse rows of the submatrix on rows rs and columns cs, in local
    indices; every nonzero of the rows rs must lie in the columns cs."""
    local = {g: k for k, g in enumerate(cs)}
    return tuple(tuple((local[j], a) for j, a in rows[i]) for i in rs)


class _Factor:
    """The reduced row echelon form of a matrix given by dense rows, with the
    row operations that produced it, so that a right-hand side is reduced
    by replaying them (`substitute`) instead of eliminating again.  Nothing
    in it is changed once made; it is a slotted class because one is built
    per block and a frozen dataclass is several times slower to build.

    entries: the reduced rows, pivot rows in pivot order, zero rows last
    (named like a matrix's dense rows, which `perfbench/tracing.py` sizes);
    pivots: the pivot column of each pivot row; forward: per reduced input
    row, (its `reduce_row` log, its pivot or None); back: the `clear_above`
    log; rest: the input rows met at full column rank, left unreduced.
    """

    __slots__ = ("width", "entries", "pivots", "forward", "back", "rest")

    def __init__(self, width: int, entries: list, pivots: list, forward: list, back: list,
                 rest: list):
        self.width, self.entries, self.pivots = width, entries, pivots
        self.forward, self.back, self.rest = forward, back, rest

    def substitute(self, rhs: list):
        """The x with free variables 0 that solves rows x = rhs, or None when
        there is none: the logged row operations replayed on rhs, O(d^2).
        rhs is inconsistent when a row that reduced to zero keeps a nonzero
        entry, or a row met at full column rank does not hold at x; the
        augmented elimination of [rows | rhs] decides the same."""
        vals = {}
        for b, (steps, p) in zip(rhs, self.forward):
            for q, f in steps:
                if q is None:
                    b = b * f
                elif not vals[q].is_zero():
                    b = sub_mul(b, f, vals[q])
            if p is not None:
                vals[p] = b
            elif not b.is_zero():
                return None
        for p, steps in self.back:
            b = vals[p]
            for q, f in steps:
                if not vals[q].is_zero():
                    b = sub_mul(b, f, vals[q])
            vals[p] = b
        x = [ZERO] * self.width
        for p in self.pivots:
            x[p] = vals[p]
        for row, b in zip(self.rest, rhs[len(self.forward):]):
            if sum((a * c for a, c in zip(row, x) if not a.is_zero()), ZERO) != b:
                return None
        return x


def _rref(rows) -> _Factor:
    """The reduced row echelon form with its row operations: each row is
    inserted with `reduce_row`, then `clear_above` clears each pivot column
    above its pivot.  The input rows are left untouched."""
    echelon, zero_rows, forward, rest, back = [], [], [], [], []
    width = 0
    for row in rows:
        width = len(row)
        if len(echelon) == width:  # full column rank: the rest reduce to 0
            zero_rows.append([ZERO] * width)
            rest.append(tuple(row))
            continue
        steps = []
        if reduce_row(echelon, row := list(row), log=steps) is None:
            zero_rows.append(row)
            forward.append((steps, None))
        else:
            forward.append((steps, echelon[-1][0]))
    reduced = clear_above(echelon, back)
    return _Factor(width, [row for _, row, _ in reduced] + zero_rows,
                   [p for p, _, _ in reduced], forward, back, rest)


def _weighted_dot(weights, u, v: list) -> GaussianRational:
    """(u|v) = sum_j weights[j] conj(u_j) v_j for u given by its nonzero
    (index, entry) pairs."""
    return sum((a.conj() * v[j] * weights[j] for j, a in u if not v[j].is_zero()), ZERO)


class _Block:
    """One part (rows rs, columns cs) of a matrix given by its sparse rows.

    Its factorization (`_rref` of the block), its kernel vectors and, given
    the domain basis, the alpha! weights D of its columns and the
    factorization of the kernel Gram system K* D K are each made on first
    use and then kept, so a block that no solve reaches is never eliminated
    and one that many solves reach is eliminated once.  Vectors are local:
    entry k belongs to column cs[k].
    """

    def __init__(self, rows, rs, cs, basis=None):
        self.rows, self.rs, self.cs, self.basis = rows, rs, cs, basis

    @cached_property
    def factor(self) -> _Factor:
        return _rref(_dense(_local_rows(self.rows, self.rs, self.cs), len(self.cs)))

    @cached_property
    def kernel(self) -> tuple:
        """(free column, kernel vector) pairs, one per free column, read off
        the reduced row echelon form; a vector is its nonzero (column,
        entry) pairs."""
        rows, pivots = self.factor.entries, self.factor.pivots
        out = []
        for fc in sorted(set(range(len(self.cs))) - set(pivots)):
            vec = [(fc, ONE)]
            for prow, pcol in enumerate(pivots):
                if not rows[prow][fc].is_zero():
                    vec.append((pcol, -rows[prow][fc]))
            out.append((fc, tuple(vec)))
        return tuple(out)

    @cached_property
    def local_weights(self) -> list:
        return [mi_factorial(self.basis[j]) for j in self.cs]

    @cached_property
    def kernel_gram(self) -> _Factor:
        """The factored Gram system K* D K of the kernel vectors K."""
        vectors = [k for _, k in self.kernel]
        dense = _dense(vectors, len(self.cs))
        return _rref([[_weighted_dot(self.local_weights, k, l) for l in dense] for k in vectors])

    def kernel_part(self, x: list) -> list:
        """The weighted projection K c of x onto the span of the kernel
        vectors K, with (K* D K) c = K* D x."""
        c = self.kernel_gram.substitute([_weighted_dot(self.local_weights, k, x)
                                         for _, k in self.kernel])
        out = [ZERO] * len(x)
        for a, (_, k) in zip(c, self.kernel):
            if not a.is_zero():
                for j, b in k:
                    out[j] = out[j] + a * b
        return out


def _blocks_of(rows, blocks, basis=None) -> tuple:
    """A `_Block` per (rows, columns) part of the matrix given by sparse rows
    and, when given, its domain basis."""
    return tuple(_Block(rows, rs, cs, basis) for rs, cs in blocks)


def _kernel_of(parts, ncols: int) -> list:
    """(free column, kernel vector) pairs, vectors of length ncols, one per
    free column of the parts and in ascending column order.  Each block is
    reduced on its own; its vectors vanish off its columns and equal those
    of the reduced row echelon form of the whole matrix."""
    out = []
    for part in parts:
        for fc, vec in part.kernel:
            full = [ZERO] * ncols
            for j, a in vec:
                full[part.cs[j]] = a
            out.append((part.cs[fc], full))
    out.sort(key=lambda pair: pair[0])
    return out


def kernel_basis(m: RestrictionMatrix) -> list:
    """Exact kernel basis as delta vectors in the domain space."""
    dom = m.domain_basis
    return [DeltaVector(m.n, {dom[i]: c for i, c in enumerate(v)})
            for _, v in _kernel_of(m.parts, m.ncols)]


def _solve(parts, rhs, ncols: int, project: bool = False):
    """(x, inconsistent blocks) for M x = rhs, block by block: each block
    with a nonzero part of rhs is solved on its own, free variables 0, by
    substitution into its kept factorization.  With project, x then loses
    its weighted projection onto each block's kernel."""
    x = [ZERO] * ncols
    bad = []
    for part in parts:
        local = [rhs[i] for i in part.rs]
        if all(b.is_zero() for b in local):
            continue
        y = part.factor.substitute(local)
        if y is None:
            bad.append((part.rs, part.cs))
            continue
        if project and part.kernel:
            y = [a if b.is_zero() else a - b for a, b in zip(y, part.kernel_part(y))]
        for j, a in zip(part.cs, y):
            x[j] = a
    return x, bad


def _min_norm_solve(m: RestrictionMatrix, rhs: list) -> list:
    """The x of least weighted norm with M x = rhs, for rhs in Ran M; the
    blocks' kernels are orthogonal, so per-block projections suffice."""
    x, bad = _solve(m.parts, rhs, m.ncols, project=True)
    if bad:
        raise AssertionError("minimum-norm solve of an inconsistent system")
    return x


@dataclass(frozen=True)
class RangeDecision:
    """Outcome of a range-membership question."""

    member: bool
    preimage: DeltaVector | None
    witness: DeltaVector | None  # adjoint-kernel vector not orthogonal to w


def range_membership(m: RestrictionMatrix, w: DeltaVector) -> RangeDecision:
    """Decide w in Ran(M); on success give a preimage, otherwise a kernel
    vector of the adjoint that has nonzero scalar product with w.

    The witness is the first such vector of the adjoint's kernel basis in
    column order.  Only the inconsistent blocks are searched: a kernel vector
    y of a consistent block's adjoint has (y|w) = (y|M x) = (M* y|x) = 0.
    """
    rhs = [w.get(alpha) for alpha in m.codomain_basis]
    if w.degree() > m.r_codomain:
        raise DimensionMismatch("target degree exceeds the codomain order")
    if w.n != m.n:
        raise DimensionMismatch("target dimension does not match the matrix")
    x, bad = _solve(m.parts, rhs, m.ncols)
    if not bad:
        dom = m.domain_basis
        pre = DeltaVector(m.n, {dom[i]: c for i, c in enumerate(x)})
        return RangeDecision(True, pre, None)
    adj = m.gram_adjoint()
    rows = {tuple(rs) for rs, _ in bad}
    for _, col in _kernel_of([part for part in adj.parts if tuple(part.cs) in rows], adj.ncols):
        y = m.to_vector(col)
        if not inner(m.r_codomain, y, w).is_zero():
            if not all(c.is_zero() for c in _sparse_matvec(adj.sparse_rows, col)):
                raise AssertionError("witness is not in the kernel of the adjoint")
            return RangeDecision(False, None, y)
    raise AssertionError("inconsistent system without an adjoint-kernel witness")


# ---------------------------------------------------------------------------
# minimal polynomials and projections
# ---------------------------------------------------------------------------

def _sparse_matvec(rows, vec: list) -> list:
    """M vec for M given by its sparse rows, accumulated over integers: the
    nonzero entries of vec go over their common denominator D once, each
    row's entries over the row's lcm F, and each output entry is the sum
    of the integer cross products over F * D, reduced with one gcd."""
    dens = {x.d for x in vec if x.a or x.b}
    if not dens:
        return [ZERO] * len(rows)
    big = lcm(*dens)
    re = [x.a * (big // x.d) if x.d != big else x.a for x in vec]
    im = [x.b * (big // x.d) if x.d != big else x.b for x in vec]
    out = []
    for row in rows:
        sa = sb = 0
        f = lcm(*[a.d for _, a in row]) if row else 1
        for j, a in row:
            x, y = re[j], im[j]
            if x or y:
                c, e, d = a.a, a.b, a.d
                if d != f:
                    k = f // d
                    c, e = c * k, e * k
                sa += c * x - e * y
                sb += c * y + e * x
        out.append(_reduced(sa, sb, f * big) if sa or sb else ZERO)
    return out


def _matrix_poly_apply(rows, p: ExactPolynomial, vec: list) -> list:
    """p(M) vec by Horner iteration, for M given by its sparse rows."""
    out = [ZERO] * len(vec)
    for c in reversed(p.coeffs):
        # out = M*out + c*vec
        mv = _sparse_matvec(rows, out)
        out = [s if v.is_zero() else s + c * v for s, v in zip(mv, vec)]
    return out


def _block_poly_apply(m: RestrictionMatrix, p: ExactPolynomial, vec: list) -> list:
    """p(M) vec for square M, per block of `block_minimal_polynomials`:
    p(M_c) = (p mod m_c)(M_c), so each block runs Horner with the reduced p."""
    out = [ZERO] * len(vec)
    reduced = {}
    for idx, rows, mc in m.block_minimal_polynomials:
        part = [vec[i] for i in idx]
        if all(x.is_zero() for x in part):
            continue
        if mc.coeffs not in reduced:
            reduced[mc.coeffs] = p.divmod(mc)[1] if p.degree() >= mc.degree() else p
        for i, x in zip(idx, _matrix_poly_apply(rows, reduced[mc.coeffs], part)):
            out[i] = x
    return out


def _krylov_annihilator(rows, vec: list) -> ExactPolynomial:
    """Monic p of least degree with p(M) vec = 0, for M given by sparse rows:
    each M^k vec is reduced with a unit entry at column d + k after it; the
    first that leaves no pivot in its d columns has p in the power columns."""
    d = len(vec)
    echelon = []
    power = vec
    for k in count():
        row = power + [ZERO] * (d + 1)
        row[d + k] = ONE
        if reduce_row(echelon, row, d) is None:
            return ExactPolynomial(tuple(row[d:d + k + 1]))
        power = _sparse_matvec(rows, power)


def _block_minimal_polynomial(rows) -> ExactPolynomial:
    """Minimal polynomial of one block: the lcm of the annihilators of its
    basis vectors, built without a gcd.  For the lcm p so far and the next
    basis vector e, the annihilator of p(M) e is ann(e) / gcd(ann(e), p), so
    p times it is lcm(p, ann(e))."""
    d = len(rows)
    result = ExactPolynomial.one()
    for seed in range(d):
        if result.degree() == d:
            break  # the minimal polynomial has degree at most d
        e = [ZERO] * d
        e[seed] = ONE
        u = _matrix_poly_apply(rows, result, e)
        if not all(c.is_zero() for c in u):
            result = result * _krylov_annihilator(rows, u)
    return result


def minimal_polynomial(m: RestrictionMatrix) -> ExactPolynomial:
    """Monic minimal polynomial over the Gaussian rationals.

    The matrix splits into the connected parts of its symmetrised nonzero
    pattern, which it maps into themselves; the minimal polynomial is the
    least common multiple of the distinct blocks' minimal polynomials.
    """
    if not m.is_square():
        raise NonSquareMatrixError("minimal polynomial requires a square matrix")
    result = ExactPolynomial.one()
    for p in {p.coeffs: p for _, _, p in m.block_minimal_polynomials}.values():
        result = result.lcm(p)
    return result


def projection_polynomial_of_gram(b: RestrictionMatrix) -> ExactPolynomial:
    """p with p(B) the orthogonal projection onto ker B, for a Gram (or any
    normal) matrix B: its minimal polynomial without the root at zero,
    normalized so p(0) = 1."""
    m = minimal_polynomial(b)
    g = ExactPolynomial(m.coeffs[1:]) if m.coeffs[0].is_zero() else m
    g0 = g(0)
    if g0.is_zero():
        raise AssertionError("gram matrix minimal polynomial is not squarefree")
    return g.scale(g0.inverse())


def _counterterm_apply(m: RestrictionMatrix, p: ExactPolynomial, w: DeltaVector) -> DeltaVector:
    """((p - 1)/z)(M) w for p(0) = 1: sum_(k>=1) c_k M^(k-1) w when
    p(z) = 1 + sum c_k z^k.  For normal M this is -M^+ w + c_1 P_ker w, so
    the Casimir map, which it defines, is not a least-norm solve."""
    h = ExactPolynomial(p.coeffs[1:])
    return m.to_vector(_block_poly_apply(m, h, m.from_vector(w)))


def projection_polynomial(q: OperatorExpr, r: int) -> ExactPolynomial:
    """p_r(z) = prod(1 - z/lambda) over the nonzero spectrum of (Q|_r)(Q|_r)*.

    Computed exactly as the z-free part of the minimal polynomial of
    B = (Q|_r)*(Q|_r), normalized so p_r(0) = 1.  p_r(B) is then the
    orthogonal projection onto ker B = ker(Q|_r).
    """
    return projection_polynomial_of_gram(restrict(q, r).gram)


def kernel_projector(m: RestrictionMatrix) -> RestrictionMatrix:
    """The orthogonal projection K (K* D K)^-1 K* D onto ker M, for its kernel
    basis K and the alpha! weights D, per block (the blocks' kernels are
    orthogonal) and column by column, from each block's kept K* D K."""
    d = m.ncols
    cols = [()] * d
    for part in m.parts:
        if not part.kernel:
            continue
        for k, j in enumerate(part.cs):
            unit = [ZERO] * len(part.cs)
            unit[k] = ONE
            cols[j] = tuple((i, a) for i, a in zip(part.cs, part.kernel_part(unit))
                            if not a.is_zero())
    return RestrictionMatrix(m.n, m.r_domain, m.r_domain, _transpose(cols, d))


def projector_onto_kernel(q: OperatorExpr, r: int) -> RestrictionMatrix:
    """p_r(B): the orthogonal projection onto ker(Q|_r) inside degree <= r."""
    return kernel_projector(restrict(q, r).gram)


def _pseudoinverse(a: RestrictionMatrix, w: DeltaVector) -> DeltaVector:
    """A^+ w: the least-norm solve of B v = A* w on the kept B = A* A.  Its
    exact certificate, A*(w - A v) = 0 and v in Ran A* = (ker B)^perp, fixes
    v, so w - A v is the part of w orthogonal to Ran A.  v in Ran A* is
    decided as `range_membership` decides it, by A*'s blocks leaving no
    inconsistent one, without building a preimage.  w is read once, and
    A* w, v, A v, w - A v and A*(w - A v) stay coordinate lists."""
    astar, b = a.gram_adjoint(), a.gram
    y = astar.from_vector(w)
    x = _min_norm_solve(b, _sparse_matvec(astar.sparse_rows, y))
    res = [c - d for c, d in zip(y, _sparse_matvec(a.sparse_rows, x))]
    if any(_sparse_matvec(astar.sparse_rows, res)) or _solve(astar.parts, x, astar.ncols)[1]:
        raise AssertionError("pseudoinverse contract violated")
    return b.to_vector(x)


def pseudoinverse_correction(m: RestrictionMatrix, w: DeltaVector) -> DeltaVector:
    """Exact Moore-Penrose solve for normal M: `_pseudoinverse`, the one
    route to M^+ w, which the on-shell counterterm -M^+ w shares.

    Returns the v with M v = (orthogonal projection of w onto Ran M) and
    v orthogonal to ker M; equals the vanishing-regulator limit of the
    resolvent construction.  Raises NonNormalMatrixError when M is not
    normal with respect to the weighted scalar product (use range_membership
    in that case), and DimensionMismatch, as range_membership does, when w
    does not lie in the codomain.
    """
    if not m.is_square() or m.r_domain != m.r_codomain:
        raise NonSquareMatrixError("pseudoinverse solve requires a square restriction")
    if w.degree() > m.r_codomain:
        raise DimensionMismatch("target degree exceeds the codomain order")
    if w.n != m.n:
        raise DimensionMismatch("target dimension does not match the matrix")
    if not m.is_normal():
        raise NonNormalMatrixError(
            "matrix is not normal for the weighted scalar product; "
            "fall back to range_membership")
    return _pseudoinverse(m, w)
