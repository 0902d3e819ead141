"""Exact rational linear algebra.

Everything downstream (Lie brackets, Killing forms, enveloping-algebra
reductions) runs on top of this module.  Every value it takes in or hands
back is a ``fractions.Fraction``; _rat, the package's one reader of exact
input (descriptor files and the CLI read through it), also takes an int
or a "p/q" string, and never a float.  Inside a kernel the arithmetic may
run in Python ints: the one elimination, _rref, works on primitive integer
rows and divides only its final pivot rows into Fractions; char_poly hands
back the integer characteristic polynomial of dA with d, and signature and
rational_joint_spectrum read inertia and joint rational spectra off it,
with no eigenvector; BasisSolver solves in ints; over_one_denominator,
add_over and lowest_terms scale to one denominator.  No other module takes
a Fraction apart, and every change of basis goes through BasisSolver.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence


class AmbientMismatch(ValueError):
    """Two subspaces of different ambient dimension were combined, or a
    subspace met an algebra of another dimension."""


class NonSymmetric(ValueError):
    """A symmetric matrix was required."""


class DependentBasis(ValueError):
    """The proposed basis vectors are linearly dependent."""


class IrrationalSpectrum(ArithmeticError):
    """Operators failed to diagonalize together over the rationals."""


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
_MAX_DIGITS = 4300  # Python's default int_max_str_digits, whatever the setting


def _rat(x) -> Fraction:
    """x as a Fraction: a Fraction, an int (not a bool), or the text "p" or
    "p/q" with an optional sign.  A wrong type or other text is a TypeError,
    a zero denominator or more than _MAX_DIGITS digits in a row ValueError."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    match = _RATIONAL.fullmatch(x) if isinstance(x, str) else None
    if match is None:
        raise TypeError(f"not an exact rational: {x!r}")
    sign, p, q = match.groups(default="1")  # no "/q" reads as q = 1
    if len(p) > _MAX_DIGITS or len(q) > _MAX_DIGITS:
        raise ValueError(f"more than {_MAX_DIGITS} digits in a row")
    if not int(q):
        raise ValueError(f"zero denominator: {x!r}")
    return Fraction(int(sign + p), int(q))


# A vector is sparse, {index: coefficient}: subspaces, kernels, the rows
# _rref eliminates, the basis of a BasisSolver and the rows of a RatMatrix
# all hold that form, and every kernel below reads and writes it directly.


def combination(coeffs: dict, vectors) -> dict:
    """sum_k coeffs[k] vectors[k] over sparse vectors (vectors is indexed by
    the keys of coeffs), with no zero coefficient."""
    out: dict = {}
    for k, c in coeffs.items():
        if c:
            for i, x in vectors[k].items():
                y = c * x
                prev = out.get(i)
                out[i] = y if prev is None else prev + y
    return {i: x for i, x in out.items() if x}


def over_one_denominator(vectors: dict) -> tuple[dict, int]:
    """(d * vectors, d) for a dict of sparse vectors with Fraction or int
    entries, d the lcm of their denominators (1 when there is none)."""
    d = math.lcm(*(x.denominator for v in vectors.values() for x in v.values()))
    scaled = {
        k: {i: x.numerator * (d // x.denominator) for i, x in v.items()}
        for k, v in vectors.items()
    }
    return scaled, d


def add_over(u: dict, d_u: int, v: dict, d_v: int) -> tuple[dict, int]:
    """(w, d) with w / d = u / d_u + v / d_v for sparse int vectors, d the
    lcm of d_u and d_v."""
    d = math.lcm(d_u, d_v)
    w = {i: x * (d // d_u) for i, x in u.items()}
    for i, y in v.items():
        w[i] = w.get(i, 0) + y * (d // d_v)
    return w, d


def lowest_terms(vectors: dict, d: int) -> tuple[dict, int]:
    """(vectors / g, d / g), g the gcd of d > 0 and every entry of the int vectors."""
    g = math.gcd(d, *(x for v in vectors.values() for x in v.values()))
    return {k: {i: x // g for i, x in v.items()} for k, v in vectors.items()}, d // g


def add_outer(table: dict, v: dict, w: dict) -> None:
    """table[(a, b)] += v[a] w[b] over the sparse vectors v and w."""
    for a, x in v.items():
        for b, y in w.items():
            key = (a, b)
            table[key] = table.get(key, 0) + x * y


class RatMatrix:
    """Immutable matrix over the rationals, stored as sparse rows.

    The shape is explicit, rows x cols, because a sparse row does not carry
    its length.  data holds one {column: Fraction} map per row, and no map
    holds a zero, so equal matrices have equal data; the maps are shared
    with whoever reads them and must not be changed.  The public
    constructors coerce dense input (ints, "p/q" strings, Fractions) and
    check it; the kernels below build their results from Fractions they
    computed themselves and wrap them with _of_rows, unchecked.  entries is
    a dense view, built on each read, for readers outside the package.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Iterable]):
        rows = [[_rat(x) for x in row] for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        cols = len(rows[0]) if rows else 0
        self._set([{j: x for j, x in enumerate(r) if x} for r in rows], cols)

    @classmethod
    def _of_rows(cls, rows: Iterable[dict], cols: int) -> "RatMatrix":
        """The matrix with these rows, {column: Fraction} maps that hold no
        zero and no column outside range(cols): nothing is coerced or
        checked, and the maps are kept, not copied."""
        m = object.__new__(cls)
        m._set(rows, cols)
        return m

    def _set(self, rows: Iterable[dict], cols: int) -> None:
        data = tuple(rows)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix._of_rows([{} for _ in range(rows)], cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.diagonal([Fraction(1)] * n)

    @staticmethod
    def diagonal(values: Sequence) -> "RatMatrix":
        """Each value is coerced once."""
        diag = map(_rat, values)
        return RatMatrix._of_rows([{i: x} if x else {} for i, x in enumerate(diag)], len(values))

    @staticmethod
    def from_columns(ambient: int, columns: Sequence[Sequence]) -> "RatMatrix":
        cols = [[_rat(x) for x in c] for c in columns]
        if any(len(c) != ambient for c in cols):
            raise ValueError("column of wrong length")
        by_column = [{i: x for i, x in enumerate(c) if x} for c in cols]
        return RatMatrix._of_rows(by_column, ambient).transpose()

    @property
    def entries(self) -> tuple:
        """The dense rows, as tuples of Fractions."""
        zero = Fraction(0)
        return tuple(tuple(r.get(j, zero) for j in range(self.cols)) for r in self.data)

    def __getitem__(self, idx):
        i, j = idx
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return self.data[i].get(j, Fraction(0))

    def column(self, j: int) -> tuple:
        return tuple(self[i, j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RatMatrix":
        out: list = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                out[j][i] = x
        return RatMatrix._of_rows(out, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.data)))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = []
        for a, b in zip(self.data, other.data):
            row = dict(a)
            for j, y in b.items():
                x = row.get(j)
                row[j] = y if x is None else x + y
            out.append({j: x for j, x in row.items() if x})
        return RatMatrix._of_rows(out, self.cols)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + -other

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of_rows([{j: -x for j, x in r.items()} for r in self.data], self.cols)

    def scale(self, c) -> "RatMatrix":
        c = _rat(c)
        if not c:
            return RatMatrix.zeros(self.rows, self.cols)
        return RatMatrix._of_rows([{j: c * x for j, x in r.items()} for r in self.data], self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # row i of the product combines the rows of other by row i of self
        return RatMatrix._of_rows([combination(r, other.data) for r in self.data], other.cols)

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector, as a sparse vector."""
        v = {k: _rat(x) for k, x in vec.items() if x}
        if any(not 0 <= k < self.cols for k in v):
            raise ValueError("vector index outside the matrix's columns")
        sums = (sum(a * v[k] for k, a in row.items() if k in v) for row in self.data)
        return {i: y for i, y in enumerate(sums) if y}

    def is_symmetric(self) -> bool:
        d = self.data
        return self.rows == self.cols and all(
            d[j].get(i) == x for i, row in enumerate(d) for j, x in row.items()
        )

    def is_zero(self) -> bool:
        return not any(self.data)

    def trace(self) -> Fraction:
        return sum((self[i, i] for i in range(min(self.rows, self.cols))), Fraction(0))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def _primitive(row: dict) -> dict:
    """The sparse row {column: Fraction or int} as the primitive integer row
    on the same line: times the lcm of its denominators, divided by the gcd
    of its entries, zeros dropped."""
    d = math.lcm(*[x.denominator for x in row.values()])
    out = {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}
    g = math.gcd(*out.values())
    return out if g == 1 else {j: x // g for j, x in out.items()}


def _rref(rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows {column: Fraction or int}, in
    place in the list, whose row maps are replaced and never changed;
    returns (rows, pivot column list), each pivot row a {column: Fraction}
    map with a 1 at its pivot and no zero entry, and the rows below them
    empty.

    Fraction-free: each row is replaced in turn by its primitive integer
    row, and a row update is the cross-multiplication (p/g) row - (f/g)
    pivot_row, g = gcd(p, f) of the pivot p and the row's entry f, with the
    row's content divided out after it.  Only the final pivot rows are
    divided by their pivots, into Fractions.  A row space has exactly one
    reduced echelon form, so this is the form an elimination over Fractions
    gives.

    Only the columns some row uses are visited.  Rows r and below are zero
    left of column c when a pivot is sought there, so the pivot row's
    support starts at c, and every row update touches only that support.
    """
    gcd = math.gcd
    for i, row in enumerate(rows):
        if row:
            rows[i] = _primitive(row)
    n_rows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in sorted(set().union(*rows)):
        if r == n_rows:
            break
        for pivot_row in range(r, n_rows):
            if c in rows[pivot_row]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n_rows):
            row = rows[i]
            f = row.get(c)
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    for j in row:
                        row[j] *= a
                for j, x in prow.items():
                    y = row.get(j, 0) - b * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                g = gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
        pivots.append(c)
        r += 1
    for i, c in enumerate(pivots):
        row = rows[i]
        p = row[c]
        rows[i] = {j: Fraction(x, p) for j, x in row.items()}
    return rows, pivots


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank via fraction-free (Bareiss) elimination on an integer matrix."""
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, n_rows):
            if all(x == 0 for x in rows[i]):
                continue
            ri, rr = rows[i], rows[r]
            rows[i] = [(piv * ri[j] - ri[c] * rr[j]) // prev for j in range(n_cols)]
        prev = piv
        r += 1
        if r == n_rows:
            break
    return r


def rank(m: RatMatrix) -> int:
    """Rank over the rationals, computed fraction-free on primitive rows."""
    return _bareiss_rank([[r.get(j, 0) for j in range(m.cols)] for r in map(_primitive, m.data)])


def kernel(m: RatMatrix) -> "SubspaceBasis":
    """Canonical basis of the null space {x : m x = 0}, as sparse vectors."""
    return _kernel(list(m.data), m.cols)


def _kernel(rows: list[dict], cols: int) -> "SubspaceBasis":
    """kernel() of the matrix with these sparse rows {column: Fraction or
    int} and cols columns; the list is used up (see _rref)."""
    rows, pivots = _rref(rows)
    vectors = []
    for fc in sorted(set(range(cols)).difference(pivots)):
        v = {pc: -rows[r][fc] for r, pc in enumerate(pivots) if fc in rows[r]}
        v[fc] = Fraction(1)
        vectors.append(v)
    return SubspaceBasis(cols, vectors)


def solve(m: RatMatrix, v: Sequence) -> Optional[list]:
    """Some exact solution x of m x = v, or None if the system is inconsistent.

    Free variables are set to zero, so the returned solution is deterministic.
    """
    vv = [_rat(x) for x in v]
    if len(vv) != m.rows:
        raise ValueError("right-hand side of wrong length")
    n_cols = m.cols
    rows, pivots = _rref([{**r, n_cols: x} for r, x in zip(m.data, vv)])
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = rows[r_idx].get(n_cols, x[pc])
    return x


class BasisSolver:
    """Coordinates of sparse vectors in a fixed basis B, a list of sparse
    vectors.

    The basis is reduced once: row reduction of [B^T | I] gives [E B^T | E]
    with E B^T in reduced echelon form, whose pivot columns p pick out an
    invertible square block A = B[p] with A^-1 = E^T.  The block I starts
    one past the largest index any basis vector uses.  E^T and B are kept
    in Python ints over one denominator each, d_E (divisor) and d_B,
    and int_coordinates(v) is X = d_E E^T v[p] with the exact check
    B X = d_B d_E v: two sparse integer products per right-hand side
    instead of an elimination, over the nonzero entries of v and X only.
    Systems whose columns may be dependent go through solve().
    """

    __slots__ = ("_inverse", "_columns", "_check", "divisor")

    def __init__(self, basis: Sequence[dict]):
        n = 1 + max((i for v in basis for i in v), default=-1)
        rows, pivots = _rref([{**v, n + j: 1} for j, v in enumerate(basis)])
        if pivots and pivots[-1] >= n:
            raise DependentBasis("basis vectors are linearly dependent")
        # column p of E^T for each pivot position p, as a sparse vector
        self._inverse, self.divisor = over_one_denominator(
            {p: {i - n: x for i, x in rows[r].items() if i >= n} for r, p in enumerate(pivots)}
        )
        self._columns, d_b = over_one_denominator(dict(enumerate(basis)))
        self._check = d_b * self.divisor

    def int_coordinates(self, vec: dict) -> Optional[dict]:
        """X, with no zero entry, such that the int vector vec over any s has
        the coordinates X / (s divisor), or None if vec is outside the span."""
        x: dict = {}
        for p, vp in vec.items():
            col = self._inverse.get(p)
            if col and vp:
                for i, c in col.items():
                    x[i] = x.get(i, 0) + c * vp
        x = {i: c for i, c in x.items() if c}
        rest = {r: self._check * y for r, y in vec.items()}
        for i, xi in x.items():
            for r, c in self._columns[i].items():
                rest[r] = rest.get(r, 0) - xi * c
        return None if any(rest.values()) else x

    def coordinates(self, vec: dict) -> Optional[dict]:
        """The unique coefficients of the sparse vector vec in the basis, as
        Fractions in a sparse vector, or None if vec lies outside the span."""
        scaled, d = over_one_denominator({0: vec})
        x = self.int_coordinates(scaled[0])
        return None if x is None else {i: Fraction(c, d * self.divisor) for i, c in x.items()}


def coordinates_in(
    basis: Sequence[dict], vectors: Iterable[dict], outside: Callable[[int], Exception]
) -> Iterator[dict]:
    """Coordinates of each sparse vector in the basis, a list of sparse
    vectors, each vector read and solved in turn as the result is iterated.
    A dependent basis raises DependentBasis at the call; vector k outside
    the span raises outside(k)."""
    solver = BasisSolver(basis)

    def solved():
        for k, vec in enumerate(vectors):
            x = solver.coordinates(vec)
            if x is None:
                raise outside(k)
            yield x

    return solved()


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    rows, pivots = _rref([{**r, n + i: Fraction(1)} for i, r in enumerate(m.data)])
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return RatMatrix._of_rows([{j - n: x for j, x in row.items() if j >= n} for row in rows], n)


def char_poly(a: RatMatrix) -> tuple[list[int], int]:
    """(c, d): the integer coefficients c[0..n] of det(x I - dA) = sum c_k
    x^k (monic), d the lcm of the denominators of A.

    Faddeev-LeVerrier in Python ints on B = dA: M_k = B M_(k-1) + c[n-k+1]
    I and c[n-k] = -tr(B M_k) / k, where the division is exact because an
    integer matrix has an integer characteristic polynomial.  B is read row
    by row as its nonzero (column, entry) pairs, and B M_k skips the zero
    entries of both factors: M_k is kept as rows {column: entry}, which stay
    about as sparse as B.  c_k / d^(n-k) is the coefficient of x^k in
    det(x I - A).
    """
    n = a.rows
    b, d = over_one_denominator(dict(enumerate(a.data)))
    support = [list(b[i].items()) for i in range(n)]
    c = [0] * (n + 1)
    c[n] = 1
    bm: list = [{} for _ in range(n)]  # B M_0, M_0 = 0, rows as {column: entry}
    for k in range(1, n + 1):
        m = bm
        shift = c[n - k + 1]
        if shift:
            for i in range(n):
                m[i][i] = m[i].get(i, 0) + shift
        bm = []
        for row in support:
            acc: dict = {}
            for j, b_ij in row:
                for col, x in m[j].items():
                    if x:
                        acc[col] = acc.get(col, 0) + b_ij * x
            bm.append(acc)
        c[n - k] = -sum(bm[i].get(i, 0) for i in range(n)) // k
    return c, d


def sign_changes(coeffs: Sequence) -> int:
    """Sign changes along the nonzero entries of a coefficient list."""
    signs = [x > 0 for x in coeffs if x]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _taylor_shift(coeffs: Sequence[int], t: int) -> list[int]:
    """Coefficients (lowest degree first) of P(x + t), in integers."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += t * a[j + 1]
    return a


def _integer_roots(coeffs: Sequence[int], bound: int) -> list[int]:
    """Integer roots in [-bound, bound] of an integer polynomial.

    Budan bisection: with V(t) the sign changes of the coefficients of
    P(x + t), P has at most V(lo) - V(hi) roots in (lo, hi].  An interval
    where the two agree holds no root and is dropped, every other one is
    halved, and at width 1 the end hi is a root when P(hi) = 0, the
    constant term of P(x + hi).  The work grows with log(bound), not bound.
    """
    memo: dict = {}

    def at(t: int) -> tuple[int, bool]:
        """(V(t), whether P(t) = 0)."""
        if t not in memo:
            c = _taylor_shift(coeffs, t)
            memo[t] = (sign_changes(c), c[0] == 0)
        return memo[t]

    roots, intervals = [], [(-bound - 1, bound)]
    while intervals:
        lo, hi = intervals.pop()
        if at(lo)[0] == at(hi)[0]:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            intervals += [(lo, mid), (mid, hi)]
        elif at(hi)[1]:
            roots.append(hi)
    return roots


def _deflated(coeffs: list[int], t: int) -> tuple[list[int], int]:
    """(q, m): the integer polynomial coeffs (lowest degree first) is
    (x - t)^m q with q(t) != 0; synthetic division, once per factor."""
    m = 0
    while len(coeffs) > 1:
        quotient, acc = [], 0
        for c in reversed(coeffs):
            acc = acc * t + c
            quotient.append(acc)
        if quotient.pop():  # the remainder, P(t)
            break
        coeffs, m = quotient[::-1], m + 1
    return coeffs, m


def _annihilates(b: list[dict], roots: Iterable[int]) -> bool:
    """Whether prod_t (B - t I) = 0, B given by its sparse integer rows:
    each unit row vector is multiplied by every factor in turn."""
    for i in range(len(b)):
        v = {i: 1}
        for t in roots:
            v = combination({0: 1, 1: -t}, [combination(v, b), v])
        if v:
            return False
    return True


def rational_joint_spectrum(operators: Sequence[RatMatrix]) -> list[tuple[tuple, int]]:
    """The joint eigenvalues of one or more commuting n x n operators, each
    a tuple of Fractions with its multiplicity, in increasing order; no
    eigenvector is computed.

    Each operator is B_k / d_k, B_k integer, as char_poly scales it.  The
    integer roots T_k of det(x I - B_k), found by Budan bisection inside its
    Gershgorin radius, with multiplicities by synthetic division, must cover
    n dimensions and prod_(t in T_k) (B_k - t I) must vanish (B_k is
    diagonalizable over Q), and the operators must commute, or
    IrrationalSpectrum names the ad action of the one caller.  A joint
    eigenvalue is then t / d, t in T_1 x ... x T_r, and with c_1 = 1 and
    c_(k+1) = c_k (1 + max T_k - min T_k), its multiplicity is that of the
    root sum c_k t_k (one-to-one on the tuples) of det(x I - sum c_k B_k).
    """
    n = operators[0].rows
    spectra, scales, ints = [], [], []  # per operator: {t: multiplicity}, d_k, B_k's rows
    for op in operators:
        c, d = char_poly(op)
        rows, _ = over_one_denominator(dict(enumerate(op.data)))
        b = [rows[i] for i in range(n)]
        c, zero = _deflated(c, 0)  # bisect without the x^zero factor
        spectrum = {0: zero} if zero else {}
        radius = max((sum(map(abs, row.values())) for row in b), default=0)
        for t in _integer_roots(c, radius):
            c, spectrum[t] = _deflated(c, t)
        covered = sum(spectrum.values())
        if covered != n:
            raise IrrationalSpectrum(
                "ad action does not split over the rationals "
                f"(covered {covered} of {n} dimensions)"
            )
        # n distinct roots: diagonalizable, with nothing to check
        if len(spectrum) < n and not _annihilates(b, spectrum):
            raise IrrationalSpectrum("ad action does not split over the rationals (not semisimple)")
        spectra.append(dict(sorted(spectrum.items())))
        scales.append(d)
        ints.append(b)
    for b, b2 in combinations(ints, 2):
        if any(combination(b[i], b2) != combination(b2[i], b) for i in range(n)):
            raise IrrationalSpectrum("operator does not preserve the subspace")
    if len(operators) == 1:
        return [((Fraction(t, scales[0]),), m) for t, m in spectra[0].items()]
    weights, h = [1], operators[0].scale(scales[0])
    for spectrum, op, d in zip(spectra, operators[1:], scales[1:]):
        weights.append(weights[-1] * (1 + max(spectrum) - min(spectrum)))
        h = h + op.scale(weights[-1] * d)
    (c, _), joint = char_poly(h), []
    for tag in product(*spectra):
        c, m = _deflated(c, sum(w * t for w, t in zip(weights, tag)))
        if m:
            joint.append((tuple(Fraction(t, d) for t, d in zip(tag, scales)), m))
    return joint


def signature(s: RatMatrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric matrix.

    A symmetric matrix is diagonalizable with real eigenvalues, so its
    characteristic polynomial is x^zero, zero the nullity, times a factor
    with a nonzero constant term and only real roots; Descartes' rule of
    signs counts the positive ones exactly.
    """
    if not s.is_symmetric():
        raise NonSymmetric("signature requires a symmetric matrix")
    c, _ = char_poly(s)  # d > 0: c has the signs of det(x I - S)
    zero = next(k for k, ck in enumerate(c) if ck)
    pos = sign_changes(c)
    return pos, s.rows - zero - pos, zero


class SubspaceBasis:
    """A rational subspace in canonical (reduced echelon) form.

    Takes sparse vectors {index: coefficient} and stores a tuple of them
    with leading coefficient 1 at strictly increasing pivot positions and
    no entry at any other pivot.  Two SubspaceBasis values are equal, and
    hash equally, exactly when they span the same subspace.  The vectors
    are shared with whoever reads them and must not be changed.
    """

    __slots__ = ("ambient_dim", "vectors", "_pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[dict]):
        rows = []
        for v in vectors:
            if any(not 0 <= i < ambient_dim for i in v):
                raise ValueError("vector index outside the ambient space")
            rows.append({i: _rat(x) for i, x in v.items()})
        rows, pivots = _rref(rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vectors", tuple(rows[: len(pivots)]))
        # derived from vectors, so equality and hashing ignore it
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @staticmethod
    def full(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, [{i: 1} for i in range(ambient_dim)])

    @staticmethod
    def zero(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, [])

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrix(self) -> RatMatrix:
        """Basis vectors as columns of an ambient_dim x dim matrix."""
        return RatMatrix._of_rows(self.vectors, self.ambient_dim).transpose()

    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis vector, as the echelon form found it."""
        return self._pivots

    def contains(self, vec: dict) -> bool:
        """Whether the sparse vector vec lies in the subspace."""
        v = dict(vec)
        for basis_vec, pivot in zip(self.vectors, self._pivots):
            f = v.get(pivot)
            if f:
                for j, b in basis_vec.items():
                    v[j] = v.get(j, 0) - f * b
        return not any(v.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(v.items()) for v in self.vectors)))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in R^{self.ambient_dim})"


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspace_sum over different ambient spaces")
    return SubspaceBasis(a.ambient_dim, list(a.vectors) + list(b.vectors))


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """The intersection of two subspaces, as the kernel of the concatenated
    coefficient system.

    A vector in the intersection is A x = B y; solve for (x, y) in the kernel
    of [A | -B] and map x back through A.
    """
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspace_intersection over different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis.zero(a.ambient_dim)
    minus_b = ({i: -x for i, x in v.items()} for v in b.vectors)
    stacked = RatMatrix._of_rows([*a.vectors, *minus_b], a.ambient_dim).transpose()
    xs = ({j: c for j, c in kv.items() if j < a.dim} for kv in kernel(stacked).vectors)
    return SubspaceBasis(a.ambient_dim, (combination(x, a.vectors) for x in xs))
