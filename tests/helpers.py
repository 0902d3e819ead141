"""Shared oracle helpers for the test suite.

These implement independent routes to quantities the library also computes;
they stay deliberately naive (dense loops, no reuse of library shortcuts).
"""

import random
from fractions import Fraction

from lietriples.ratlin import RatMatrix, _rat, _rref, kernel


# Dense references for the ratlin kernels: the loops as they were before
# the kernels learned to skip zero entries, every entry multiplied.


def dense_matmul(self, other):
    if self.cols != other.rows:
        raise ValueError("shape mismatch")
    ot = other.transpose().entries
    out = []
    for ra in self.entries:
        out.append([sum(a * b for a, b in zip(ra, rc)) for rc in ot])
    return RatMatrix(out)


def dense_apply(self, vec):
    v = [_rat(x) for x in vec]
    if len(v) != self.cols:
        raise ValueError("vector of wrong length")
    return [sum(a * b for a, b in zip(row, v)) for row in self.entries]


def dense_rref(rows):
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


# References for the greedy complement of env2.iota_embed: every seeded
# candidate drawn up front, then one elimination of the whole
# [frame | candidates] matrix (by ratlin._rref, itself checked against
# dense_rref).


def eager_seeded_candidates(h, seed):
    """All seeded candidates for the complement w of l, random combinations
    of the basis of h followed by that basis, drawn at once."""
    rng = random.Random(seed)
    h_vecs = [list(v) for v in h.vectors]
    candidates = []
    for _ in range(4 * len(h_vecs)):
        coeffs = [rng.randint(-3, 3) for _ in h_vecs]
        vec = [Fraction(0)] * h.ambient_dim
        for c, v in zip(coeffs, h_vecs):
            for i, x in enumerate(v):
                if c and x:
                    vec[i] += c * x
        if any(vec):
            candidates.append(vec)
    return candidates + h_vecs


def dense_greedy_complement(g_dim, frame_cols, candidates):
    """The candidates that are pivot columns of [frame | candidates] in
    reduced echelon form, or None when the columns do not span."""
    columns = [list(col) for col in frame_cols] + [list(c) for c in candidates]
    rows = [[Fraction(col[r]) for col in columns] for r in range(g_dim)]
    _, pivots = _rref(rows)
    if len(pivots) != g_dim:
        return None
    return [list(candidates[c - len(frame_cols)]) for c in pivots if c >= len(frame_cols)]


# The split octonions in Zorn's vector-matrix model: an octonion is
# (a, v, w, b) with scalars a, b and vectors v, w in Q^3.  Split G2 is the
# algebra of derivations of this product, a route independent of liealg.


def zmul(x, y):
    """Zorn's product of two split octonions."""
    a, v, w, b = x
    a2, v2, w2, b2 = y

    def dot(p, q):
        return sum(pi * qi for pi, qi in zip(p, q))

    def cross(p, q):
        return (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )

    return (
        a * a2 + dot(v, w2),
        tuple(a * v2[i] + b2 * v[i] - cross(w, w2)[i] for i in range(3)),
        tuple(a2 * w[i] + b * w2[i] + cross(v, v2)[i] for i in range(3)),
        b * b2 + dot(w, v2),
    )


def zorn_octonion(coords):
    """The octonion with coordinates in the basis (1, u0, v1..v3, w1..w3)."""
    unit, u0, *vw = (Fraction(c) for c in coords)
    return (unit + u0, tuple(vw[:3]), tuple(vw[3:]), unit - u0)


def zorn_coords(x):
    """Coordinates of an octonion in the basis (1, u0, v1..v3, w1..w3)."""
    a, v, w, b = x
    return [(a + b) / 2, (a - b) / 2, *v, *w]


def invariant_form_space(mats):
    """All symmetric F with X^T F + F X = 0 for every X in mats."""
    n = mats[0].rows
    idx = {}
    count = 0
    for i in range(n):
        for j in range(i, n):
            idx[(i, j)] = count
            count += 1
    rows = []
    for x in mats:
        for a in range(n):
            for b in range(a, n):
                row = [Fraction(0)] * count
                for k in range(n):
                    row[idx[(min(k, b), max(k, b))]] += x[k, a]
                    row[idx[(min(a, k), max(a, k))]] += x[k, b]
                rows.append(row)
    ker = kernel(RatMatrix(rows))
    forms = []
    for v in ker.vectors:
        f = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), t in idx.items():
            f[i][j] = v[t]
            f[j][i] = v[t]
        forms.append(RatMatrix(f))
    return forms


def adjoint_casimir_matrix(g):
    """Sum ad(X_i) ad(Y_i) over Killing-dual bases, as an explicit matrix."""
    from lietriples.liealg import killing_form
    from lietriples.ratlin import inverse

    gram = killing_form(g).gram
    ginv = inverse(gram)
    n = g.dim
    total = RatMatrix.zeros(n, n)
    ads = [g.ad_basis(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if ginv[i, j] != 0:
                total = total + (ads[i] @ ads[j]).scale(ginv[i, j])
    return total


def normal_order_words(words, bracket_fn):
    """Normal-order formal words of length <= 2 by adjacent swaps.

    words: list of (coefficient, index-tuple).  bracket_fn(a, b) must return
    the dense coordinate list of [Y_a, Y_b].  Returns (quad, lin, const)
    dictionaries in the same shape Quad2 uses.  This is a deliberately
    different algorithm from the library's matrix-transform path.
    """
    from fractions import Fraction

    quad = {}
    lin = {}
    const = Fraction(0)
    stack = list(words)
    while stack:
        c, w = stack.pop()
        if c == 0:
            continue
        if len(w) == 0:
            const += c
        elif len(w) == 1:
            lin[w[0]] = lin.get(w[0], Fraction(0)) + c
        else:
            a, b = w
            if a <= b:
                quad[(a, b)] = quad.get((a, b), Fraction(0)) + c
            else:
                stack.append((c, (b, a)))
                for k, d in enumerate(bracket_fn(a, b)):
                    if d != 0:
                        stack.append((c * d, (k,)))
    quad = {k: v for k, v in quad.items() if v != 0}
    lin = {k: v for k, v in lin.items() if v != 0}
    return quad, lin, const


def words_in_new_basis(words, s_matrix):
    """Substitute X_i = sum_a S[a, i] Y_a into every word."""
    out = []
    n = s_matrix.rows
    for c, w in words:
        if len(w) == 0:
            out.append((c, w))
        elif len(w) == 1:
            (i,) = w
            for a in range(n):
                if s_matrix[a, i] != 0:
                    out.append((c * s_matrix[a, i], (a,)))
        else:
            i, j = w
            for a in range(n):
                sa = s_matrix[a, i]
                if sa == 0:
                    continue
                for b in range(n):
                    sb = s_matrix[b, j]
                    if sb != 0:
                        out.append((c * sa * sb, (a, b)))
    return out


def naive_reduce(algebra, words, h):
    """Reduce formal ambient words modulo U(g) h by word rewriting.

    Independent of env2: builds the adapted basis, substitutes, normal
    orders by swaps, drops words whose last index lies in the h block, and
    relabels the survivors back to ambient coordinates.
    """
    from fractions import Fraction

    from lietriples.ratlin import RatMatrix, inverse

    pivots = set(h.pivots())
    front = [i for i in range(algebra.dim) if i not in pivots]
    cols = []
    for i in front:
        e = [Fraction(0)] * algebra.dim
        e[i] = Fraction(1)
        cols.append(e)
    cols.extend(list(v) for v in h.vectors)
    t = RatMatrix.from_columns(algebra.dim, cols)
    s = inverse(t)
    cache = {}

    def bracket_fn(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = s.apply(algebra.bracket(t.column(a), t.column(b)))
        return cache[(a, b)]

    quad, lin, const = normal_order_words(words_in_new_basis(words, s), bracket_fn)
    nf = len(front)
    out_quad = {(front[i], front[j]): c for (i, j), c in quad.items() if j < nf}
    out_lin = {front[i]: c for i, c in lin.items() if i < nf}
    return out_quad, out_lin, const


def naive_transfer(built):
    """The whole Casimir transfer, recomputed by word rewriting.

    Uses a reversed greedy complement (a different w than the library
    default picks), so agreement also re-exercises complement independence.
    Returns (quad, lin, const) in l-coordinates, reduced mod U(l)(l cap h).
    """
    from fractions import Fraction

    from lietriples.liealg import killing_form
    from lietriples.ratlin import RatMatrix, SubspaceBasis, inverse

    g = built.g
    d = built.descriptor
    gram = killing_form(g).gram
    ginv = inverse(gram)
    words = [
        (ginv[i, j], (i, j))
        for i in range(g.dim)
        for j in range(g.dim)
        if ginv[i, j] != 0
    ]

    frame = built.frame
    frame_cols = [list(frame.column(j)) for j in range(frame.cols)]
    chosen = list(frame_cols)
    base = SubspaceBasis(g.dim, chosen)
    for hv in reversed(list(d.h.vectors)):
        if base.dim == g.dim:
            break
        if not base.contains(hv):
            chosen.append(list(hv))
            base = SubspaceBasis(g.dim, chosen)
    assert base.dim == g.dim
    t = RatMatrix.from_columns(g.dim, chosen)
    s = inverse(t)
    cache = {}

    def bracket_fn(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = s.apply(g.bracket(t.column(a), t.column(b)))
        return cache[(a, b)]

    quad, lin, const = normal_order_words(words_in_new_basis(words, s), bracket_fn)
    n_l = frame.cols
    surv = [(c, k) for k, c in quad.items() if k[1] < n_l]
    surv += [(c, (i,)) for i, c in lin.items() if i < n_l]
    if const != 0:
        surv.append((const, ()))

    from lietriples.ratlin import solve, subspace_intersection

    lh_ambient = subspace_intersection(d.l, d.h)
    lh = SubspaceBasis(n_l, [solve(frame, list(v)) for v in lh_ambient.vectors])
    return naive_reduce(built.l_alg, surv, lh)
