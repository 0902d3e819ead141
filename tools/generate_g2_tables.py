#!/usr/bin/env python3
"""Regenerate src/lietriples/_g2data.py.

Split G2 is realized as the derivation algebra of the split octonions in the
Zorn vector-matrix model.  The script:

  1. builds the split octonion multiplication table on (1, u0, v1..v3, w1..w3),
  2. solves the derivation equations exactly to get a 14-dimensional space of
     7x7 rational matrices acting on the imaginary part,
  3. decomposes it under the diagonal split torus into 12 one-dimensional
     root spaces plus the 2-dimensional Cartan,
  4. normalizes root vectors so that [X_r, X_-r] = H_r with r(H_r) = 2,
  5. conjugates everything into coordinates where the invariant form is
     diag(1,1,1,1,-1,-1,-1), so the matrices land in so(4,3) literally,
  6. emits the structure table and representation matrices as Python data.

render() returns the text of the file and main() writes it; the test suite
compares render() with the shipped file byte for byte.

Run from the repository root:  python3 tools/generate_g2_tables.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lietriples.ratlin import BasisSolver, RatMatrix, SubspaceBasis, inverse, kernel

OUT_PATH = Path(__file__).resolve().parent.parent / "src" / "lietriples" / "_g2data.py"

# Basis of the split octonions: index 0 is the unit, 1..7 the imaginary part
# in the order (u0, v1, v2, v3, w1, w2, w3).
DIM_O = 8
IM = list(range(1, 8))


def zorn(a, v, w, b):
    """Octonion as (scalar a, vector v, vector w, scalar b)."""
    return (
        Fraction(a),
        tuple(Fraction(x) for x in v),
        tuple(Fraction(x) for x in w),
        Fraction(b),
    )


def zmul(x, y):
    a, v, w, b = x
    a2, v2, w2, b2 = y
    dot = lambda p, q: sum(pi * qi for pi, qi in zip(p, q))
    cross = lambda p, q: (
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


def to_coords(x):
    """Coordinates in the basis (1, u0, v1..v3, w1..w3)."""
    a, v, w, b = x
    unit = (a + b) / 2
    u0 = (a - b) / 2
    return [unit, u0, *v, *w]


def basis_elem(i):
    if i == 0:
        return zorn(1, (0, 0, 0), (0, 0, 0), 1)
    if i == 1:
        return zorn(1, (0, 0, 0), (0, 0, 0), -1)
    if 2 <= i <= 4:
        v = [0, 0, 0]
        v[i - 2] = 1
        return zorn(0, v, (0, 0, 0), 0)
    w = [0, 0, 0]
    w[i - 5] = 1
    return zorn(0, (0, 0, 0), w, 0)


def render() -> str:
    """The text of _g2data.py."""
    # Multiplication table of imaginary basis pairs, as 8-coordinate vectors.
    prod = {}
    for i in IM:
        for j in IM:
            prod[(i, j)] = to_coords(zmul(basis_elem(i), basis_elem(j)))

    # Derivation equations: D is 7x7 (acting on Im coordinates 1..7),
    # unknown x[(k,t)] = D[k][t], flattened k*7 + t with k, t in 0..6.
    def var(k, t):
        return k * 7 + t

    rows = []
    for i in IM:
        for j in IM:
            p = prod[(i, j)]
            # component 0 (the unit): 0 = sum_a D_ai s_aj + sum_b D_bj s_ib
            row = [Fraction(0)] * 49
            for a in IM:
                row[var(a - 1, i - 1)] += prod[(a, j)][0]
            for b in IM:
                row[var(b - 1, j - 1)] += prod[(i, b)][0]
            rows.append(row)
            # components 1..7
            for k in IM:
                row = [Fraction(0)] * 49
                for t in IM:
                    if p[t] != 0:
                        row[var(k - 1, t - 1)] += p[t]
                for a in IM:
                    row[var(a - 1, i - 1)] -= prod[(a, j)][k]
                for b in IM:
                    row[var(b - 1, j - 1)] -= prod[(i, b)][k]
                rows.append(row)

    der = kernel(RatMatrix(rows))
    assert der.dim == 14, f"derivation space has dim {der.dim}, expected 14"

    der_solver = BasisSolver(RatMatrix.from_columns(49, [list(v) for v in der.vectors]))

    def as_matrix(vec49):
        return RatMatrix([[vec49[k * 7 + t] for t in range(7)] for k in range(7)])

    def as_vec(m):
        return [m[k, t] for k in range(7) for t in range(7)]

    def in_der(m):
        return der_solver.coordinates(as_vec(m)) is not None

    # Split torus from the diagonal sl(3): v_i -> t_i v_i, w_i -> -t_i w_i.
    def torus(t1, t2, t3):
        d = [[Fraction(0)] * 7 for _ in range(7)]
        for i, t in enumerate((t1, t2, t3)):
            d[1 + i][1 + i] = Fraction(t)
            d[4 + i][4 + i] = Fraction(-t)
        return RatMatrix(d)

    T1 = torus(1, -1, 0)
    T2 = torus(0, 1, -1)
    assert in_der(T1) and in_der(T2), "torus generators are not derivations"

    def ad_on_der(t_mat):
        """Matrix of ad(t_mat) acting on Der in the kernel basis."""
        cols = []
        for v in der.vectors:
            d = as_matrix(list(v))
            comm = t_mat @ d - d @ t_mat
            coeffs = der_solver.coordinates(as_vec(comm))
            assert coeffs is not None
            cols.append(coeffs)
        return RatMatrix.from_columns(14, cols)

    A1 = ad_on_der(T1)
    A2 = ad_on_der(T2)

    # Joint eigenspaces over candidate integer eigenvalues.
    def eigenspace(m, lam):
        shifted = RatMatrix(
            [
                [m[i, j] - (lam if i == j else 0) for j in range(14)]
                for i in range(14)
            ]
        )
        return kernel(shifted)

    spaces = []
    total = 0
    for l1 in range(-3, 4):
        e1 = eigenspace(A1, l1)
        if e1.dim == 0:
            continue
        sub = RatMatrix.from_columns(14, [list(v) for v in e1.vectors])
        sub_solver = BasisSolver(sub)
        # restrict A2 to e1
        cols = []
        for v in e1.vectors:
            img = A2.apply(list(v))
            c = sub_solver.coordinates(img)
            assert c is not None
            cols.append(c)
        a2r = RatMatrix.from_columns(e1.dim, cols)
        for l2 in range(-3, 4):
            shifted = RatMatrix(
                [
                    [a2r[i, j] - (l2 if i == j else 0) for j in range(e1.dim)]
                    for i in range(e1.dim)
                ]
            )
            ker2 = kernel(shifted)
            if ker2.dim == 0:
                continue
            vecs = []
            for kv in ker2.vectors:
                vecs.append(sub.apply(list(kv)))
            spaces.append(((l1, l2), SubspaceBasis(14, vecs)))
            total += ker2.dim
    assert total == 14, f"joint eigenspaces cover {total} of 14 dims"

    roots = [(lam, sp) for lam, sp in spaces if lam != (0, 0)]
    cartan = [sp for lam, sp in spaces if lam == (0, 0)][0]
    assert len(roots) == 12 and all(sp.dim == 1 for _, sp in roots)
    assert cartan.dim == 2

    def lex_positive(lam):
        return lam > (0, 0)

    positives = sorted([lam for lam, _ in roots if lex_positive(lam)])
    assert len(positives) == 6

    # Identify the two simple roots and sort positives by height.
    pos_set = set(positives)
    simples = [
        r
        for r in positives
        if not any(
            (r[0] - s[0], r[1] - s[1]) in pos_set for s in positives if s != r
        )
    ]
    assert len(simples) == 2
    # alpha = short simple, beta = long simple: express positives as
    # m*alpha + n*beta and sort by (m + n, m).
    a_s, b_s = simples

    def decompose(r):
        for m in range(4):
            for n in range(3):
                if (m * a_s[0] + n * b_s[0], m * a_s[1] + n * b_s[1]) == r:
                    return (m, n)
        raise AssertionError(f"root {r} not a positive combination of simples")

    heights = {r: decompose(r) for r in positives}
    # make alpha the root appearing with coefficient up to 3
    if max(h[0] for h in heights.values()) < max(h[1] for h in heights.values()):
        a_s, b_s = b_s, a_s
        heights = {r: (h[1], h[0]) for r, h in heights.items()}
    order = sorted(positives, key=lambda r: (sum(heights[r]), heights[r][0]))

    root_vec = {}
    for lam, sp in roots:
        v = list(sp.vectors[0])
        # primitive integer scaling with deterministic sign
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        first = next(x for x in ints if x != 0)
        if first < 0:
            ints = [-x for x in ints]
        root_vec[lam] = [Fraction(x) for x in ints]

    def der_matrix(coeffs14):
        acc = [Fraction(0)] * 49
        for c, v in zip(coeffs14, der.vectors):
            if c != 0:
                for t in range(49):
                    acc[t] += c * v[t]
        return as_matrix(acc)

    def pairing(lam, coeffs14):
        """Value of the root functional lam on a Cartan element.

        The Cartan element must be c1 T1 + c2 T2; then lam(h) = c1 l1 + c2 l2.
        """
        h = der_matrix(coeffs14)
        # read c1, c2 off the diagonal action on v1, v2, v3
        t1 = h[1, 1]
        t2 = h[2, 2]
        t3 = h[3, 3]
        assert t1 + t2 + t3 == 0
        # h = c1 T1 + c2 T2 means (t1, t2, t3) = (c1, c2 - c1, -c2)
        c1, c2 = t1, -t3
        return lam[0] * c1 + lam[1] * c2, (c1, c2)

    # Normalize [X_r, X_-r] = H_r with r(H_r) = 2.
    coroot = {}
    for r in order:
        neg = (-r[0], -r[1])
        Xr = as_matrix_from_coeffs(root_vec[r], der)
        Xn = as_matrix_from_coeffs(root_vec[neg], der)
        comm = Xr @ Xn - Xn @ Xr
        coeffs = der_solver.coordinates(as_vec(comm))
        val, _ = pairing(r, coeffs)
        assert val != 0
        c = val / 2
        root_vec[neg] = [x / c for x in root_vec[neg]]
        Xn = as_matrix_from_coeffs(root_vec[neg], der)
        comm = Xr @ Xn - Xn @ Xr
        coeffs = der_solver.coordinates(as_vec(comm))
        val, c12 = pairing(r, coeffs)
        assert val == 2
        coroot[r] = comm

    # Cartan basis: coroots of the simple roots.
    alpha = next(r for r in order if heights[r] == (1, 0))
    beta = next(r for r in order if heights[r] == (0, 1))
    H1 = coroot[alpha]
    H2 = coroot[beta]

    basis_mats = [H1, H2]
    labels = ["H1", "H2"]
    for idx, r in enumerate(order):
        basis_mats.append(as_matrix_from_coeffs(root_vec[r], der))
        labels.append(f"E{idx + 1}")
    for idx, r in enumerate(order):
        neg = (-r[0], -r[1])
        basis_mats.append(as_matrix_from_coeffs(root_vec[neg], der))
        labels.append(f"F{idx + 1}")

    solver14 = BasisSolver(RatMatrix.from_columns(49, [as_vec(m) for m in basis_mats]))
    table = []
    non_integer = []
    for i in range(14):
        for j in range(i + 1, 14):
            comm = basis_mats[i] @ basis_mats[j] - basis_mats[j] @ basis_mats[i]
            coeffs = solver14.coordinates(as_vec(comm))
            assert coeffs is not None
            for k, c in enumerate(coeffs):
                if c != 0:
                    table.append((i, j, k, c.numerator, c.denominator))
                    if c.denominator != 1:
                        non_integer.append((i, j, k, c))

    if non_integer:
        print("NOTE: non-integer structure constants:", non_integer)

    # Congruence into coordinates where the invariant form is diag(I4, -I3):
    # (u0, v_i + w_i, v_i - w_i).
    cols = []
    e = lambda i: [Fraction(1) if t == i else Fraction(0) for t in range(7)]
    cols.append(e(0))
    for i in range(3):
        cols.append([a + b for a, b in zip(e(1 + i), e(4 + i))])
    for i in range(3):
        cols.append([a - b for a, b in zip(e(1 + i), e(4 + i))])
    Bmat = RatMatrix.from_columns(7, cols)
    Binv = inverse(Bmat)
    J = RatMatrix.diagonal([1, 1, 1, 1, -1, -1, -1])

    rep = []
    for m in basis_mats:
        mp = Binv @ m @ Bmat
        check = mp.transpose() @ J + J @ mp
        assert check.is_zero(), "conjugated matrix is not in so(4,3)"
        rep.append(mp)

    out = [
        '"""Hard-coded split G2 tables.\n\n',
        "Generated by tools/generate_g2_tables.py from the derivation algebra\n"
        "of the split octonions; do not edit by hand.  BASIS_LABELS orders the\n"
        "basis as (Cartan H1 H2, root vectors E1..E6 by height, F1..F6 the\n"
        "opposite root vectors).  STRUCTURE holds (i, j, k, num, den) entries\n"
        "of [X_i, X_j] for i < j.  REP7 holds the 7-dimensional representation\n"
        "as (num, den) entry pairs; the matrices satisfy X^T J + J X = 0 for\n"
        "J = diag(1, 1, 1, 1, -1, -1, -1).\n"
        '"""\n\n',
        f"BASIS_LABELS = {tuple(labels)!r}\n\n",
        "STRUCTURE = [\n",
    ]
    out += [f"    {row!r},\n" for row in table]
    out.append("]\n\nREP7 = [\n")
    for m in rep:
        out.append("    [\n")
        for i in range(7):
            row = [(m[i, j].numerator, m[i, j].denominator) for j in range(7)]
            out.append(f"        {row!r},\n")
        out.append("    ],\n")
    out.append("]\n")
    return "".join(out)


def main():
    with open(OUT_PATH, "w") as fh:
        fh.write(render())
    print(f"wrote {OUT_PATH}")


def as_matrix_from_coeffs(coeffs14, der):
    acc = [Fraction(0)] * 49
    for c, v in zip(coeffs14, der.vectors):
        if c != 0:
            for t in range(49):
                acc[t] += c * v[t]
    return RatMatrix([[acc[k * 7 + t] for t in range(7)] for k in range(7)])


if __name__ == "__main__":
    main()
