"""First cohomology of braid groups acting on blocks of imprimitivity.

Fix a base homomorphism W of the braid group on m strands into S(t) and
a coefficient ring Z/r (r = 0 means Z).  Homomorphisms into S(rt) that
permute t blocks of size r through W, moving each block by a rotation,
correspond to crossed homomorphisms ("cocycles") z assigning to each
generator a vector in (Z/r)^t; the braid relations become an integer
linear system, coboundaries the image of a difference operator, and the
classification of block homomorphisms up to block-preserving conjugacy
is the quotient.

A cocycle is stored as a list of m-1 integer vectors of length t.
"""

from __future__ import annotations

import functools
import math

from .homs import BraidHom
from .retraction import block_map, block_projection
from .words import braid_relations


# The most entries (rows times columns) that ``cocycle_matrix`` builds.  The
# dense matrix and the copy that ``smith_normal_form`` makes cost about 15
# bytes an entry: standard 20 (1.3 M entries) peaks at 37 MB of RSS, and
# cyclic 25 (4.7 M, the largest base let through) at 93 MB.
MAX_COCYCLE_ENTRIES = 5_000_000


def check_cocycle_size(m, t):
    """``ValueError`` if the cocycle matrix of a base of m strands on t
    points would hold more than MAX_COCYCLE_ENTRIES entries: t rows for each
    of the (m - 1)(m - 2)/2 relations of ``words.braid_relations``, and
    (m - 1) t columns.  It needs only m and t, so a caller can refuse a base
    before it builds it."""
    entries = (m - 1) * (m - 2) // 2 * t * (m - 1) * t
    if entries > MAX_COCYCLE_ENTRIES:
        raise ValueError(
            "the cocycle matrix of %d strands on %d points would hold %d "
            "entries, over the limit of %d" % (m, t, entries, MAX_COCYCLE_ENTRIES)
        )


def cocycle_matrix(omega):
    """Integer matrix whose kernel (over the coefficients) is the cocycle set.

    Unknowns are the m-1 generator vectors concatenated.  Each relation
    lhs = rhs of ``words.braid_relations`` gives t rows, the Fox derivatives
    of lhs minus those of rhs (Fox, Free differential calculus I, 1953): a
    cocycle takes a word g_1...g_L to sum_j T_{g_1...g_(j-1)} z_{g_j}, where
    T_s permutes coordinates, (T_s h)[i] = h[s^-1(i)], so row i of letter j
    reads coordinate prefix^-1(i) of z_{g_j}.

    ``ValueError`` from ``check_cocycle_size`` if it is too large."""
    m, t = omega.k, omega.n
    check_cocycle_size(m, t)
    relations = braid_relations(m)
    # s^-1 on {0..t-1} for each generator image s.
    inverses = [[y - 1 for y in s.inv().images] for s in omega.sigma]
    rows = []
    for lhs, rhs in relations:
        block = [[0] * ((m - 1) * t) for _ in range(t)]
        for sign, w in ((1, lhs), (-1, rhs)):
            prefix_inv = list(range(t))
            for g in w:
                col = (g - 1) * t
                for row, x in zip(block, prefix_inv):
                    row[col + x] += sign
                # (prefix s)^-1 = s^-1 prefix^-1
                prefix_inv = [inverses[g - 1][x] for x in prefix_inv]
        rows += block
    return rows


def coboundary_matrix(omega):
    """Columns generate the coboundaries: h goes to (T_p h - h) per generator."""
    t = omega.n
    rows = []
    for s in omega.sigma:
        s_inv = s.inv()
        for i in range(1, t + 1):
            row = [0] * t
            row[s_inv(i) - 1] += 1
            row[i - 1] -= 1
            rows.append(row)
    return rows


def _vec_mod(v, r):
    return tuple(x % r for x in v) if r else tuple(v)


def hom_from_cocycle(omega, r, z):
    """The block homomorphism into S(rt): generator p moves block q of m
    rigidly to block W(p)(m) and rotates it by the cocycle entry there."""
    m, t = omega.k, omega.n
    if r < 2:
        raise ValueError("need a finite block size r >= 2")
    if len(z) != m - 1 or any(len(v) != t for v in z):
        raise ValueError("cocycle shape mismatch")
    return BraidHom(
        m, r * t, tuple(block_map(s, r, h) for s, h in zip(omega.sigma, z))
    )


def cocycle_from_hom(omega, r, hom):
    """Recover the cocycle of a block homomorphism over omega, or raise."""
    m, t = omega.k, omega.n
    if hom.k != m or hom.n != r * t:
        raise ValueError("homomorphism shape mismatch")
    z = []
    for g, base in zip(hom.sigma, omega.sigma):
        s = block_projection(g, r, t)
        if s != base:
            raise ValueError("block action does not match the base homomorphism")
        # The first point of a block lands at the block's rotation.
        h = [0] * t
        for blk in range(1, t + 1):
            h[s(blk) - 1] = (g((blk - 1) * r + 1) - 1) % r
        if g != block_map(s, r, h):
            raise ValueError("a block is not moved by a rotation")
        z.append(tuple(h))
    return z


def split_hom(omega, r):
    """The rotation-free block homomorphism: each block moves rigidly."""
    zero = (0,) * omega.n
    return BraidHom(
        omega.k, r * omega.n, tuple(block_map(s, r, zero) for s in omega.sigma)
    )


# Integer linear algebra: the Smith diagonal.


def smith_normal_form(M):
    """The Smith diagonal of the integer matrix M (a list of rows): the
    min(rows, cols) diagonal entries of a Smith normal form U M V, with no
    U and no V built (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.4).  The nonzero entries are positive, each divides the
    next, and the zeros come last.

    The pivot is the first entry of least absolute value in the remaining
    submatrix, row by row; its row and column are cleared by floor-quotient
    multiples, and a clean pivot that does not divide some later entry
    takes in that entry's row and is chosen again."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [list(row) for row in M]
    # Every row found zero is replaced by this one list, so later scans skip
    # it at once.  No operation below writes a nonzero entry into a zero
    # row, and column swaps only exchange its zeros.
    zero = [0] * cols

    def least_entry(d):
        """The first entry of least absolute value in A[d:][d:], row by row,
        or None if all are zero.  A unit ends the scan: nothing is smaller."""
        pivot, least = None, 0
        for i in range(d, rows):
            if A[i] is zero:
                continue
            seg = A[i][d:]
            if not any(seg):
                A[i] = zero
                continue
            here = min(map(abs, filter(None, seg)))
            if not least or here < least:
                j = next(j for j, a in enumerate(seg, d) if abs(a) == here)
                pivot, least = (i, j), here
                if least == 1:
                    return pivot
        return pivot

    def mix_in_nondivisible(d):
        """Add to row d the first later row with an entry in a later column
        that A[d][d] does not divide; False if there is none."""
        p = A[d][d]
        for i in range(d + 1, rows):
            if any(a % p for a in A[i][d + 1 :]):
                A[d] = [a + b for a, b in zip(A[d], A[i])]
                return True
        return False

    for d in range(min(rows, cols)):
        while True:
            pivot = least_entry(d)
            if pivot is None:
                break
            i, j = pivot
            if i != d:
                A[d], A[i] = A[i], A[d]
            if j != d:
                # Rows above d are zero from column d on.
                for row in A[d:]:
                    row[d], row[j] = row[j], row[d]
            if A[d][d] < 0:
                A[d] = [-a for a in A[d]]
            top = A[d]
            p = top[d]
            clean = True
            for i in range(d + 1, rows):
                row = A[i]
                if row[d]:
                    c = row[d] // p
                    A[i] = row = [a - c * b for a, b in zip(row, top)]
                    if row[d]:
                        clean = False
            # A column operation changes only the rows with an entry in
            # column d: after a clean row sweep, row d alone.
            live = [top] if clean else [row for row in A[d:] if row[d]]
            for j in range(d + 1, cols):
                if top[j]:
                    c = top[j] // p
                    for row in live:
                        row[j] -= c * row[d]
                    if top[j]:
                        clean = False
            # A pivot of 1 divides every entry, so it needs no sweep.
            if clean and (p == 1 or not mix_in_nondivisible(d)):
                break
    return [A[i][i] for i in range(min(rows, cols))]


@functools.cache
def _smith_pair(omega):
    """The nonzero Smith diagonals (d of M, b of B) of a base homomorphism,
    cached by what fixes M and B: the strand count, the point count and the
    generator images, which is exactly ``BraidHom`` equality.  Every
    modulus reads H^1 off the same pair."""
    M = cocycle_matrix(omega)
    B = coboundary_matrix(omega)
    # M B = 0 over the nonzero entries: a row of M has at most six, a row of
    # B at most two.
    sparse_B = [[(j, x) for j, x in enumerate(row) if x] for row in B]
    for row in M:
        total = {}
        for i, a in enumerate(row):
            if a:
                for j, x in sparse_B[i]:
                    total[j] = total.get(j, 0) + a * x
        if any(total.values()):
            raise RuntimeError("coboundaries are not cocycles")
    return tuple(tuple(x for x in smith_normal_form(A) if x) for A in (M, B))


def h1_invariants(omega, r):
    """Invariant factors of the first cohomology over Z/r (r = 0 means Z).

    The result lists the cyclic summands' orders, 1s dropped, 0 for Z.

    The cochains form a complex of free abelian groups Z^t -B-> Z^N -M->
    Z^R, so by the universal coefficient theorem
    H^1(Z/r) = H^1(Z) (x) Z/r + Tor(coker M, Z/r).  With d and b the
    nonzero Smith diagonals of M and B, H^1(Z) = Z^f + sum Z/b_i with
    f = N - |d| - |b| (ker M is saturated, so its quotient by im B has
    the torsion of Z^N / im B), and Tor(coker M, Z/r) = sum Z/gcd(d_i, r).

    The check M B = 0 and the Smith forms of M and B run once per base
    homomorphism; every later modulus only takes gcds and merges them."""
    d, b = _smith_pair(omega)
    free = (0,) * ((omega.k - 1) * omega.n - len(d) - len(b))
    orders = free + b if r == 0 else [math.gcd(x, r) for x in free + b + d]
    orders = [x for x in orders if x != 1]
    # The Smith form of the diagonal merges coprime orders into invariant
    # factors, ascending by divisibility with the Z summands last.
    merged = smith_normal_form(
        [[x if i == j else 0 for j in range(len(orders))]
         for i, x in enumerate(orders)]
    )
    return [x for x in merged if x != 1]


# Canonical cocycles for the distinguished base homomorphisms.


def standard_base_cocycle(n, r, a, b):
    """Canonical cocycle family over the standard base on n strands/points:
    the p-th vector is b everywhere except 0 at p and a at p+1."""
    z = []
    for p in range(1, n):
        v = [b] * n
        v[p - 1] = 0
        v[p] = a
        z.append(_vec_mod(v, r))
    return z


def six_point_exceptional_base_cocycle(r, y):
    """Canonical cocycle family over the six-strand exceptional base."""
    vals = [
        (0, 2 * y, 0, 2 * y, 0, 2 * y),
        (0, 0, 2 * y, 2 * y, 2 * y, 0),
        (-y, -y, 3 * y, 3 * y, 0, 2 * y),
        (0, 2 * y, 2 * y, 2 * y, 0, 0),
        (-2 * y, 0, 2 * y, 4 * y, 0, 2 * y),
    ]
    return [_vec_mod(v, r) for v in vals]


def five_strand_exceptional_base_cocycle(r, x, y):
    """Canonical cocycle family over the five-strand base into S(6);
    x must satisfy 2x = 0 in Z/r."""
    if r and (2 * x) % r != 0:
        raise ValueError("x must be 2-torsion")
    vals = [
        (0, x + 2 * y, 0, x + 2 * y, 0, x + 2 * y),
        (0, 0, x + 2 * y, x + 2 * y, x + 2 * y, 0),
        (-y, -y, x + 3 * y, x + 3 * y, x, 2 * y),
        (x, 2 * y, 2 * y, 2 * y, x, x),
    ]
    return [_vec_mod(v, r) for v in vals]


def cyclic_base_cocycle(m, t, r, a):
    """Canonical cocycle over a cyclic base whose common image is a t-cycle."""
    v = _vec_mod([a] + [0] * (t - 1), r)
    return [v for _ in range(m - 1)]
