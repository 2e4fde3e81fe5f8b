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
from itertools import compress

from .homs import BraidHom
from .retraction import block_map, block_projection
from .words import braid_relations


# The most entries (rows times columns) that ``cocycle_matrix`` builds.  The
# dense matrix costs about 8 bytes an entry and the sparse elimination of
# ``smith_normal_form`` little more: ``cohomology standard 20 2`` (1.3 M
# entries) takes about 0.2 s and peaks at 26 MB of RSS, and ``cyclic 25 0``
# (4.7 M, the largest base let through) about 0.6 s and 56 MB.
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


def invariant_factors(diagonal):
    """The invariant factors of a diagonal matrix with nonnegative entries:
    each entry is merged into the factors so far by pairwise gcd and lcm,
    so each factor divides the next and the zeros come last.  Entries of 1
    are skipped; a gcd of coprime entries is kept as a 1."""
    merged = []
    for x in diagonal:
        if x != 1:
            for i, y in enumerate(merged):
                merged[i], x = math.gcd(x, y), math.lcm(x, y)
            merged.append(x)
    return merged


def smith_normal_form(M):
    """The Smith diagonal of the integer matrix M (a list of rows): the
    min(rows, cols) diagonal entries of a Smith normal form U M V, with no
    U and no V built (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.4).  The nonzero entries are positive, each divides the
    next, and the zeros come last.

    The elimination is sparse: each row is a {column: entry} dict, and each
    column knows the rows that hold it.  The pivot is the first entry of
    least absolute value, rows in order.  Floor-quotient multiples of its
    row and column clear the other rows of its column and the other
    columns of its row, touching only the rows that hold the pivot column;
    while a remainder is left the step repeats.  A clean pivot leaves with
    its row and column, and ``invariant_factors`` merges the pivots."""
    cols = len(M[0]) if M else 0
    rows, holders = {}, [set() for _ in range(cols)]
    for i, row in enumerate(M):
        if any(row):
            rows[i] = dict(compress(enumerate(row), row))
            for j in rows[i]:
                holders[j].add(i)

    def subtract(k, c, src):
        """rows[k] -= c * src, keeping ``holders`` in step."""
        row = rows[k]
        for j, a in src.items():
            v = row.get(j, 0) - c * a
            if v:
                if j not in row:
                    holders[j].add(k)
                row[j] = v
            else:
                del row[j]
                holders[j].discard(k)

    pivots = []
    while rows:
        least = 0
        for i, row in rows.items():
            for j, a in row.items():
                if not least or abs(a) < least:
                    pi, pj, least = i, j, abs(a)
            if least == 1:
                break
        top = rows[pi]
        p = top[pj]
        for k in list(holders[pj]):
            if k != pi:
                subtract(k, rows[k][pj] // p, top)
                if not rows[k]:
                    del rows[k]
        # Clearing the row by column operations changes only the rows that
        # hold the pivot column: each takes its entry there times the
        # quotients.
        quotients = {j: a // p for j, a in top.items() if j != pj}
        for k in holders[pj]:
            subtract(k, rows[k][pj], quotients)
        if len(top) == 1 and len(holders[pj]) == 1:
            pivots.append(least)
            del rows[pi]
    merged = invariant_factors(pivots)
    zeros = min(len(M), cols) - len(pivots)
    return [1] * (len(pivots) - len(merged)) + merged + [0] * zeros


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
        for i, a in compress(enumerate(row), row):
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
    # The summands are cyclic of these orders; merging them gives the
    # invariant factors, ascending by divisibility with the Z summands (0)
    # last, and the 1s that coprime orders leave are dropped.
    return [x for x in invariant_factors(orders) if x != 1]


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
