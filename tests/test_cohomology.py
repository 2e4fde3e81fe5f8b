"""Unit tests for twisted one-cocycles and the integer linear algebra."""

import itertools
import json
import math
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from braidcensus import cohomology
from braidcensus.cohomology import (
    coboundary_matrix,
    cocycle_from_hom,
    cocycle_matrix,
    h1_invariants,
    hom_from_cocycle,
    invariant_factors,
    smith_normal_form,
    split_hom,
    standard_base_cocycle,
)
from braidcensus.homs import (
    BraidHom,
    cyclic_hom,
    doubled_standard_classes,
    exceptional_hom_six,
    five_strand_six_points,
    standard_hom,
)
from braidcensus.perm import Permutation

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _cyclic_base(n):
    """The cyclic base of the command line: an n-cycle on max(n + 1, 5)
    strands."""
    return cyclic_hom(max(n + 1, 5), Permutation.from_cycles([tuple(range(1, n + 1))], n))


def test_coordinate_action():
    s = Permutation.from_cycles("(1,2,3)", 3)
    # (T_s h)^i = h^{s^{-1}(i)}
    assert oracles.permute_coords(s, (10, 20, 30)) == (30, 10, 20)


def _diag(A):
    return [A[i][i] for i in range(min(len(A), len(A[0]) if A else 0))]


def _smith_form_with_transforms(M):
    """Return (D, U, V) with D = U*M*V diagonal, U and V unimodular: the
    transform-tracking Smith form, eliminating densely.  The pivot is the
    first entry of least absolute value in the remaining submatrix, row by
    row, and a clean pivot that does not divide some later entry takes in
    that entry's row and is chosen again, so the diagonal comes out in
    divisibility order without ``invariant_factors``.  The reference for
    the diagonal of the sparse ``smith_normal_form`` and for
    ``invariant_factors``, and the elimination behind ``_kernel_lattice``
    and ``_solve_all``."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [list(row) for row in M]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, c):
        for row in A + V:
            row[i] += c * row[j]

    def least_entry(d):
        pivot, least = None, 0
        for i in range(d, rows):
            seg = A[i][d:]
            if not any(seg):
                continue
            here = min(map(abs, filter(None, seg)))
            if not least or here < least:
                j = next(j for j, a in enumerate(seg, d) if abs(a) == here)
                pivot, least = (i, j), here
                if least == 1:
                    return pivot
        return pivot

    def mix_in_nondivisible(d):
        for i in range(d + 1, rows):
            if any(a % A[d][d] for a in A[i][d + 1 :]):
                add_row(d, i, 1)
                return True
        return False

    for d in range(min(rows, cols)):
        while True:
            pivot = least_entry(d)
            if pivot is None:
                break
            i, j = pivot
            if i != d:
                swap_rows(d, i)
            if j != d:
                swap_cols(d, j)
            if A[d][d] < 0:
                A[d] = [-a for a in A[d]]
                U[d] = [-a for a in U[d]]
            clean = True
            for i in range(d + 1, rows):
                if A[i][d]:
                    add_row(i, d, -(A[i][d] // A[d][d]))
                    if A[i][d]:
                        clean = False
            for j in range(d + 1, cols):
                if A[d][j]:
                    add_col(j, d, -(A[d][j] // A[d][d]))
                    if A[d][j]:
                        clean = False
            if clean and (A[d][d] == 1 or not mix_in_nondivisible(d)):
                break
    return A, U, V


def _kernel_lattice(M, r):
    """Generators of the solution lattice of M x = 0 over Z/r (x integer,
    congruences mod r; r = 0 means equality over Z): the columns of V,
    scaled so that each solves its diagonal equation.  For r > 0 the
    lattice contains r times every unit vector."""
    if not M:
        raise ValueError("empty system")
    cols = len(M[0])
    D, _, V = _smith_form_with_transforms(M)
    d = _diag(D)
    gens = []
    for j in range(cols):
        dj = d[j] if j < len(d) else 0
        if r == 0:
            if dj != 0:
                continue
            scale = 1
        else:
            scale = r // math.gcd(dj, r) if dj else 1
        gens.append([V[i][j] * scale for i in range(cols)])
    return gens


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total


def test_smith_normal_form_properties():
    rng = random.Random(23)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = [
            [rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)
        ]
        D, U, V = _smith_form_with_transforms(M)
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1
        # D = U * M * V
        UM = [
            [sum(U[i][k] * M[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)
        ]
        UMV = [
            [
                sum(UM[i][k] * V[k][j] for k in range(cols))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert UMV[i][j] == 0
                else:
                    assert UMV[i][j] == D[i][j]
        diag = [abs(D[i][i]) for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_kernel_lattice_and_solution_count_by_exhaustion():
    rng = random.Random(29)
    for _ in range(25):
        rows, cols, r = rng.randrange(1, 4), rng.randrange(1, 4), rng.choice(
            (2, 3, 4)
        )
        M = [
            [rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)
        ]
        brute = [
            x
            for x in _vectors(cols, r)
            if all(
                sum(a * v for a, v in zip(row, x)) % r == 0 for row in M
            )
        ]
        assert oracles.solution_count(M, r) == len(brute)
        gens = _kernel_lattice(M, r)
        spanned = {tuple(0 for _ in range(cols))}
        frontier = [tuple(0 for _ in range(cols))]
        while frontier:
            base = frontier.pop()
            for g in gens:
                nxt = tuple((b + gi) % r for b, gi in zip(base, g))
                if nxt not in spanned:
                    spanned.add(nxt)
                    frontier.append(nxt)
        assert spanned == {tuple(x) for x in brute}


def _vectors(cols, r):
    return [list(v) for v in itertools.product(range(r), repeat=cols)]


def test_cocycle_predicate_and_coboundaries():
    base = standard_hom(4)
    r = 3
    z = standard_base_cocycle(4, r, 1, 2)
    assert oracles.is_cocycle(base, r, z)
    bad = [list(v) for v in z]
    bad[0][0] = (bad[0][0] + 1) % r
    assert not oracles.is_cocycle(base, r, [tuple(v) for v in bad])
    for h in _vectors(4, r)[:20]:
        d = oracles.coboundary_of(base, r, h)
        assert oracles.is_cocycle(base, r, d)
        assert oracles.cohomologous(base, r, d, [(0,) * 4] * 3)


def test_the_cocycle_matrix_kernel_is_the_cocycle_set():
    """all_cocycles reads the kernel of the cocycle matrix; is_cocycle
    builds the block homomorphism and checks the braid relations on it.

    On bases whose images are involutions or all equal, a matrix built
    with T_s^-1 in place of T_s has the same kernel; the 4-cycle base on
    three strands tells the two apart."""
    four_cycles = BraidHom(
        3,
        4,
        (
            Permutation.from_cycles("(1,2,3,4)", 4),
            Permutation.from_cycles("(1,4,2,3)", 4),
        ),
    )
    for base, r in [
        (standard_hom(3), 3),
        (standard_hom(4), 2),
        (cyclic_hom(5, Permutation.from_cycles("(1,2,3)", 3)), 2),
        (four_cycles, 2),
    ]:
        m, t = base.k, base.n
        expected = []
        for flat in itertools.product(range(r), repeat=(m - 1) * t):
            z = [flat[p * t : (p + 1) * t] for p in range(m - 1)]
            if oracles.is_cocycle(base, r, z):
                expected.append(z)
        assert oracles.all_cocycles(base, r) == expected
        assert 1 < len(expected) < r ** ((m - 1) * t)


def test_cohomology_counts_match_exhaustion():
    for base, r in [
        (standard_hom(4), 2),
        (standard_hom(4), 3),
        (cyclic_hom(5, Permutation.from_cycles("(1,2,3)", 3)), 2),
        (cyclic_hom(5, Permutation.from_cycles("(1,2,3)", 3)), 3),
    ]:
        z1 = len(oracles.all_cocycles(base, r))
        b1 = len(oracles.all_coboundaries(base, r))
        assert z1 == oracles.solution_count(cocycle_matrix(base), r)
        invariants = h1_invariants(base, r)
        h1 = 1
        for v in invariants:
            assert v != 0
            h1 *= v
        assert z1 == h1 * b1


def test_split_hom_has_zero_cocycle():
    base = standard_hom(5)
    split = split_hom(base, 3)
    z = cocycle_from_hom(base, 3, split)
    assert all(all(v == 0 for v in vec) for vec in z)
    assert hom_from_cocycle(base, 3, z).sigma == split.sigma
    # One-point blocks: the split map is the base itself.
    assert split_hom(base, 1) == base


def test_doubled_models_are_the_canonical_block_lifts():
    """The explicit cycle models are the block lifts of the canonical
    cocycles (a, b) = (0,0), (1,0), (0,1), (1,1) over Z/2, in that order,
    generator by generator."""
    for k in range(2, 10):
        base = standard_hom(k)
        lifts = [
            hom_from_cocycle(base, 2, standard_base_cocycle(k, 2, a, b)).sigma
            for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)]
        ]
        assert [h.sigma for h in doubled_standard_classes(k)] == lifts


def test_hom_from_cocycle_rejects_bad_shapes():
    base = standard_hom(4)
    with pytest.raises(ValueError):
        hom_from_cocycle(base, 1, standard_base_cocycle(4, 2, 0, 0))
    with pytest.raises(ValueError):
        hom_from_cocycle(base, 2, [(0, 0), (0, 0)])


def test_cocycle_from_hom_rejects_non_block_maps():
    base = standard_hom(4)
    with pytest.raises(ValueError):
        cocycle_from_hom(base, 2, standard_hom(4))
    extended = standard_hom(4).extend(8)
    with pytest.raises(ValueError):
        cocycle_from_hom(base, 2, extended)
    # Both lifts swap the two 3-point blocks; the second reflects the block
    # {1,2,3} as it moves it onto {4,5,6}.
    swap = cyclic_hom(3, Permutation.from_cycles("(1,2)", 2))
    rigid = Permutation.from_cycles("(1,4)(2,5)(3,6)", 6)
    assert cocycle_from_hom(swap, 3, cyclic_hom(3, rigid)) == [(0, 0)] * 2
    reflected = Permutation.from_cycles("(1,4)(2,6,3,5)", 6)
    with pytest.raises(ValueError, match="a block is not moved by a rotation"):
        cocycle_from_hom(swap, 3, cyclic_hom(3, reflected))


def test_equality_mod():
    assert oracles.cocycles_equal_mod([(0, 2)], [(4, 6)], 4)
    assert not oracles.cocycles_equal_mod([(0, 2)], [(1, 2)], 4)


@pytest.mark.parametrize("r", [0, 1])
def test_exhaustive_cocycle_helpers_refuse_moduli_below_two(r):
    """Enumerating 0..r-1 says nothing over Z (r = 0) or over the zero ring
    (r = 1), so the exhaustive references refuse both."""
    base, z = standard_hom(4), [(0,) * 4] * 3
    for oracle, args in [
        (oracles.all_cocycles, (base, r)),
        (oracles.all_coboundaries, (base, r)),
        (oracles.cohomologous, (base, r, z, z)),
        (oracles.cocycles_equal_mod, (z, z, r)),
        (oracles.is_cocycle, (base, r, z)),
    ]:
        with pytest.raises(ValueError):
            oracle(*args)


def _solve_all(M, rhs):
    """Integer x with M x = b for each b in rhs, through one Smith form."""
    D, U, V = _smith_form_with_transforms(M)
    d = _diag(D)
    out = []
    for b in rhs:
        y = [0] * len(V)
        for i, row in enumerate(U):
            v = sum(u * x for u, x in zip(row, b))
            di = d[i] if i < len(d) else 0
            assert v % di == 0 if di else v == 0
            if di:
                y[i] = v // di
        out.append([sum(a * x for a, x in zip(row, y)) for row in V])
    return out


def _h1_by_lattice_quotient(omega, r):
    """H^1 over Z/r as the cocycle lattice modulo the coboundaries plus
    r Z^N: each generator of the latter is written in a basis of the
    former, and the Smith form of that matrix gives the quotient."""
    cols = (omega.k - 1) * omega.n
    unit = [[int(i == j) for i in range(cols)] for j in range(cols)]
    M = cocycle_matrix(omega)
    L = _kernel_lattice(M, r) if M else unit
    if not L:
        return []
    B = coboundary_matrix(omega)
    K = [[row[j] for row in B] for j in range(omega.n)]
    K += [[r * x for x in e] for e in unit] if r else []
    basis = [[g[i] for g in L] for i in range(cols)]
    X = _solve_all(basis, K)
    D, _, _ = _smith_form_with_transforms(
        [[x[i] for x in X] for i in range(len(L))]
    )
    d = _diag(D)
    out = [abs(d[i]) if i < len(d) else 0 for i in range(len(L))]
    return sorted((v for v in out if v != 1), key=lambda v: (v == 0, v))


def _named_bases(max_points):
    for n in range(2, max_points + 1):
        yield standard_hom(n)
        yield _cyclic_base(n)
    yield five_strand_six_points()
    yield exceptional_hom_six()
    yield from doubled_standard_classes(3)


def test_h1_agrees_with_the_lattice_quotient():
    start = time.monotonic()
    for base in _named_bases(7):
        for r in (0, 1, 2, 3, 4, 6, 8, 12):
            assert h1_invariants(base, r) == _h1_by_lattice_quotient(base, r)
    assert time.monotonic() - start < 5.0


def test_the_cocycle_check_fires(monkeypatch):
    """A coboundary matrix whose first row is off by one breaks M B = 0."""

    def broken(omega):
        B = coboundary_matrix(omega)
        B[0] = [x + 1 for x in B[0]]
        return B

    monkeypatch.setattr(cohomology, "coboundary_matrix", broken)
    cohomology._smith_pair.cache_clear()
    with pytest.raises(RuntimeError, match="coboundaries are not cocycles"):
        h1_invariants(standard_hom(5), 3)


def test_the_smith_pair_is_built_once_per_base(monkeypatch):
    calls = []

    def counted(omega):
        calls.append(omega)
        return cocycle_matrix(omega)

    monkeypatch.setattr(cohomology, "cocycle_matrix", counted)
    cohomology._smith_pair.cache_clear()
    for base in (standard_hom(6), exceptional_hom_six(), standard_hom(6)):
        for r in (0, 2, 3, 4, 5, 6, 8, 12):
            h1_invariants(base, r)
    # The second standard_hom(6) is a new object with the same images.
    assert len(calls) == 2


def _smith_normal_form_full_scan(M):
    """The Smith form that scans the whole remaining submatrix for the least
    pivot and sweeps for divisibility after every clean pivot; the oracle
    for the diagonal of ``smith_normal_form``."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [list(row) for row in M]
    for d in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(d, rows):
                for j in range(d, cols):
                    if A[i][j] and (
                        pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])
                    ):
                        pivot = (i, j)
            if pivot is None:
                break
            i, j = pivot
            A[d], A[i] = A[i], A[d]
            for row in A:
                row[d], row[j] = row[j], row[d]
            if A[d][d] < 0:
                A[d] = [-a for a in A[d]]
            clean = True
            for i in range(d + 1, rows):
                if A[i][d]:
                    c = A[i][d] // A[d][d]
                    A[i] = [a - c * b for a, b in zip(A[i], A[d])]
                    if A[i][d]:
                        clean = False
            for j in range(d + 1, cols):
                if A[d][j]:
                    c = A[d][j] // A[d][d]
                    for row in A:
                        row[j] -= c * row[d]
                    if A[d][j]:
                        clean = False
            if clean:
                off = False
                for i in range(d + 1, rows):
                    for j in range(d + 1, cols):
                        if A[i][j] % A[d][d]:
                            A[d] = [a + b for a, b in zip(A[d], A[i])]
                            off = True
                            break
                    if off:
                        break
                if not off:
                    break
    return _diag(A)


def test_smith_diagonal_agrees_with_the_full_scan():
    bases = [standard_hom(n) for n in range(3, 11)]
    bases += [five_strand_six_points(), exceptional_hom_six()]
    bases += [_cyclic_base(n) for n in range(2, 7)]
    bases += doubled_standard_classes(3)
    matrices = [f(base) for base in bases for f in (cocycle_matrix, coboundary_matrix)]
    # No unit entry, so the pivot search falls back to the least |a|.
    rng = random.Random(31)
    for _ in range(200):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        matrices.append(
            [[rng.choice((0, 2, -2, 3, -3, 4, -4, 6, -6)) for _ in range(cols)]
             for _ in range(rows)]
        )
    for M in matrices:
        if M:
            assert smith_normal_form(M) == _smith_normal_form_full_scan(M)


def _mat_mul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


@st.composite
def _small_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entry = st.integers(-9, 9)
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(_small_matrices())
def test_smith_diagonal_matches_the_transform_reference(M):
    """The diagonal-only Smith form agrees with the transform-tracking
    reference, and the reference is a unimodular diagonalization."""
    D, U, V = _smith_form_with_transforms(M)
    assert smith_normal_form(M) == _diag(D)
    assert abs(_det(U)) == 1
    assert abs(_det(V)) == 1
    rows, cols = len(M), len(M[0])
    assert _mat_mul(_mat_mul(U, M), V) == [
        [D[i][i] if i == j else 0 for j in range(cols)] for i in range(rows)
    ]


@pytest.mark.parametrize(
    "M,diagonal",
    [([], []), ([[]], []), ([[0, 0], [0, 0]], [0, 0]), ([[-4]], [4])],
)
def test_smith_diagonal_of_edge_shapes(M, diagonal):
    assert smith_normal_form(M) == diagonal


_ORDERS = st.one_of(
    st.just(0),
    st.just(1),
    st.builds(
        lambda a, b, c: 2**a * 3**b * 5**c,
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 1),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ORDERS, max_size=6))
def test_merged_orders_are_the_smith_diagonal_of_the_diagonal_matrix(orders):
    """Merging by gcd and lcm gives the invariant factors that the dense
    reference reads off the diagonal matrix, once its 1s are put back."""
    n = len(orders)
    D, _, _ = _smith_form_with_transforms(
        [[x if i == j else 0 for j in range(n)] for i, x in enumerate(orders)]
    )
    merged = invariant_factors(orders)
    assert [1] * (n - len(merged)) + merged == _diag(D)


def test_large_cocycle_matrices_reduce_in_time():
    """Each row of a cocycle matrix has at most six nonzero entries, so the
    sparse elimination stays fast where a dense one took seconds.  H^1 over
    Z is Z^2 on a standard base and Z on a cyclic one (as pinned to 16
    points in ``h1_large_bases.json``), and B has rank t - 1 on t points,
    which fixes the rank of M."""
    cases = [
        (cocycle_matrix(standard_hom(20)), 359),
        (cocycle_matrix(_cyclic_base(22)), 462),
    ]
    start = time.monotonic()
    diagonals = [smith_normal_form(M) for M, _ in cases]
    elapsed = time.monotonic() - start
    for (M, rank), diagonal in zip(cases, diagonals):
        assert diagonal == [1] * rank + [0] * (len(M[0]) - rank)
    assert elapsed < 0.75


def test_h1_of_large_bases_matches_the_golden_file():
    """H^1 beyond the lattice-quotient oracle's reach, recorded with the
    dense elimination: per base, the invariant factors at each modulus,
    and the Smith diagonals of M and B as their rank and their factors
    other than 1."""
    golden = json.loads((GOLDEN / "h1_large_bases.json").read_text())
    start = time.monotonic()
    for entry in golden["bases"]:
        n = entry["points"]
        base = standard_hom(n) if entry["base"] == "standard" else _cyclic_base(n)
        assert base.k == entry["strands"]
        h1 = [h1_invariants(base, r) for r in golden["moduli"]]
        pair = cohomology._smith_pair(base)
        smith = [[len(x), [v for v in x if v != 1]] for x in pair]
        assert [h1, smith] == [entry["h1"], entry["smith"]]
    assert time.monotonic() - start < 1.0
