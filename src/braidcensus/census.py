"""Exhaustive enumeration of braid-group homomorphisms into S(n).

Every homomorphism is determined by the image s of the first generator
together with the image a of the full cycle: the i-th generator image is
the (i-1)-fold a-conjugate of s.  The search fixes one class-minimal s
per conjugacy class of S(n), scans all candidates for a with vectorized
necessary conditions (the two-generator relators), validates survivors
exactly, and splits them into conjugacy classes by the action of the
centralizer of s.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .homs import BraidHom, from_sigma1_alpha
from .perm import (
    Permutation,
    all_partitions,
    canonical_of_cycle_type,
    centralizer_generators,
    conjugation_orbits,
)

_PERM_CACHE = {}


def _all_perms_array(n):
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(
            list(itertools.permutations(range(n))), dtype=np.uint8
        )
    return _PERM_CACHE[n]


def _rows_compose(A, B):
    """Rowwise (A o B): result[r][x] = A[r][B[r][x]]."""
    return np.take_along_axis(A, B, axis=1)


def _rows_pow(A, e):
    n = A.shape[1]
    result = np.tile(np.arange(n, dtype=A.dtype), (A.shape[0], 1))
    base = A
    while e:
        if e & 1:
            result = _rows_compose(result, base)
        base = _rows_compose(base, base)
        e >>= 1
    return result


def _rows_inverse(A):
    return np.argsort(A, axis=1).astype(A.dtype)


def _survivor_candidates(k, n, s1):
    """Candidate full-cycle images passing the vectorized relator filters.

    The filters (cycle power equals successor power, and for k >= 4 the
    first conjugation relator) are necessary conditions only; callers
    must validate survivors exactly.
    """
    A = _all_perms_array(n)
    s = np.array([s1(x) - 1 for x in range(1, n + 1)], dtype=np.uint8)
    B = A[:, s]
    mask = np.all(_rows_pow(A, k) == _rows_pow(B, k - 1), axis=1)
    A, B = A[mask], B[mask]
    if k >= 4 and len(A):
        lhs = _rows_compose(_rows_compose(B, A), B)
        A2 = _rows_compose(A, A)
        A3i = _rows_inverse(_rows_compose(A2, A))
        rhs = _rows_compose(
            _rows_compose(_rows_compose(_rows_compose(A2, B), A3i), B), A2
        )
        mask = np.all(lhs == rhs, axis=1)
        A = A[mask]
    return A


@dataclass(frozen=True)
class CensusRecord:
    """One conjugacy class of homomorphisms, with its orbit bookkeeping."""

    hom: BraidHom
    orbit_size: int

    @property
    def cyclic(self):
        return self.hom.is_cyclic()

    @property
    def transitive(self):
        return self.hom.is_transitive()

    def to_json(self):
        return {
            "hom": self.hom.to_json(),
            "orbit_size": self.orbit_size,
            "cyclic": self.cyclic,
            "transitive": self.transitive,
            "sigma1_cycles": self.hom.sigma[0].cycle_string(),
            "alpha_cycles": self.hom.alpha().cycle_string(),
        }


def _census_one_class(args):
    """All classes of homomorphisms whose first generator image is the
    class-minimal representative of the given cycle type."""
    k, n, parts = args
    s1 = canonical_of_cycle_type(parts, n)
    valid = []
    for row in _survivor_candidates(k, n, s1):
        alpha = Permutation(int(x) + 1 for x in row)
        if from_sigma1_alpha(k, n, s1, alpha) is not None:
            valid.append(alpha)
    # Two maps sharing s1 are conjugate exactly when an element of the
    # centralizer of s1 carries one full-cycle image to the other.
    orbits = conjugation_orbits(
        [(alpha,) for alpha in valid], centralizer_generators(s1)
    )
    if sum(size for _, size in orbits) != len(valid):
        raise RuntimeError("centralizer orbit leaves the valid maps")
    return [
        (tuple(s1.images), tuple(alpha.images), size)
        for (alpha,), size in orbits
    ]


def census(k, n, workers=1):
    """All homomorphisms from the k-strand braid group into S(n), one
    record per conjugacy class, in a deterministic order."""
    if k < 3:
        raise ValueError("k must be >= 3")
    tasks = [
        (k, n, tuple(p for p in parts if p >= 2)) for parts in all_partitions(n)
    ]
    if workers > 1:
        _all_perms_array(n)
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_census_one_class, tasks)
    else:
        chunks = [_census_one_class(t) for t in tasks]
    records = []
    for chunk in chunks:
        for s1_images, alpha_images, orbit_size in chunk:
            hom = from_sigma1_alpha(
                k, n, Permutation(s1_images), Permutation(alpha_images)
            )
            if hom is None:
                raise RuntimeError("census representative fails to rebuild")
            records.append(CensusRecord(hom=hom, orbit_size=orbit_size))
    records.sort(key=lambda r: (r.hom.sigma[0].images, r.hom.alpha().images))
    return records


def select(records, transitive=None, cyclic=None):
    out = []
    for r in records:
        if transitive is not None and r.transitive != transitive:
            continue
        if cyclic is not None and r.cyclic != cyclic:
            continue
        out.append(r)
    return out
