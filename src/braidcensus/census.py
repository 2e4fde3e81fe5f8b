"""Exhaustive enumeration of braid-group homomorphisms into S(n).

A homomorphism is a chain of generator images s_1, ..., s_{k-1}: each
s_{i+1} braids with s_i and commutes with s_1, ..., s_{i-1}.  The census
fixes one class-minimal s_1 = s per conjugacy class of S(n) and builds the
chains one image at a time with ``perm.braid_partners``, a backtracking
search that lets the relators force images point by point.  The images of
s_2 are split into orbits under the centralizer C(s) of s first, and only
the least member of each orbit is extended: every class of maps with first
image s has a member whose second image is such a representative, and the
search for s_2 (``symmetry=s``) skips partners that cannot be.  The later
images are searched in full, since the closing count needs every chain,
except past s_2 = s: an s_3 that braids with s and commutes with it is s
(s s_3 s = s_3 s s_3 and s s_3 = s_3 s give s = s_3), and so on, so the
constant chain (s, ..., s) is the only chain through it.  Each
chain is recorded by its full-cycle image a = s_1 ... s_{k-1}, and the a
are split into conjugacy classes by the action of C(s).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .homs import BraidHom, from_sigma1_alpha
from .perm import (
    Permutation,
    all_partitions,
    braid_partners,
    canonical_of_cycle_type,
    centralizer_generators,
    conjugation_orbits,
)
from .words import alpha_word, perm_image


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
    gens = centralizer_generators(s1)
    word = alpha_word(k)
    pool = []
    maps = 0
    for (s2,), s2_orbit in conjugation_orbits(
        [(x,) for x in braid_partners(s1, symmetry=s1)], gens
    ):
        if s2 == s1:
            # s3 braids with s2 = s1 and commutes with s1, so s3 = s1, and
            # so on down the chain: the constant chain is the only one.
            chains = [(s1,) * (k - 1)]
        else:
            chains = [(s1, s2)]
            for _ in range(k - 3):
                chains = [
                    chain + (x,)
                    for chain in chains
                    for x in braid_partners(chain[-1], chain[:-1])
                ]
        # Conjugating by C(s1) carries the chains through s2 onto those
        # through each member of its orbit.
        maps += s2_orbit * len(chains)
        # census() checks each orbit's representative; validity is C(s1)-invariant.
        pool.extend((perm_image(word, chain),) for chain in chains)
    # Two maps sharing s1 are conjugate exactly when an element of the
    # centralizer of s1 carries one full-cycle image to the other.  The
    # orbits walk the whole group, so they count every map, not just the
    # pool's.
    orbits = conjugation_orbits(pool, gens)
    if sum(size for _, size in orbits) != maps:
        raise RuntimeError("centralizer orbits do not count every map")
    return [(s1.images, alpha.images, size) for (alpha,), size in orbits]


def census(k, n, workers=1):
    """All homomorphisms from the k-strand braid group into S(n), one
    record per conjugacy class, in a deterministic order."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    tasks = [
        (k, n, tuple(p for p in parts if p >= 2)) for parts in all_partitions(n)
    ]
    if workers > 1:
        # One cycle type per task: the slowest cycle types come last, and
        # default chunks would hand them all to one worker.
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_census_one_class, tasks, chunksize=1)
    else:
        chunks = [_census_one_class(t) for t in tasks]
    # (s1, alpha) is unique per class: the triples sort as the records do.
    records = []
    for s1, alpha, orbit_size in sorted(t for chunk in chunks for t in chunk):
        hom = from_sigma1_alpha(k, n, Permutation(s1), Permutation(alpha))
        if hom is None:
            raise RuntimeError("census representative fails to rebuild")
        records.append(CensusRecord(hom=hom, orbit_size=orbit_size))
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
