"""Exhaustive enumeration of braid-group homomorphisms into S(n).

A homomorphism is a chain of generator images s_1, ..., s_{k-1}: each
s_{i+1} braids with s_i and commutes with s_1, ..., s_{i-1}.  For one
class-minimal s_1 = s per conjugacy class of S(n), ``chain_leaves`` builds
the chains level by level with ``braid_partners``: its relators are the
relations of ``words.braid_relations`` that involve the next generator, the
chain gives the images of their other letters, and
``perm.relator_solutions`` is a backtracking search that lets them force
images point by point.  Two maps with first image s are conjugate exactly
when an element of C(s) carries one chain onto the other, so the chains
form a tree with one leaf per class: the partners of a prefix
(s_1, ..., s_i) are split into orbits under the centralizer C(G_i) of
G_i = <s_1, ..., s_i>, which maps them to themselves, and only the least
member of each orbit is extended, with its weight multiplied by the orbit
size.  So each leaf chain is the least member of its C(s)-orbit, tuples
compared image by image (orderly generation).  The centralizers come from
``perm.tuple_centralizer``: C(s) once per cycle type, the rest lazily, as a
partner fixed by C(G_i), or the only partner, leaves C(G_{i+1}) = C(G_i).
For s_2 the group is C(s), and the search of the full root for s_2
(``symmetry=`` C(s)) skips partners that cannot be the least of their
orbit.  The survivors, and
every deeper pool of partners, are split by the generators that
``perm.centralizer_generators`` builds from the centralizer, only when a
pool needs splitting.  Past s_2 = s nothing is searched: an s_3 that braids
with s and commutes with it is s (s s_3 s = s_3 s s_3 and s s_3 = s_3 s
give s = s_3), and so on, so the constant chain (s, ..., s) is the only
chain through it.  Every image of a map is conjugate to s, and s_{i+2}
commutes with s_1, ..., s_i, so a chain (s, s_2) has a grandchild only if
C(s, s_2) holds an element y of s's cycle type: only if it is fertile.
From k = 5 on every leaf lies below such a grandchild, so the root
searches only the fertile s_2: for one y per C(s)-class of such elements
(``perm.cycle_type_classes``, which reads the classes of C(s) off the
cycles of s), the partners of the chain (y, s), which braid with s and
commute with y.  Their C(s)-orbits are exactly the fertile orbits (at
n = 9, 13 of 110 non-constant ones; at n = 14, 164 of 2 239).  Each y is
checked to have s's cycle type and commute with s, and each of its
partners to commute with y, so every s_2 kept is certified fertile.
Deeper chains are searched whether or not they have grandchildren.  At a leaf the weight is the number of maps in the class,
so it times |C(G)| must be |C(s)|.  The census records each class by the
least conjugate under C(s) of its full-cycle image a = s_1 ... s_{k-1},
found by ``perm.least_conjugate`` from the point table of C(G) without
walking the orbit of a; the commutator-subgroup census reads the same
leaves.

A node's partners and their orbits do not depend on k, so a process keeps
the tree of the last point count: for each expanded chain, the least
member and size of each partner orbit, and for each first image s, C(s)
and the orbits of its root, fertile, full or both side by side.  A later
census or commutator census at the same n reads every node an earlier one
expanded instead of searching again, and builds each root at most once:
a census with k <= 4 (a commutator census of B'_5 or B'_6 among them)
needs the full root and adds it beside a fertile one.  A census at
another n drops the old tree.  Only several censuses at one n in one
process gain, such as the four of ``census K 8`` for K = 4, 6, 7, 8, or
the two chain walks of ``census-bprime K 6`` for K = 5, 6; a single
census has nothing to share.  A single run pays the memory of its tree:
census(8,14) takes 0.6 to 0.8 s in 23.6 MB and census(8,16) 2.9 to 5.5 s
in 29.7 MB of peak RSS, one process each (2-CPU host, Python 3.11.7; 2.2
to 3.6 s and 15.9 to 19.3 s when the root held every partner).
"""

from __future__ import annotations

import functools

from .homs import BraidHom, from_sigma1_alpha
from .perm import (
    Permutation,
    Record,
    all_partitions,
    canonical_of_cycle_type,
    centralizer_generators,
    conjugation_orbits,
    cycle_type_classes,
    least_conjugate,
    relator_solutions,
    tuple_centralizer,
)
from .words import alpha_word, braid_relations, inverse, perm_image


# The most strands ``census`` takes.  Each class is rebuilt by
# ``from_sigma1_alpha``: a non-cyclic one is checked against all
# (k - 1)(k - 2)/2 Artin relations, one at a time, and a cyclic one at once.
# On fewer points than strands, k >= 5, every class is cyclic (Artin), so
# the time grows about as k: census(1000, 3) takes 0.02-0.04 s and
# census(2000, 3) 0.03-0.06 s, both in 16 MB of peak RSS (2-CPU host,
# Python 3.11.7; 10 s and 42 s when cyclic classes walked their relations),
# and at 10^8 strands the first word of k - 1 letters exhausts memory.
MAX_STRANDS = 1000

# The most points ``census`` and ``commutator_census`` take.  The time grows
# about x2.2 to x2.8 a point: census(3, n) takes 3.2 s at n = 14, 6.7 s at
# 15 and 18 s at 16 (2-CPU host, Python 3.11.7), so n = 24 is already most
# of a day.  Past that no run finishes, and from about n = 60 the list of
# the partitions of n, built before the first search, exhausts memory:
# all_partitions(60) takes 3.2 s and 179 MB, and census(3, 80) dies of a
# MemoryError under a 2 GB address limit after 43 s.
MAX_POINTS = 24


class CensusRecord(Record):
    """One conjugacy class of homomorphisms, with its orbit bookkeeping."""

    hom: BraidHom
    orbit_size: int
    alpha: Permutation

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
            "alpha_cycles": self.alpha.cycle_string(),
        }


@functools.cache
def _partner_relators(m):
    """The relations of ``words.braid_relations`` that involve generator
    m + 1, as relator words lhs rhs^-1, built once per m: it braids with
    generator m and commutes with generators 1..m-1."""
    rels = braid_relations(m + 2)
    return tuple(lhs + inverse(rhs) for lhs, rhs in rels if m + 1 in lhs)


def braid_partners(chain, symmetry=None):
    """Every next image of a chain: every x that braids with its last image
    and commutes with the others, in increasing order; ``symmetry`` as for
    ``perm.relator_solutions``."""
    relators = _partner_relators(len(chain))
    return relator_solutions(chain[0].degree, relators, chain, symmetry=symmetry)


def _powers(p):
    """The images of the powers of p, as a frozenset."""
    out, q = {p.images}, p * p
    while q != p:
        out.add(q.images)
        q = q * p
    return frozenset(out)


def _fertile_partners(s1, parts):
    """The s2 of the fertile chains (s1, s2), those whose centralizer holds
    an element y of s1's cycle type ``parts``, up to C(s1): with s1 itself,
    a set that meets every C(s1)-orbit of them and holds no other s2.

    Conjugating by C(s1) takes y to one of ``perm.cycle_type_classes``,
    which builds them from the cycles of s1, and the s2 that go with it
    braid with s1 and commute with y: the partners of the chain (y, s1).
    They depend on y only through <y>, and if s1 lies in <y>, s2 commutes
    with s1 and so is s1.  y and s1 have one order, so s1 lies in <y>
    exactly when y lies in <s1>.  Each y searched must have s1's cycle type
    and commute with s1 and with each of its partners: that certifies every
    s2 found fertile."""
    kind, found, groups, skip = s1.cycle_type(), {s1}, set(), _powers(s1)
    for y in cycle_type_classes(s1, parts):
        if y.images in skip:
            continue
        group = _powers(y)
        if group not in groups:
            groups.add(group)
            partners = braid_partners((y, s1))
            if y.cycle_type() != kind or any(x * y != y * x for x in (s1, *partners)):
                raise RuntimeError("a partner of the fertile root is barren")
            found.update(partners)
    return found


# The tree of the last point count n, as {n: {chain: entry}}.  A first image
# (s,) maps to [C(s), fertile, full]: each root stays None until a census
# needs it, and then holds the sorted (least member, C(s)-orbit size) pairs
# of its partners, every partner for full (k <= 4), and for fertile (k >= 5)
# only those of the fertile chains (s, s2) and s itself.  A chain of two or
# more images maps, once expanded, to the same pairs for its partners under
# C(chain).  Tuples and no centralizer below the root keep census(8,16) to
# 30 MB of peak RSS.
_TREES = {}


def chain_leaves(k, n, parts):
    """The classes of maps from the k-strand braid group into S(n) whose
    first image is the class-minimal one of the given cycle type, as
    (chain, weight, C(chain)) leaves of the chain tree."""
    if n not in _TREES:
        # One point count at a time: a census at another n drops the tree.
        _TREES.clear()
        _TREES[n] = {}
    tree = _TREES[n]
    s1 = canonical_of_cycle_type(parts, n)
    top = tree.get((s1,))
    if top is None:
        top = tree[s1,] = [tuple_centralizer((s1,)), None, None]
    root = top[0]
    # From k = 5 on, every leaf lies below a grandchild of its chain (s1, s2),
    # which it has only if fertile, so the root need hold only those s2.
    side = 1 if k > 4 else 2
    if top[side] is None:
        if k > 4:
            partners = _fertile_partners(s1, parts)
        else:
            partners = braid_partners((s1,), symmetry=root)
        top[side] = conjugation_orbits(partners, centralizer_generators(root))
    # Depth first over the chain prefixes, one per orbit of the centralizer
    # of the prefix: (prefix, weight, its centralizer or None until needed).
    stack = []
    for s2, size in top[side]:
        if s2 == s1:
            # s3 braids with s2 = s1 and commutes with s1, so s3 = s1, and
            # so on down the chain: the constant chain is the only one.
            stack.append(((s1,) * (k - 1), 1, root))
        else:
            stack.append(((s1, s2), size, root if size == 1 else None))
    while stack:
        chain, weight, cent = stack.pop()
        if len(chain) == k - 1:
            if cent is None:
                cent = tuple_centralizer(chain)
            if weight * cent.order != root.order:
                raise RuntimeError("class weight and centralizer order disagree")
            yield chain, weight, cent
            continue
        orbits = tree.get(chain)
        if orbits is None:
            pool = braid_partners(chain)
            if len(pool) < 2:
                orbits = tuple((x, 1) for x in pool)
            else:
                if cent is None:
                    cent = tuple_centralizer(chain)
                orbits = tuple(conjugation_orbits(pool, centralizer_generators(cent)))
                if sum(size for _, size in orbits) != len(pool):
                    raise RuntimeError("centralizer orbits do not count the partners")
            # Stored only once checked, so no later census reads a bad node.
            tree[chain] = orbits
        # A partner fixed by the centralizer leaves it unchanged.
        stack.extend(
            (chain + (x,), weight * size, cent if size == 1 else None)
            for x, size in orbits
        )


def _census_one_class(args):
    """The leaves of ``chain_leaves`` as (s1, least alpha, weight) images."""
    k, n, parts = args
    out = []
    for chain, weight, cent in chain_leaves(k, n, parts):
        alpha = perm_image(alpha_word(k), chain)
        if weight > 1:
            # A class of weight 1 is one map, so alpha is its own least
            # conjugate.
            alpha = least_conjugate(alpha, chain[0], cent)
        out.append((chain[0].images, alpha.images, weight))
    return out


def census(k, n, workers=1):
    """All homomorphisms from the k-strand braid group into S(n), one
    record per conjugacy class, in a deterministic order."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if k > MAX_STRANDS:
        raise ValueError("k must be <= %d" % MAX_STRANDS)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_POINTS:
        raise ValueError("n must be <= %d" % MAX_POINTS)
    tasks = [(k, n, parts) for parts in all_partitions(n)]
    if workers > 1:
        # One cycle type per task: the slowest cycle types come last, and
        # default chunks would hand them all to one worker.  A single
        # worker needs no process pool, so the module loads only here.
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_census_one_class, tasks, chunksize=1)
    else:
        chunks = [_census_one_class(t) for t in tasks]
    # (s1, alpha) is unique per class: the triples sort as the records do.
    records = []
    for s1, alpha, orbit_size in sorted(t for chunk in chunks for t in chunk):
        alpha = Permutation(alpha)
        hom = from_sigma1_alpha(k, n, Permutation(s1), alpha)
        if hom is None:
            raise RuntimeError("census representative fails to rebuild")
        records.append(CensusRecord(hom=hom, orbit_size=orbit_size, alpha=alpha))
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
