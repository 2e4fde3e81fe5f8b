"""Permutation arithmetic and small permutation-group utilities.

Permutations are immutable bijections of {1..n}, stored as a tuple of
images (position i-1 holds the image of i).  Composition is fixed once
and for all as (a * b)(x) = a(b(x)); conjugation g a g^-1 is consistent
with that choice.
"""

from __future__ import annotations

import math
import operator
import re


def integer(x):
    """x if it is an int; ValueError for a bool, a float or a string."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("expected an integer, got %r" % (x,))
    return x


class Record:
    """Base of the package's immutable records: the annotated names of a
    subclass body are its fields, in order.  Construction takes them by
    position or keyword and then runs ``__post_init__`` if the subclass
    defines one; records are equal only to records of the same class with
    equal fields, hash by their fields and refuse assignment and deletion.
    It does what the package used of frozen dataclasses, whose import (it
    brings ``inspect`` and ``ast``) every command would pay at start-up."""

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields, cls._values = fields, operator.attrgetter(*fields)
        # A generated __init__ binds arguments as fast as a dataclass's.
        body = "".join("    _set(self, %r, %s)\n" % (f, f) for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"_set": object.__setattr__}
        exec("def __init__(self, %s):\n%s" % (", ".join(fields), body), namespace)
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )


class Permutation:
    """A bijection of {1..n}, 1-indexed."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        # bool, float and the like would compare equal to the ints they
        # stand for and pass the bijection check below.
        if not set(map(type, images)) <= {int}:
            raise ValueError("images must be ints: %r" % (images,))
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images must be a bijection of {1..%d}: %r" % (n, images))
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images):
        """Wrap a tuple of ints already known to be a bijection of {1..n},
        without the check of ``__init__``: for results that are bijections
        by construction, such as products and inverses."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which checks the images.
        return Permutation, (self.images,)

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, cycles, n):
        """Build from cycle notation: text "(1,2)(3,4)" or a list of tuples."""
        if isinstance(cycles, str):
            parsed = []
            for part in re.findall(r"\(([^()]*)\)", cycles):
                part = part.strip()
                if part:
                    parsed.append(tuple(int(x) for x in re.split(r"[,\s]+", part)))
            cycles = parsed
        images = list(range(1, n + 1))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise ValueError("repeated point in cycle %r" % (cyc,))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= n:
                    raise ValueError("point %d out of range 1..%d" % (a, n))
                images[a - 1] = b
        return cls(images)

    def __call__(self, x):
        return self.images[x - 1]

    def __mul__(self, other):
        """(a * b)(x) = a(b(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        im = self.images
        return Permutation._trusted(tuple([im[y - 1] for y in other.images]))

    def inv(self):
        out = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            out[y - 1] = x
        return Permutation._trusted(tuple(out))

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = Permutation.identity(self.degree)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self, g):
        """g * self * g^-1."""
        return g * self * g.inv()

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)

    def is_identity(self):
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self(x)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self):
        return CycleType(len(c) for c in self.cycles())

    def order(self):
        return math.lcm(*map(len, self.cycles()))

    def support(self):
        return frozenset(x for x in range(1, self.degree + 1) if self(x) != x)

    def fixed_points(self):
        return frozenset(x for x in range(1, self.degree + 1) if self(x) == x)

    def is_even(self):
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def restrict(self, points):
        """Restriction to an invariant set, relabeled order-preservingly to {1..m}."""
        pts = sorted(points)
        index = {p: i + 1 for i, p in enumerate(pts)}
        for p in pts:
            if self(p) not in index:
                raise ValueError("set is not invariant")
        return Permutation(index[self(p)] for p in pts)

    def extend(self, n):
        """The same permutation viewed inside S(n), n >= degree."""
        if n < self.degree:
            raise ValueError("cannot shrink degree")
        return Permutation(self.images + tuple(range(self.degree + 1, n + 1)))

    def shift(self, offset, n):
        """Move the action to points {offset+1 .. offset+degree} inside S(n)."""
        if offset + self.degree > n:
            raise ValueError("shifted permutation does not fit in S(%d)" % n)
        images = list(range(1, n + 1))
        for x in range(1, self.degree + 1):
            images[offset + x - 1] = self(x) + offset
        return Permutation(images)

    def to_json(self):
        return list(self.images)


class CycleType(tuple):
    """Multiset of cycle lengths >= 2, sorted descending."""

    def __new__(cls, parts):
        parts = sorted((int(p) for p in parts), reverse=True)
        if any(p < 2 for p in parts):
            raise ValueError("cycle-type parts must be >= 2")
        return super().__new__(cls, parts)


class RComponent(Record):
    """All r-cycles of a permutation, with their joint support."""

    cycles: tuple
    support: frozenset

    @property
    def t(self):
        return len(self.cycles)


def r_component(p, r):
    if r < 2:
        raise ValueError("r must be >= 2")
    cycs = tuple(c for c in p.cycles() if len(c) == r)
    supp = frozenset(x for c in cycs for x in c)
    return RComponent(cycles=cycs, support=supp)


def tuple_conjugacy_witness(aa, bb):
    """The least g with g aa[i] g^-1 = bb[i] for all i, or None.

    The first solution of the relators x aa[i] x^-1 bb[i]^-1.
    """
    if len(aa) != len(bb):
        raise ValueError("tuple length mismatch")
    if not aa:
        raise ValueError("empty tuple")
    n = aa[0].degree
    if any(p.degree != n for p in aa + bb):
        raise ValueError("degree mismatch")
    m, x = len(aa), 2 * len(aa) + 1
    found = relator_solutions(
        n, [(x, i, -x, -m - i) for i in range(1, m + 1)], aa + bb, first=True
    )
    g = found[0] if found else None
    if g is not None and any(p.conj(g) != q for p, q in zip(aa, bb)):
        raise RuntimeError("conjugacy witness fails to conjugate")
    return g


def _then(first, second):
    """The composite of two maps of {0..n-1}, ``first`` applied first, each
    given as the pair (map, inverse map), or None for the identity."""
    if first is None or second is None:
        return first or second
    (f, f_inv), (g, g_inv) = first, second
    return tuple([g[y] for y in f]), tuple([f_inv[y] for y in g_inv])


def relator_solutions(n, relators, images=(), first=False, symmetry=None):
    """Every x in S(n) for which each relator is the identity, in
    increasing order; with ``first``, only the least one.

    A relator is a word in the format of ``words``: nonzero signed letters,
    read as a product left to right.  Letter i is ``images[i - 1]``, -i its
    inverse, and len(images) + 1 the unknown x; any other letter is a
    ``ValueError``.  Letters with equal images are one letter, so g and g^-1
    cancel first, next to each other and across the ends of the word; that
    changes no solution, it only lets the scans below see further.

    Backtracking on the point map of x with the deductions of coset
    enumeration (Sims, Computation with Finitely Presented Groups, ch. 5).
    Each relator is compiled once into segments: an x-letter and the
    composite of the fixed letters up to the next one.  After each new
    image x(p) = q, every cyclic rotation of a relator that starts with x
    at p or with x^-1 at q is scanned from both ends, one step per
    x-letter.  A scan with exactly one gap forces the missing image; a
    closed scan that misses its start prunes the branch.  A rotation of an
    inverse relator is one of these closed walks run backwards, which the
    two-ended scan already covers.  A relator of two segments with
    opposite x-signs, x A x^-1 B for composites A and B (a commutation
    x c x^-1 c^-1, a conjugacy relator), is not scanned: it says
    x(A^-1 p) = B(x(p)), so each new image x(p) = q forces x(A^-1 p) = B q
    at once, and so on along the A-cycle of p.  Both rules reach the same
    fixpoint.
    Each branch defines the least point without an image and tries its
    images in increasing order, so solutions come out sorted.

    With a ``tuple_centralizer`` C = C(G) as ``symmetry``, every image
    must commute with C (else ``ValueError``), so C permutes the
    solutions, and the result is a sorted subset that holds the least
    member of each C-orbit (so ``first`` still gives the least solution;
    McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  At
    a branch point p the least such x has x(p) least in its orbit under the
    stabilizer in C of p and of the points mapped so far and their images:
    alone if its copy (its G-orbit) holds one of those points, else every
    point of an untouched copy with its key in C's point table.  Only that
    least free point of each orbit is tried.
    """
    if any(g.degree != n for g in images):
        raise ValueError("degree mismatch")
    if symmetry is not None:
        copy_of, orbit_of = symmetry.copy_of, symmetry.orbit_of
        if len(copy_of) != n:
            raise ValueError("degree mismatch")
        gens = centralizer_generators(symmetry)
        if any(g * h != h * g for g in set(images) for h in gens):
            raise ValueError("an image does not commute with C(G)")

    img = [-1] * n  # x on {0..n-1}; -1 where not yet chosen
    pre = [-1] * n  # x^-1 likewise
    # Each letter of an image as the least letter with an equal image, and
    # each such letter as the pair (its map, the inverse map) on {0..n-1}.
    x = len(images) + 1
    letter, tables, first_of = {x: x, -x: -x}, {}, {}
    for i, g in enumerate(images, 1):
        j = first_of.setdefault(g, i)
        letter[i], letter[-i] = j, -j
        if j == i:
            fwd = tuple([y - 1 for y in g.images])
            # The inverse lists the points in the order of their images.
            bwd = tuple(sorted(range(n), key=fwd.__getitem__))
            tables[i], tables[-i] = (fwd, bwd), (bwd, fwd)
    ident = (tuple(range(n)),) * 2

    # A relator is a closed walk: the letters of the word, last one first,
    # must bring every point back to itself.  Segment i is the i-th x-letter
    # (read through xs[i], backwards xinv[i]) and the fixed letters after it
    # as one map fw[i] with inverse bw[i], stored twice round so that the
    # rotation from segment i is entries i..i+r-1.  A walk x, A, x^-1, B
    # goes to ``equivariant`` as (B^-1, A).
    at_x, at_x_inv, equivariant = [], [], []
    for word in relators:
        red = []
        for g in word:
            if g not in letter:
                raise ValueError("letter %r names no image or x, 1..%d" % (g, x))
            g = letter[g]
            if red and red[-1] == -g:
                red.pop()
            else:
                red.append(g)
        while len(red) > 1 and red[0] == -red[-1]:
            red = red[1:-1]
        red.reverse()
        # segments[0] gathers the fixed letters before the first x-letter;
        # they end the last segment.
        signs, segments = [], [None]
        for g in red:
            if abs(g) == x:
                signs.append(1 if g > 0 else -1)
                segments.append(None)
            else:
                segments[-1] = _then(segments[-1], tables[g])
        if not signs:
            # No x: the word holds for every x or for none.
            if segments[0] not in (None, ident):
                return []
            continue
        segments[-1] = _then(segments[-1], segments[0])
        fw, bw = zip(*(s or ident for s in segments[1:]))
        if len(signs) == 2 and signs[0] == -signs[1]:
            i = signs.index(1)
            equivariant.append((bw[1 - i], fw[i]))
            continue
        r = len(signs)
        xs = tuple(img if e == 1 else pre for e in signs) * 2
        xinv = tuple(pre if e == 1 else img for e in signs) * 2
        fw, bw = fw * 2, bw * 2
        for i, e in enumerate(signs):
            rotation = (fw[i], i + 1, i + r, xs, xinv, fw, bw)
            (at_x if e == 1 else at_x_inv).append(rotation)

    trail = []

    def define(p, q):
        """Set x(p) = q and every image it forces; False on a contradiction."""
        img[p], pre[q] = q, p
        trail.append(p)
        queue = [(p, q)]
        while queue:
            p, q = queue.pop()
            for a, b in equivariant:
                u, v = a[p], b[q]
                if img[u] != v:
                    if img[u] >= 0 or pre[v] >= 0:
                        return False
                    img[u], pre[v] = v, u
                    trail.append(u)
                    queue.append((u, v))
            for start, after, rotations in ((p, q, at_x), (q, p, at_x_inv)):
                for first_map, lo, end, xs, xinv, fw, bw in rotations:
                    f = first_map[after]
                    for s in range(lo, end):
                        y = xs[s][f]
                        if y < 0:
                            break
                        f = fw[s][y]
                    else:
                        if f != start:
                            return False
                        continue
                    b = start
                    for j in range(end - 1, s, -1):
                        b = xinv[j][bw[j][b]]
                        if b < 0:
                            break
                    else:
                        # One gap: x-letter s must carry f to bw[s][b].
                        b = bw[s][b]
                        u, v = (f, b) if xs[s] is img else (b, f)
                        if img[u] >= 0 or pre[v] >= 0:
                            return False
                        img[u], pre[v] = v, u
                        trail.append(u)
                        queue.append((u, v))
        return True

    out = []

    def search():
        """Extend the current map; True once ``first`` has its solution."""
        if -1 not in img:
            out.append(Permutation._trusted(tuple([y + 1 for y in img])))
            return first
        p = img.index(-1)
        if symmetry is not None:
            touched = {copy_of[p]}
            touched.update(
                copy_of[y] for y in range(n) if img[y] >= 0 or pre[y] >= 0
            )
            tried = set()
        for q in range(n):
            if pre[q] >= 0:
                continue
            if symmetry is not None and copy_of[q] not in touched:
                if orbit_of[q] in tried:
                    continue
                tried.add(orbit_of[q])
            mark = len(trail)
            if define(p, q) and search():
                return True
            while len(trail) > mark:
                u = trail.pop()
                pre[img[u]] = -1
                img[u] = -1
        return False

    search()
    # search sees itself through its closure; breaking that cycle frees the
    # tables now rather than at the next run of the cycle collector.
    del search
    return out


def conjugation_orbits(pool, generators):
    """Split permutations into orbits under conjugation by the group the
    generators span.

    Each orbit is closed under the group, so it may hold permutations
    outside the pool; the group is finite, so closing under the generators
    alone (without their inverses) reaches the whole orbit.  Returns sorted
    (least member, orbit size) pairs, one per orbit that meets the pool.
    """
    # Members are images behind a leading 0, so that p[y] is the image of y
    # and they order as the permutations do; g p g^-1 maps g(y) to g(p(y)).
    pairs = [((0,) + g.images, g.inv().images) for g in generators]
    remaining = {(0,) + p.images for p in pool}
    out = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for g, g_inv in pairs:
                moved = (0,) + tuple(g[p[y]] for y in g_inv)
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        remaining -= orbit
        out.append((min(orbit), len(orbit)))
    return [(Permutation._trusted(least[1:]), size) for least, size in sorted(out)]


class TupleCentralizer(Record):
    """The centralizer C(G) in S(n) of a permutation group G, as
    ``tuple_centralizer`` finds it: per class of isomorphic orbits of G,
    its orbits (copies) as point sequences aligned point by point with the
    first, and C_m as maps of the positions of the first copy.  Entry x - 1
    of ``copy_of`` names the copy that holds x by its first point, and of
    ``orbit_of`` the C(G)-orbit of x (the points of every copy of its class
    at the C_m-orbit of its position) by its point in the first copy at the
    least such position.  ``centralizer_generators`` builds a generating set
    from it."""

    copies: tuple
    constituents: tuple
    order: int
    copy_of: tuple
    orbit_of: tuple


def _equivariant(edges, y, m):
    """The map phi(g x) = g phi(x) with phi(root) = y along the orbit
    ``edges`` of ``tuple_centralizer``, as the images of the orbit's points
    in order; None unless it is a consistent bijection."""
    phi = [y] + [0] * (m - 1)
    for i, g, j in edges:
        v = g[phi[i]]
        if not phi[j]:
            phi[j] = v
        elif phi[j] != v:
            return None
    return tuple(phi) if len(set(phi)) == m else None


def tuple_centralizer(perms):
    """The centralizer in S(n) of the group G the permutations generate.

    The orbits of G fall into classes of isomorphic G-sets.  A G-map phi
    from an orbit is fixed by the image y of the orbit's least point: a
    breadth-first spanning tree of the orbit sets phi(g x) = g phi(x), and
    phi is kept if the other edges x -> g x agree and it is a bijection.
    Each class lists its t orbits (copies) aligned with the first by such
    maps.  On one orbit of m points the centralizer of G is the group C_m
    of the G-maps of the orbit onto itself, which is semiregular (a G-map
    that fixes a point fixes the orbit).  C(G) is the product over the
    classes of C_m wr S_t, of order prod |C_m|^t t!; its generators come
    from ``centralizer_generators``.
    """
    n = perms[0].degree
    ims = [(0,) + p.images for p in perms]
    seen = set()
    classes = []  # per class: copies, edges of the first copy, C_m
    for root in range(1, n + 1):
        if root in seen:
            continue
        # Edge (i, g, j): g maps point i of the orbit to point j; the
        # first edge into j is the tree edge that discovers it.
        points, index, edges = [root], {root: 0}, []
        for i, x in enumerate(points):
            for g in ims:
                j = index.setdefault(g[x], len(points))
                if j == len(points):
                    points.append(g[x])
                edges.append((i, g, j))
        seen.update(points)
        m = len(points)
        for copies, first_edges, _ in classes:
            if len(copies[0]) == m:
                phi = next(
                    filter(None, (_equivariant(first_edges, y, m) for y in points)),
                    None,
                )
                if phi:
                    copies.append(phi)
                    break
        else:
            maps = filter(None, (_equivariant(edges, y, m) for y in points))
            cm = [tuple(map(index.__getitem__, phi)) for phi in maps]
            classes.append(([tuple(points)], edges, cm))
    order = 1
    copy_of, orbit_of = [0] * n, [0] * n
    for copies, _, cm in classes:
        t = len(copies)
        order *= len(cm) ** t * math.factorial(t)
        keys = [copies[0][min(orbit)] for orbit in zip(*cm)]
        for copy in copies:
            for x, key in zip(copy, keys):
                copy_of[x - 1], orbit_of[x - 1] = copy[0], key
    return TupleCentralizer(
        copies=tuple(tuple(copies) for copies, _, _ in classes),
        constituents=tuple(cm for _, _, cm in classes),
        order=order,
        copy_of=tuple(copy_of),
        orbit_of=tuple(orbit_of),
    )


def centralizer_generators(centralizer):
    """Generators of the ``tuple_centralizer`` C(G), the product over its
    classes of C_m wr S_t.  Per class of t copies: each element of C_m on
    the first copy that the ones taken before it do not generate, so at
    most log2 |C_m| of them; a swap of the first two copies; and, for three
    or more, a shift of each copy onto the next, the last onto the first."""
    n = len(centralizer.copy_of)
    gens = []
    for copies, cm in zip(centralizer.copies, centralizer.constituents):
        first = copies[0]
        # Each generator as (points, their images) pairs of sequences.
        moves = []
        # The elements taken generate pi exactly when they carry position 0
        # to pi[0] (C_m is semiregular).
        taken, reached = [], {0}
        for pi in cm:
            if pi[0] in reached:
                continue
            taken.append(pi)
            frontier = list(reached)
            while frontier:
                i = frontier.pop()
                for g in taken:
                    if g[i] not in reached:
                        reached.add(g[i])
                        frontier.append(g[i])
            moves.append([(first, [first[i] for i in pi])])
        if len(copies) > 1:
            moves.append([(copies[0], copies[1]), (copies[1], copies[0])])
        if len(copies) > 2:
            moves.append(list(zip(copies, copies[1:] + copies[:1])))
        for move in moves:
            images = list(range(1, n + 1))
            for src, dst in move:
                for x, y in zip(src, dst):
                    images[x - 1] = y
            gens.append(Permutation._trusted(tuple(images)))
    return gens


def cycle_type_classes(s, parts):
    """One element of each conjugacy class of C(s) made of elements of cycle
    type ``parts``, a partition of n with its parts of 1, found from the
    cycles of s without listing C(s).

    C(s) is the product over the cycle lengths m of s of Z_m wr S_t, where
    Z_m rotates an m-cycle and S_t permutes the t m-cycles.  A class of
    Z_m wr S_t is a multiset of blocks (l, j): a cycle of l m-cycles whose
    shifts add up to j mod m (James and Kerber, The Representation Theory
    of the Symmetric Group, ch. 4).  The block gives gcd(m, j) cycles of
    length l m / gcd(m, j).  So ``parts`` is filled one cycle length of s,
    and in it one block, at a time, each length's blocks taken in
    non-increasing (l, j) order, so that each multiset is built once.  A
    block maps each of its m-cycles onto the next point by point and the
    last onto the first shifted by j.
    """
    n = s.degree
    need = {}
    for p in parts:
        need[p] = need.get(p, 0) + 1
    by_length = {}
    for c in s.cycles(include_fixed=True):
        by_length.setdefault(len(c), []).append(c)
    lengths = list(by_length.items())
    blocks = []  # (length index, l, j) of each block taken so far
    out = []

    def fill(i, left, top):
        """Take blocks of at most ``top`` = (l, j) for the ``left`` cycles of
        s of the i-th length m, and then for the later lengths, until
        ``need`` is used up."""
        if not left:
            # Every block took its cycles from ``need``, which sums to n.
            if i + 1 < len(lengths):
                fill(i + 1, len(lengths[i + 1][1]), (n, n))
            else:
                build()
            return
        m = lengths[i][0]
        for l in range(min(left, top[0]), 0, -1):
            for j in range(m - 1, -1, -1):
                d = math.gcd(m, j)
                if (l, j) > top or need.get(l * m // d, 0) < d:
                    continue
                need[l * m // d] -= d
                blocks.append((i, l, j))
                fill(i, left - l, (l, j))
                blocks.pop()
                need[l * m // d] += d

    def build():
        images = list(range(1, n + 1))
        at = [0] * len(lengths)  # the next free m-cycle of each length
        for i, l, j in blocks:
            block = lengths[i][1][at[i] : at[i] + l]
            at[i] += l
            shifted = block[0][j:] + block[0][:j]
            for src, dst in zip(block, block[1:] + [shifted]):
                for x, y in zip(src, dst):
                    images[x - 1] = y
        out.append(Permutation._trusted(tuple(images)))

    fill(0, len(lengths[0][1]), (n, n))
    return out


def least_conjugate(a, s, centralizer):
    """The least g a g^-1 over g in C(s), where ``centralizer`` is the
    ``tuple_centralizer`` of a group G whose centralizer C(G) is the
    intersection of C(s) and C(a), such as the one s and a generate.

    A minimal-image search (Linton, "Finding the smallest image of a set",
    ISSAC 2004) that builds h = g^-1 one s-cycle at a time: setting
    h(p) = q sets h on all of p's s-cycle.  Point by point, the image
    g a g^-1 maps p to T = g(a(h(p))); where g(a(h(p))) is not yet defined
    it is forced to the least point left whose s-cycle has the length of
    that of a(h(p)).  Only the partial maps with the least T so far are
    kept.  Two maps h and c h with c in C(G) give the same image, so at a
    branch point one q is tried per orbit of the stabilizer in C(G) of
    every point h maps onto, as ``centralizer``'s point table names them:
    a point of a copy that h already maps onto is alone in its orbit; any
    other goes by its key.
    """
    n = a.degree
    a_im = (0,) + a.images
    cycle, at = [()] * (n + 1), [0] * (n + 1)
    for c in s.cycles(include_fixed=True):
        for i, x in enumerate(c):
            cycle[x], at[x] = c, i
    length = list(map(len, cycle))
    copy_of, orbit_of = centralizer.copy_of, centralizer.orbit_of

    def assign(h, h_inv, p, q):
        """h(p) = q, and so on along the s-cycles of p and q."""
        src, dst = cycle[p], cycle[q]
        shift = at[q] - at[p]
        for i, x in enumerate(src):
            y = dst[(i + shift) % len(src)]
            h[x], h_inv[y] = y, x

    states = [([0] * (n + 1), [0] * (n + 1))]
    for p in range(1, n + 1):
        best, kept = n + 1, []
        for h, h_inv in states:
            if h[p]:
                branches = [(h, h_inv)]
            else:
                touched = {copy_of[y - 1] for y in range(1, n + 1) if h_inv[y]}
                tried, branches = set(), []
                for q in range(1, n + 1):
                    if h_inv[q] or length[q] != length[p]:
                        continue
                    if copy_of[q - 1] not in touched:
                        if orbit_of[q - 1] in tried:
                            continue
                        tried.add(orbit_of[q - 1])
                    branch = (h[:], h_inv[:])
                    assign(*branch, p, q)
                    branches.append(branch)
            for h, h_inv in branches:
                z = a_im[h[p]]
                if not h_inv[z]:
                    w = next(
                        w
                        for w in range(1, n + 1)
                        if not h[w] and length[w] == length[z]
                    )
                    assign(h, h_inv, w, z)
                if h_inv[z] < best:
                    best, kept = h_inv[z], []
                if h_inv[z] == best:
                    kept.append((h, h_inv))
        states = kept
    h, h_inv = states[0]
    least = Permutation._trusted(tuple(h_inv[a_im[h[p]]] for p in range(1, n + 1)))
    if a.conj(Permutation._trusted(tuple(h_inv[1:]))) != least:
        raise RuntimeError("the least image is not a conjugate")
    return least


class GeneratedGroup(Record):
    """A permutation group given by generators; degree-limited utilities."""

    degree: int
    generators: tuple

    def __post_init__(self):
        if any(g.degree != self.degree for g in self.generators):
            raise ValueError("generator degree mismatch")

    def orbits(self):
        parent = list(range(self.degree + 1))
        for g in self.generators:
            for x in range(1, self.degree + 1):
                rx, ry = _find(parent, x), _find(parent, g(x))
                if rx != ry:
                    parent[ry] = rx
        return _classes(parent)

    def is_transitive(self):
        return len(self.orbits()) == 1

    def elements(self):
        """Full closure by breadth-first search; intended for tiny degrees."""
        ident = Permutation.identity(self.degree)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for h in frontier:
                for g in self.generators:
                    e = g * h
                    if e not in seen:
                        seen.add(e)
                        nxt.append(e)
            frontier = nxt
        return seen

    def order(self):
        return len(self.elements())

    def is_primitive(self):
        """Whether the group, which must be transitive, preserves no block
        system other than the points and the whole set.

        For each w > 1 this builds the finest invariant partition in which
        1 and w share a block: join 1 and w, then join g(a) and g(b) for
        every joined pair (a, b) and generator g.  The group is imprimitive
        as soon as such a partition has more than one block."""
        if not self.is_transitive():
            raise ValueError("group must be transitive")
        n = self.degree
        for w in range(2, n + 1):
            parent = list(range(n + 1))
            parent[w] = 1
            joined = [(1, w)]
            while joined:
                a, b = joined.pop()
                for g in self.generators:
                    ra, rb = _find(parent, g(a)), _find(parent, g(b))
                    if ra != rb:
                        parent[rb] = ra
                        joined.append((g(a), g(b)))
            system = {frozenset(b) for b in _classes(parent)}
            if len(system) > 1:
                for g in self.generators:
                    if any(frozenset(map(g, b)) not in system for b in system):
                        raise RuntimeError("block system is not invariant")
                return False
        return True


def _find(parent, x):
    """The root of x in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _classes(parent):
    """The classes of the union-find forest on 1..len(parent)-1, each in
    increasing order, sorted by least point."""
    groups = {}
    for x in range(1, len(parent)):
        groups.setdefault(_find(parent, x), []).append(x)
    return sorted((tuple(v) for v in groups.values()), key=lambda o: o[0])


def all_partitions(n):
    """All partitions of n, parts descending, lexicographically descending."""
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


def canonical_of_cycle_type(parts, n):
    """Class-minimal representative (one-line lexicographic order) in S(n).

    Fixed points occupy the smallest points, then nontrivial cycles in
    ascending length on consecutive blocks of points.
    """
    parts = sorted(p for p in parts if p >= 2)
    if sum(parts) > n:
        raise ValueError("cycle type does not fit in S(%d)" % n)
    start = n - sum(parts) + 1
    cycles = []
    for p in parts:
        cycles.append(tuple(range(start, start + p)))
        start += p
    return Permutation.from_cycles(cycles, n)
