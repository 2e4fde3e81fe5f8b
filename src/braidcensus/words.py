"""Braid words on k strands and an exact word-problem oracle.

A word is a tuple of nonzero signed integers: letter i stands for the
i-th Artin generator, -i for its inverse.  Equality of braid words is
decided by handle reduction, which rewrites a word to the empty word
exactly when it represents the identity braid.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .perm import Permutation, integer


def word(letters):
    w = tuple(map(integer, letters))
    if any(x == 0 for x in w):
        raise ValueError("word letters must be nonzero")
    return w


def inverse(w):
    return tuple(-x for x in reversed(w))


def power(w, e):
    if e < 0:
        return inverse(w) * (-e)
    return tuple(w) * e


def conjugate(w, g):
    """g w g^-1."""
    return tuple(g) + tuple(w) + inverse(g)


def commutator(g1, g2):
    """g1^-1 g2^-1 g1 g2."""
    return inverse(g1) + inverse(g2) + tuple(g1) + tuple(g2)


def braid_relations(k):
    """The Artin relations of the k-strand braid group as (lhs, rhs) pairs
    of positive words: the far commutations s_q s_p = s_p s_q for
    q > p + 1, then the braidings s_p s_{p+1} s_p = s_{p+1} s_p s_{p+1}.
    They are yielded one at a time: there are (k - 1)(k - 2)/2 of them."""
    for p in range(1, k - 1):
        for q in range(p + 2, k):
            yield (q, p), (p, q)
    for p in range(1, k - 1):
        yield (p, p + 1, p), (p + 1, p, p + 1)


def free_reduce(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _find_handle(w):
    """Leftmost-ending handle (p, q): w[p..q] = s_i^e u s_i^-e, u above i.

    Walking back from q while indices stay strictly above i either finds
    the matching opposite-sign flank (a handle whose interior contains no
    earlier-ending handle) or a same-sign letter (no handle ends at q).
    """
    for q in range(1, len(w)):
        i = abs(w[q])
        p = q - 1
        while p >= 0 and abs(w[p]) > i:
            p -= 1
        if p >= 0 and w[p] == -w[q]:
            return p, q
    return None


def handle_reduce(w, max_steps=10_000):
    """Fully handle-reduce w; the result is empty iff w is the identity.

    Handle reduction always ends, but it can take many steps on long words,
    so more than ``max_steps`` reductions (10 000 by default) raise
    RuntimeError.  The words of this package's checks need fewer than 40."""
    w = list(free_reduce(w))
    steps = 0
    while True:
        found = _find_handle(w)
        if found is None:
            return tuple(w)
        p, q = found
        e = 1 if w[p] > 0 else -1
        i = abs(w[p])
        replacement = []
        for x in w[p + 1 : q]:
            if abs(x) == i + 1:
                sign = 1 if x > 0 else -1
                replacement += [-e * (i + 1), sign * i, e * (i + 1)]
            else:
                replacement.append(x)
        w = list(free_reduce(w[:p] + replacement + w[q + 1 :]))
        steps += 1
        if steps > max_steps:
            raise RuntimeError("handle reduction exceeded %d steps" % max_steps)


def is_trivial(w):
    return not handle_reduce(w)


def words_equal(w1, w2):
    return is_trivial(tuple(w1) + inverse(w2))


def perm_image(w, images):
    """Image of a word under the map that sends generator i to images[i-1]:
    the one evaluator of words in this package.

    g1 g2 ... maps to images(g1) * images(g2) * ... with (a * b)(x) = a(b(x)),
    and the empty word to the identity.  A letter 0 or beyond +-len(images),
    or an empty list of images, is a ValueError."""
    if not images:
        raise ValueError("need at least one generator image")
    if not w:
        return Permutation.identity(images[0].degree)
    m = len(images)
    if 0 in w or max(map(abs, w)) > m:
        bad = next(x for x in w if not 1 <= abs(x) <= m)
        raise ValueError(
            "letter %d names no generator: |letter| must be in 1..%d" % (bad, m)
        )
    return reduce(mul, [images[x - 1] if x > 0 else images[-x - 1].inv() for x in w])


# Distinguished words on k strands.


def alpha_word(k):
    """The k-cycle braid: product of all generators in increasing order."""
    return tuple(range(1, k))


def beta_word(k):
    return alpha_word(k) + (1,)


def band_word(i, j):
    """Ascending generator run on strands i..j (letters i .. j-1)."""
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    return tuple(range(i, j))


def band_beta_word(i, j):
    return band_word(i, j) + (i,)


def half_twist_band(t):
    """The word s_{t-1} ... s_2 s_1^2 s_2 ... s_{t-1}, a pure braid on t strands."""
    if t < 2:
        raise ValueError("t must be >= 2")
    return tuple(range(t - 1, 0, -1)) + tuple(range(1, t))


def known_identities(k):
    """Named pairs of words that represent the same braid on k strands."""
    a, b = alpha_word(k), beta_word(k)
    out = []
    for i in range(1, k - 1):
        out.append(
            ("cycle shifts generator %d" % i, (i + 1,), conjugate((i,), a))
        )
    for i in range(1, k):
        out.append(
            (
                "generator %d from the first" % i,
                (i,),
                conjugate((1,), power(a, i - 1)),
            )
        )
    for q in range(0, k - 1):
        out.append(
            (
                "generator %d from cycle and successor" % (q + 1),
                (1 + q,),
                power(a, q - 1) + b + power(a, -q),
            )
        )
    for i in range(1, k):
        for j in range(i + 1, k + 1):
            aij = band_word(i, j)
            bij = band_beta_word(i, j)
            out.append(
                (
                    "band power identity i=%d j=%d" % (i, j),
                    power(aij, j - i + 1),
                    power(bij, j - i),
                )
            )
            for q in range(0, j - i):
                out.append(
                    (
                        "band conjugation i=%d j=%d q=%d" % (i, j, q),
                        (i + q,),
                        power(aij, q - 1) + bij + power(aij, -q),
                    )
                )
            for m in range(1, k):
                if m < i - 1 or m > j:
                    out.append(
                        (
                            "band commutes past generator i=%d j=%d m=%d"
                            % (i, j, m),
                            aij + (m,),
                            (m,) + aij,
                        )
                    )
                elif i <= m <= j - 2:
                    out.append(
                        (
                            "band shifts generator i=%d j=%d m=%d" % (i, j, m),
                            aij + (m,),
                            (m + 1,) + aij,
                        )
                    )
    for t in range(2, min(5, k - 1) + 1):
        lhs = power(band_word(1, t), t) + tuple(range(t, 0, -1))
        rhs = power(band_word(1, t + 1), t)
        out.append(("full twist extension t=%d" % t, lhs, rhs))
    for t in range(2, min(5, k) + 1):
        lhs = ()
        for s in range(2, t + 1):
            lhs = lhs + half_twist_band(s)
        rhs = power(band_word(1, t), t)
        out.append(("full twist as band products t=%d" % t, lhs, rhs))
    if k >= 4:
        g1 = (3, -1)
        g2 = (1, -2)
        out.append(
            (
                "commutator expression for the band quotient",
                g1,
                conjugate(commutator(g1, g2), inverse((1, 2))),
            )
        )
    return out


# Cabling: replace each strand by m parallel strands.


def cable_hom(k, m, v=()):
    """Images of the k-strand generators under m-cabling, as words on k*m strands.

    Generator i maps to v_i u_i where u_i swaps the i-th and (i+1)-st
    blocks of m strands and v_i is the word v (on m-1 letters) played
    inside the i-th block.  Any v yields a homomorphism.
    """
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 and m >= 1")
    v = word(v) if v else ()
    if v and max(abs(x) for x in v) > m - 1:
        raise ValueError("v must use letters 1..%d" % (m - 1))
    images = []
    for i in range(1, k):
        u = ()
        for s in range(m, 0, -1):
            u = u + band_word((i - 1) * m + s, i * m + s)
        vi = tuple((x // abs(x)) * (abs(x) + (i - 1) * m) for x in v)
        images.append(vi + u)
    return images


# Degrees admitting nontrivial cyclic-image homomorphisms of the
# two-generator presentation, and the exponent arithmetic behind them.


def special_params(k, n):
    """Parameter records for degree n, or [] if n is in no admissible progression.

    Each record fixes which of the two reference cycles (a of defect n-1,
    b of defect n) the two generators land on, and the exponents at the
    free multiplier t = 1.  The defect balance k*p*defect(alpha unit) =
    (k-1)*q*defect(beta unit) holds identically in t.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if k == 4:
        raise ValueError("the exponent arithmetic excludes four strands")
    d = k * (k - 1)
    records = []
    if n >= k and (n - k) % d == 0:
        l = (n - k) // d
        records.append(
            {
                "case": 1,
                "l": l,
                "n": n,
                "alpha_unit": "a",
                "beta_unit": "b",
                "p": l * (k - 1) + 1,
                "q": l * k + 1,
                "t_coprime_to": d,
            }
        )
    if n >= d and n % d == 0:
        records.append(
            {
                "case": 2,
                "l": n // d,
                "n": n,
                "alpha_unit": "a",
                "beta_unit": "a",
                "p": k - 1,
                "q": k,
                "t_coprime_to": None,
            }
        )
    if n > d and (n - 1) % d == 0:
        records.append(
            {
                "case": 3,
                "l": (n - 1) // d,
                "n": n,
                "alpha_unit": "b",
                "beta_unit": "b",
                "p": k - 1,
                "q": k,
                "t_coprime_to": None,
            }
        )
    if n % (k - 1) == 0:
        lk = n // (k - 1) + 1
        if lk % k == 0 and lk // k >= 1:
            records.append(
                {
                    "case": 4,
                    "l": lk // k,
                    "n": n,
                    "alpha_unit": "b",
                    "beta_unit": "a",
                    "p": (lk // k) * (k - 1) - 1,
                    "q": lk - 1,
                    "t_coprime_to": d,
                }
            )
    return records


def progression_degrees(k, nmax):
    """The four arithmetic progressions of admissible degrees up to nmax.

    All have common difference k*(k-1); the initial terms are k, k*(k-1),
    k*(k-1)+1 and (k-1)^2.
    """
    d = k * (k - 1)
    starts = {1: k, 2: d, 3: d + 1, 4: (k - 1) ** 2}
    return {
        case: [n for n in range(start, nmax + 1, d)]
        for case, start in starts.items()
    }
