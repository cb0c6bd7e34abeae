"""Morphisms on finite alphabets: fixed points, codings and spectral data.

The letters of one alphabet are all ints (digits) or all strings (named
states); a Morphism holds the images of single letters as tuples.  Words
are arrays of letter indices, imaged by one vectorized gather from one flat
table of letter images (image_table, apply).  Prefixes of fixed points
and of their codings are int or str numpy arrays, read from such words;
int letters take automata.letter_dtype, one byte where the alphabet fits.
A DFAO in an abstract numeration system becomes a morphism and an erasing
coding (ans_presentation), and erasure removal and trimming reshape such a
pair without changing its word.  The spectral radius of an incidence matrix
is described exactly, as an integer or a quadratic minimal polynomial,
from the integer characteristic polynomial with Sturm-sequence root
isolation and exact divisor tests.  Multiplicative independence is decided
exactly, by integer division, for integers and for a quadratic against an
integer; two quadratics are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt

import numpy as np

from . import series
from .automata import MSD_FIRST, breadth_first, letter_dtype, product

__all__ = [
    "Morphism",
    "fixed_point_prefix",
    "morphic_word_prefix",
    "ans_presentation",
    "image_table",
    "apply",
    "remove_erasure",
    "trim_to_prolongable",
    "ExactEigenvalue",
    "pf_eigenvalue",
    "multiplicatively_independent",
    "run_lengths",
    "equivalent_up_to_renaming",
]


class Morphism:
    """A map A* -> B* given by the images of single letters."""

    __slots__ = ("rules",)

    def __init__(self, rules):
        self.rules = {a: tuple(w) for a, w in rules.items()}

    @property
    def alphabet(self):
        return tuple(self.rules)

    def __repr__(self):
        body = ", ".join(f"{a}->{''.join(map(str, w))}" for a, w in self.rules.items())
        return f"Morphism({body})"

    def incidence_matrix(self):
        """Square int64 count array: entry (a, b) is the number of a's in image(b)."""
        letters = self.alphabet
        return np.array([[self.rules[b].count(a) for b in letters] for a in letters], dtype=np.int64)


# -- fixed points ---------------------------------------------------------


def image_table(m, domain, codomain):
    """m's images of the letters of domain, as one flat array of indices into codomain.

    Returns (flat, start, length): the image of domain[i] is
    flat[start[i] : start[i] + length[i]].  flat has the smallest unsigned
    dtype that holds the indices, so words built from it take a byte a
    letter on alphabets of at most 256 letters.
    """
    index = {b: j for j, b in enumerate(codomain)}
    try:
        images = [[index[b] for b in m.rules[a]] for a in domain]
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]!r} outside the alphabet") from None
    length = np.array([len(w) for w in images], dtype=np.int64)
    flat = np.array([j for w in images for j in w], dtype=np.min_scalar_type(max(len(codomain) - 1, 0)))
    return flat, np.cumsum(length) - length, length


def apply(table, word):
    """The image of a word of letter indices, as letter indices: one gather."""
    flat, start, length = table
    lengths = length[word]
    ends = np.cumsum(lengths)
    # letter i of the image of word[j] is flat[start[word[j]] + i], at position ends[j] - lengths[j] + i
    index = np.repeat(start[word] - ends + lengths, lengths)
    index += np.arange(len(index))
    return flat[index]


def _fixed_point(m, seed, n):
    """First n letters of the fixed point of m from seed, as indices into m.alphabet.

    With m(w[:done]) = w, m(w) = w + m(w[done:]): each pass expands, in one
    gather, only letters not yet expanded, and no more of them than n asks
    for.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if any(len(w) == 0 for w in m.rules.values()):
        raise ValueError("fixed points need a non-erasing morphism")
    image = m.rules.get(seed)
    if image is None:
        raise ValueError(f"seed {seed!r} not in the alphabet")
    if len(image) < 2 or image[0] != seed:
        raise ValueError(f"morphism is not prolongable on {seed!r}")
    letters = m.alphabet
    table = image_table(m, letters, letters)
    w = apply(table, [letters.index(seed)])
    done = 1
    while len(w) < n:
        todo = w[done:]
        # the fewest letters whose images, of lengths table[2], fill the n - len(w) still wanted
        todo = todo[: np.searchsorted(np.cumsum(table[2][todo]), n - len(w)) + 1]
        w = np.concatenate([w, apply(table, todo)])
        done += len(todo)
    return w[:n]


def _letters(alphabet):
    """The alphabet as an array that words of letter indices index into."""
    letters = np.array(alphabet)
    return letters.astype(letter_dtype(alphabet)) if letters.dtype.kind == "i" else letters


def fixed_point_prefix(m, seed, n):
    """First n letters of the fixed point of m starting with seed, as a numpy array."""
    return _letters(m.alphabet)[_fixed_point(m, seed, n)]


def morphic_word_prefix(f, g, seed, n):
    """First n letters of g(f^omega(seed)), as a numpy array; g may erase letters.

    The fixed-point prefix that g codes doubles until its image holds n
    letters.  If g erases all but finitely many letters of the fixed point
    and fewer than n are left, ValueError is raised; MemoryError is raised
    before a prefix whose pass would need more than physical memory.
    """
    codomain = tuple(dict.fromkeys(b for w in g.rules.values() for b in w))
    coding = image_table(g, f.alphabet, codomain)
    erased = _erased_closure(f, g)
    in_closed = np.array([a in erased for a in f.alphabet])
    lengths = np.array([len(f.rules[a]) for a in f.alphabet])
    size = n
    while True:
        # at its peak a pass holds about 25 bytes a letter of the prefix (measured)
        need = 32 * size
        series.require_memory(need, f"{n} letters need a fixed-point prefix of {size} letters, about {need >> 20} MB")
        prefix = _fixed_point(f, seed, size)
        word = apply(coding, prefix)
        if len(word) >= n:
            return _letters(codomain)[word[:n]]
        # the images of the first j letters lie in the prefix; f is non-erasing and
        # prolongable, so each later letter comes from prefix[j:] or a later one,
        # and once prefix[j:] lies in E, so does every letter after it
        j = np.searchsorted(np.cumsum(lengths[prefix]), size, side="right")
        if in_closed[prefix[j:]].all():
            raise ValueError(f"the coding keeps {len(word)} letters of the fixed point, fewer than {n}")
        size *= 2


def ans_presentation(language, m):
    """A morphism f, prolongable on "z", and a coding g such that
    g(f^omega(z)) lists m's outputs on the words of language in genealogical
    order, the values that evaluate_range(m, n, language) returns.

    The other letters are the states q0, q1, ... of product(language, m),
    numbered breadth first: z -> z q0, and q -> its successors on the
    alphabet's letters in order.  Then f^(j+1)(z) = f^j(z) f^j(q0), and
    f^j(q0) lists the states reached on the words of length j in
    lexicographic order; g keeps m's output at the accepted ones and erases
    the rest (Rigo, TCS 244, 2000).  Both automata read MSD-first.
    """
    pairs = product(language, m)
    if pairs.read_order != MSD_FIRST:
        raise ValueError("words of a numeration system are read MSD-first")
    names = [f"q{s}" for s in range(pairs.num_states)]
    f = {"z": ("z", "q0")} | {q: tuple(names[t] for t in row) for q, row in zip(names, pairs.table.tolist())}
    g = {"z": ()} | {q: (out,) if accepted else () for q, (accepted, out) in zip(names, pairs.outputs)}
    return Morphism(f), Morphism(g)


# -- erasure removal ------------------------------------------------------


def _erased_closure(f, g):
    """E, the largest set of letters that g erases and f maps into E*: the
    erased letters, shrunk until closed."""
    erased = {a for a in f.alphabet if not g.rules[a]}
    while (closed := {a for a in erased if erased.issuperset(f.rules[a])}) != erased:
        erased = closed
    return erased


def remove_erasure(f, g):
    """Drop from f and g the letters of E, the largest set of letters that g
    erases and f maps into E*; the generated word is unchanged.

    Let p be the morphism that erases the letters of E, and f_E, g_E the
    results.  p f = f_E p, since f maps a letter of E into E*, and
    g = g_E p, since g erases E.  So g(f^j(s)) = g_E(f_E^j(p(s))) for every
    seed s and j: the coded iterates, and so the coded fixed point, agree.
    """
    erased = _erased_closure(f, g)
    keep = [a for a in f.alphabet if a not in erased]
    f_eps = Morphism({a: tuple(x for x in f.rules[a] if x not in erased) for a in keep})
    g_eps = Morphism({a: g.rules[a] for a in keep})
    return f_eps, g_eps


def trim_to_prolongable(f, g, seed):
    """Drop a seed letter that the coding erases and that only bootstraps.

    Requires f(seed) = seed w for a single letter w that never occurs in
    other images (and the seed itself occurs nowhere else).  The returned
    morphism f' maps w to w f(w) and agrees with f on every other letter.
    The fixed point of f is seed w f(w) f^2(w) ...; no letter of f^j(w),
    j >= 1, is w, so f'^j(w) = w f(w) ... f^j(w), and the fixed point of f'
    from w is that of f without its seed, which the coding erases.
    """
    image = f.rules.get(seed)
    if image is None:
        raise ValueError(f"seed {seed!r} not in the alphabet")
    if g.rules.get(seed, None) != ():
        raise ValueError("the seed must be erased by the coding")
    if len(image) < 2 or image[0] != seed:
        raise ValueError(f"morphism is not prolongable on {seed!r}")
    tail = image[1:]
    if len(tail) != 1:
        raise ValueError("construction inapplicable: seed image must be seed plus one letter")
    new_seed = tail[0]
    rest = [a for a in f.alphabet if a != seed]
    for a in rest:
        if seed in f.rules[a]:
            raise ValueError("construction inapplicable: seed occurs in another image")
        if new_seed in f.rules[a]:
            raise ValueError("construction inapplicable: new seed occurs in an image")
    rules = {a: f.rules[a] for a in rest}
    rules[new_seed] = (new_seed,) + f.rules[new_seed]
    f_prime = Morphism(rules)
    g_prime = Morphism({a: g.rules[a] for a in rest})
    return f_prime, g_prime, new_seed


# -- exact spectral radius -------------------------------------------------


@dataclass(frozen=True)
class ExactEigenvalue:
    """Exact description of an algebraic eigenvalue.

    kind is "integer" (value stored in n) or "quadratic" (monic minimal
    polynomial x^2 + b x + c stored as (c, b)).
    """

    kind: str
    data: tuple

    @classmethod
    def integer(cls, n):
        return cls("integer", (int(n),))

    @classmethod
    def quadratic(cls, c, b):
        return cls("quadratic", (int(c), int(b)))

    def __str__(self):
        if self.kind == "integer":
            return str(self.data[0])
        c, b = self.data
        out = "x^2"
        if b:
            out += f" {'+' if b > 0 else '-'} {abs(b)}x" if abs(b) != 1 else f" {'+' if b > 0 else '-'} x"
        if c:
            out += f" {'+' if c > 0 else '-'} {abs(c)}"
        return out


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p):
    return _poly_trim([i * c for i, c in enumerate(p)][1:] or [Fraction(0)])


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = Fraction(a[-1], 1) / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return _poly_trim(q), _poly_trim(a or [Fraction(0)])


def _poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sturm_chain(p):
    chain = [_poly_trim(list(p)), _poly_deriv(p)]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = _poly_divmod(chain[-2], chain[-1])
        r = [-c for c in r]
        if len(r) == 1 and r[0] == 0:
            break
        chain.append(r)
    return chain


def _sign_variations(chain, x):
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _char_poly(matrix):
    """det(xI - M) as integer coefficients, lowest degree first.

    Leverrier-Faddeev via Newton's identities on exact power sums, in
    Python ints: k e_k is an integer combination of the power sums, and the
    elementary symmetric functions e_k of an integer matrix are integers,
    so each division by k is exact; a remainder raises ArithmeticError.
    """
    m = np.asarray(matrix, dtype=object)
    n = m.shape[0]
    power = np.eye(n, dtype=object)
    s = []
    for _ in range(n):
        power = power @ m
        s.append(int(np.trace(power)))
    e = [1]
    for k in range(1, n + 1):
        e_k, rem = divmod(sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)), k)
        if rem:
            raise ArithmeticError(f"Newton's identities give e_{k} with remainder {rem} mod {k}")
        e.append(e_k)
    return [(-1) ** k * e[k] for k in range(n, -1, -1)]  # e_k gives the x^(n-k) coefficient


def pf_eigenvalue(matrix):
    """Exact tag of the spectral radius r of a square nonnegative integer matrix.

    By Perron-Frobenius r is an eigenvalue, the largest real root of
    det(xI - M).  It is 0 for a nilpotent matrix and at least 1 otherwise,
    since some power of the matrix then has a positive diagonal entry.
    Sturm counts on the squarefree part isolate r in (lo, hi], with
    0 < lo < hi < lo + 1, as the only root there.  r is an integer exactly
    when floor(hi) is a root in the interval, and a quadratic irrational
    exactly when an irreducible x^2 + b x + c divides the polynomial and
    changes sign on the interval: then c = r r' divides its lowest nonzero
    coefficient (Gauss's lemma), and b lies strictly between -(lo + c/lo)
    and -(hi + c/hi).  Any other r gives None.  No rounding is involved.
    """
    arr = np.asarray(matrix, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if (arr < 0).any():
        raise ValueError("matrix must be nonnegative")
    poly = _char_poly(arr)
    while poly[0] == 0:  # the root 0 is r only for a nilpotent matrix, whose polynomial is x^n
        poly = poly[1:]
    if len(poly) == 1:
        return ExactEigenvalue.integer(0)
    chain = _sturm_chain([Fraction(c) for c in poly])
    if len(chain[-1]) > 1:  # repeated roots: count on the squarefree part instead
        chain = _sturm_chain(_poly_divmod(chain[0], chain[-1])[0])
    bound = 1 + max(map(abs, poly[:-1]))  # Cauchy: every root has |x| < bound
    lo, hi = Fraction(0), Fraction(bound)
    while hi - lo >= 1 or _sign_variations(chain, lo) - _sign_variations(chain, hi) > 1:
        mid = (lo + hi) / 2
        if _sign_variations(chain, mid) - _sign_variations(chain, hi) > 0:
            lo = mid  # a root, and so the largest, lies above mid
        else:
            hi = mid
    k = floor(hi)  # the one integer that (lo, hi] can hold
    if lo < k and _poly_eval(poly, k) == 0:
        return ExactEigenvalue.integer(k)
    low = abs(poly[0])
    for d in (d for d in range(1, isqrt(low) + 1) if low % d == 0):
        for c in {d, -d, low // d, -(low // d)}:
            # x^2 + b x + c > 0 at x > 0 exactly when b > -(x + c/x); |b| = |r + r'| < 2 bound
            ends = sorted(-(x + c / x) for x in (lo, hi))
            for b in range(max(floor(ends[0]) + 1, 1 - 2 * bound), min(ceil(ends[1]), 2 * bound)):
                # a sign change leaves b^2 - 4c positive; a square would split the quadratic
                if isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c and _poly_divmod(poly, [c, b, 1])[1] == [0]:
                    return ExactEigenvalue.quadratic(c, b)
    return None


# -- multiplicative independence -------------------------------------------


def _integers_dependent(a, b):
    """a, b >= 1 are dependent exactly when both are powers of one integer.

    If they are, the smaller divides the larger and the quotient is again
    such a power, as in the subtractive Euclidean algorithm on exponents.
    """
    if a == 1 or b == 1:
        return True
    while a != b:
        a, b = max(a, b), min(a, b)
        if a % b:
            return False
        a //= b
    return True


def multiplicatively_independent(alpha, beta):
    """True when alpha^k = beta^l forces k = l = 0.

    Descriptors are exact: positive ints, or ExactEigenvalue tags.  Two
    integers are dependent exactly when both are powers of one integer,
    which repeated division decides.  A quadratic irrational with nonzero
    trace has no rational power, so it is independent from every integer
    other than 1; a trace-zero quadratic sqrt(m) reduces to the integer m.
    Two quadratic descriptors raise ValueError.
    """
    return not _dependent(_normalize(alpha), _normalize(beta))


def _normalize(x):
    if isinstance(x, (int, np.integer)):
        if x < 1:
            raise ValueError("integer descriptors must be positive")
        return ExactEigenvalue.integer(int(x))
    if isinstance(x, ExactEigenvalue):
        return x
    raise ValueError(f"unsupported descriptor {x!r}")


def _dependent(x, y):
    if x.kind == "integer" and y.kind == "integer":
        return _integers_dependent(x.data[0], y.data[0])
    if x.kind == "integer":
        return _dependent(y, x)
    if y.kind != "integer":
        raise ValueError("two quadratic descriptors are unsupported")
    c, b = x.data
    n = y.data[0]
    if b != 0:
        # nonzero trace: conjugation would force the root to equal
        # its conjugate if any power were rational
        return n == 1
    m = -c  # root is sqrt(m)
    return m <= 1 or _integers_dependent(m, n)


# -- word utilities ---------------------------------------------------------


def run_lengths(values):
    """Lengths of the maximal blocks of equal consecutive values, as an int64 array.

    One scan over the whole input; the last block may be cut off by the end
    of the input.
    """
    values = np.asarray(values)
    if not len(values):
        return np.zeros(0, dtype=np.int64)
    ends = np.flatnonzero(values[1:] != values[:-1]) + 1
    return np.diff(np.concatenate([[0], ends, [len(values)]]))


def equivalent_up_to_renaming(f1, g1, seed1, f2, g2, seed2):
    """Letter bijection carrying (f1, g1, seed1) onto (f2, g2, seed2), or None.

    A renaming maps the i-th letter of each image to the i-th letter of its
    image, so it maps the breadth-first letter orders from the seeds onto
    each other, as Dfao.canonical numbers states.  The two orders are
    zipped and every image and coding output checked; coding outputs must
    match exactly.  A letter not reached from its seed gives None.
    """
    order1, order2 = breadth_first(seed1, f1.rules), breadth_first(seed2, f2.rules)
    if not len(order1) == len(f1.alphabet) == len(order2) == len(f2.alphabet):
        return None
    mapping = dict(zip(order1, order2))
    for a, b in mapping.items():
        if f2.rules[b] != tuple(mapping[c] for c in f1.rules[a]) or g1.rules.get(a) != g2.rules.get(b):
            return None
    return mapping
