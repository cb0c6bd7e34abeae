"""Truncated formal power series over a prime field F_p.

Coefficients live in [0, p) and every series carries an explicit precision
horizon N: a series is its first N coefficients, index n holding the
coefficient of X^n.  All operations are exact, for every prime p with
(p - 1)^2 < 2^63, the FFT products under the assumption stated below; larger
moduli are refused.

Products run through `_Multiplier`: a direct int64 convolution for short
operands and a `numpy.fft` convolution otherwise.  The direct path is used
only while no sum of products can leave int64.  The FFT path is used only
while Percival's bound on the rounding error of a radix-2 complex FFT
(Math. Comp. 72, 2003), ||a||_2 ||b||_2 ((1+e)^3k (1+e*sqrt5)^(3k+1)
(1+e)^3k - 1) < 1/2 with e = 2^-53, holds for k = log2(transform length) + 1.
Percival proves it for k = log2(length) and a radix-2 complex transform; that
one level more covers numpy's real-data transform is an assumption, checked
by the tests on all-(p-1) operands but not proven.  Operands enter as signed
residues in [-p//2, p//2].  Where they fail either test, the multiplier b
alone is split into two balanced base-2^s limbs, and the two products of the
whole operand with them are recombined mod p: with b's transforms cached, a
product then costs one forward and two inverse transforms, against one and
one on whole residues.  Where that split fails too, both operands are split
and the three limb products recombined (two forward and three inverse
transforms); past that the product raises `ValueError`.  Float64 matrix
products (`_matmul_mod`) are guarded by 2^53 and split both operands.

`compose(a, b)` uses Bernstein's characteristic-p recursion (J. Symbolic
Comput. 26, 1998) when a cost model in p, N and the length of a (up to its
last nonzero coefficient) favours it, and Brent-Kung's blockwise method
otherwise: for large p, and for a of low degree, whose blocks Brent-Kung
sizes by the square root of that length rather than of N.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .exact import check_modulus, nullspace_mod_p

__all__ = [
    "TruncatedSeries",
    "PolyRelation",
    "compose",
    "reversion",
    "relation_residual",
    "power_relation_search",
    "compose_bytes",
    "physical_memory",
    "require_memory",
]

_EPS = 2.0**-53
# compose's Bernstein recursion stops at this length and composes by one
# matrix product with a table of powers of b
_BERNSTEIN_BASE = 64
# Brent-Kung evaluates its blocks on this many columns of the power table at once
_COLUMNS = 4096
# bytes per coefficient of compose's products and of reversion's series
_FFT_BYTES = 256


def _fft_error(nfft):
    """Percival's bound on the rounding error of a radix-2 complex FFT
    convolution, per unit of ||a||_2 ||b||_2, with twiddle factors within e
    of exact, counted for one level more than log2(nfft).

    The extra level is a margin for numpy's real-data transform, which is not
    the transform Percival analyses; that it suffices is assumed, not proven.
    """
    k = nfft.bit_length()
    return math.expm1(
        6 * k * math.log1p(_EPS) + (3 * k + 1) * math.log1p(math.sqrt(5) * _EPS)
    )


def _limb_split(p, exact):
    """The limb width s for products of residues in [-p//2, p//2] that pass
    the test `exact`: 0 for whole residues, else the width of the balanced
    split x = lo + 2^s hi, |lo|, |hi| <= 2^(s-1), applied to both operands.
    Raises `ValueError` when neither passes.

    `exact(c)` says whether a product is exact when every term-by-term
    product is at most c in magnitude; the middle limb product sums two
    such products.
    """
    h = p // 2
    if exact(h * h):
        return 0
    s = (h.bit_length() + 2) // 2
    half = 1 << (s - 1)
    if exact(2 * half * half):
        return s
    raise ValueError(f"no exact product path for p = {p} at this size")


def _limbs(x, p, s):
    """The residues x in [0, p) as signed residues in [-p//2, p//2], split into
    balanced base-2^s limbs when s > 0."""
    x = x - p * (x > p // 2)
    if not s:
        return (x,)
    half = 1 << (s - 1)
    lo = ((x + half) & ((1 << s) - 1)) - half
    return (lo, (x - lo) >> s)


def _limb_product(xs, ys, t, product):
    """P_t = sum_{i+j=t} x_i y_j of limb lists xs, ys, so that
    x*y = sum_t 2^(s t) P_t, t < len(xs) + len(ys) - 1."""
    pairs = [(i, t - i) for i in range(len(xs)) if 0 <= t - i < len(ys)]
    total = product(xs[pairs[0][0]], ys[pairs[0][1]])
    for i, j in pairs[1:]:
        total += product(xs[i], ys[j])
    return total


def _rounded(c):
    """The integer-valued float array c as int64, rounded in place."""
    return np.rint(c, out=c).astype(np.int64)


def _recombine(product, count, p, s):
    """sum_{t < count} 2^(s t) P_t mod p, where product(t) makes the exact
    int64 array P_t.  Each P_t is made, reduced and released before the
    next, so one of them is alive at a time."""
    out = product(0) % p
    w = pow(2, s, p)
    scale = 1
    for t in range(1, count):
        scale = scale * w % p
        out += product(t) % p * scale
        out %= p
    return out


def _plan(la, lb, p, batched=False):
    """(nfft, sa, sb) for a product of operands a and b of la and lb
    coefficients: nfft is the FFT length, 0 for the direct path, and sa, sb
    the limb widths of a and b.  Past whole residues b alone is split into
    the limbs of `_limb_split` where each product of whole a with one limb,
    terms of at most (p//2) 2^(s-1), is exact; else both are split, and the
    product is refused exactly where `_limb_split` refuses.

    The FFT runs when it is cheaper than la*lb direct multiplications, or for
    a batch of rows.  Raises `ValueError` when no exact path exists.
    """
    if batched or la * lb > 64 * (la + lb):
        nfft = 1 << (la + lb - 2).bit_length()
        bound = math.sqrt(la * lb) * _fft_error(nfft)
        exact = lambda c: c * bound < 0.5
    else:
        nfft, exact = 0, lambda c: min(la, lb) * c < 1 << 63
    s = _limb_split(p, exact)
    if s and exact((p // 2) << (s - 1)):
        return nfft, 0, s
    return nfft, s, s


class _Multiplier:
    """Multiplication by one fixed reduced series b, truncated to out_len,
    of operands of at most `la` coefficients.

    The path and the limb widths are fixed here by `_plan`.  The transforms
    of b's limbs are computed once, so a product with the same b costs one
    forward transform of each of a's limbs and one inverse per limb product:
    1 + 1 on whole residues, 1 + 2 where b alone is split, 2 + 3 where both
    are.  With `batched` the operands are 2-D, one series per row.
    """

    def __init__(self, b, p, out_len, la=None, batched=False):
        b = np.asarray(b[:out_len], dtype=np.int64)
        la = out_len if la is None else min(la, out_len)
        self.p, self.out_len = p, out_len
        self.nfft, self.sa, self.sb = _plan(la, len(b), p, batched)
        self.b = _limbs(b, p, self.sb)
        if self.nfft:
            self.b = [np.fft.rfft(x, self.nfft) for x in self.b]

    def __call__(self, a):
        a = np.asarray(a, dtype=np.int64)[..., : self.out_len]
        out = np.zeros(a.shape[:-1] + (self.out_len,), dtype=np.int64)
        if a.shape[-1] == 0 or len(self.b[0]) == 0:
            return out
        xs = _limbs(a, self.p, self.sa)
        if self.nfft:
            spectra = [np.fft.rfft(x, self.nfft) for x in xs]

            def product(t):
                c = _limb_product(spectra, self.b, t, np.multiply)
                return _rounded(np.fft.irfft(c, self.nfft)[..., : self.out_len])
        else:

            def product(t):
                return _limb_product(xs, self.b, t, lambda x, y: np.convolve(x, y)[: self.out_len])

        c = _recombine(product, len(xs) + len(self.b) - 1, self.p, self.sb)
        out[..., : c.shape[-1]] = c
        return out


def _conv_mod(a, b, p, out_len):
    """Exact convolution of two reduced-mod-p int arrays, truncated to out_len."""
    return _Multiplier(b, p, out_len, la=len(a))(a)


def _matmul_mod(x, y, p):
    """x @ y mod p for reduced int arrays, by float64 products exact below 2^53."""
    s = _limb_split(p, lambda c: x.shape[-1] * c < 1 << 53)
    xs = [v.astype(np.float64) for v in _limbs(x, p, s)]
    ys = [v.astype(np.float64) for v in _limbs(y, p, s)]
    return _recombine(lambda t: _rounded(_limb_product(xs, ys, t, np.matmul)), len(xs) + len(ys) - 1, p, s)


class TruncatedSeries:
    """A power series over F_p known up to X^(N-1)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        check_modulus(p)
        try:
            c = np.asarray(coeffs, dtype=np.int64) % p
        except OverflowError:  # exact integers past int64 reduce before the conversion
            c = (np.asarray(coeffs, dtype=object) % p).astype(np.int64)
        if c.ndim != 1 or len(c) < 1:
            raise ValueError("a series needs at least one coefficient")
        c.setflags(write=False)
        self.p = p
        self.coeffs = c

    @property
    def precision(self):
        return len(self.coeffs)

    @property
    def length(self):
        """The number of coefficients up to the last nonzero one, at least 1."""
        return _length(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.p == other.p
            and self.precision == other.precision
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        head = ",".join(str(int(c)) for c in self.coeffs[:12])
        tail = ",..." if self.precision > 12 else ""
        return f"TruncatedSeries(p={self.p}, N={self.precision}, [{head}{tail}])"

    def is_zero(self):
        return not self.coeffs.any()

    def frobenius(self, i=1):
        """The series with X replaced by X^(p^i), truncated to this precision."""
        q = self.p**i
        n = self.precision
        c = np.zeros(n, dtype=np.int64)
        src = self.coeffs[: (n - 1) // q + 1]
        c[: len(src) * q : q] = src
        return TruncatedSeries(self.p, c)

    def derivative(self):
        n = self.precision
        c = np.zeros(n, dtype=np.int64)
        if n > 1:
            k = np.arange(1, n, dtype=np.int64)
            c[:-1] = (k % self.p) * self.coeffs[1:] % self.p
        return TruncatedSeries(self.p, c)

    def to_json(self):
        return json.dumps({"p": self.p, "coeffs": self.coeffs.tolist()})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        # outside input: a float would truncate silently and a bool pass as an int
        if not (isinstance(data, dict) and type(data.get("p")) is int and type(data.get("coeffs")) is list
                and all(type(c) is int for c in data["coeffs"])):
            raise ValueError('a series must be a JSON object {"p": integer, "coeffs": [integer, ...]}')
        return cls(data["p"], data["coeffs"])


def _uses_bernstein(p, n, length=None):
    """Whether `compose` at precision n over F_p, of a series a with `length`
    coefficients up to its last nonzero one (default n), takes Bernstein's
    recursion.

    Bernstein costs about (p-1) log_p n products of length n, whatever a's
    length; Brent-Kung about 2 sqrt(length): m powers of b and length/m
    Horner steps, m = sqrt(length).  Up to the recursion's base length
    Brent-Kung's few short products win.
    """
    length = n if length is None else length
    return n > _BERNSTEIN_BASE and (p - 1) * math.log(n, p) < 2 * math.sqrt(length)


def compose_bytes(p, n, length=None):
    """About the peak bytes that `compose`, and so `reversion`, allocates at
    precision n over F_p for a series a with `length` coefficients up to its
    last nonzero one (default n).  Truncating a never lengthens it, so the
    input's length bounds every Newton step of `reversion`.

    The products' transforms, limbs and rows, and reversion's own series,
    take _FFT_BYTES per coefficient: that bounds what numpy allocated for
    Bernstein at p <= 31 and n = 2^12..2^17, and for Brent-Kung beyond its
    tables at p = 65521 and 1000003, n = 2^10..2^16 and length <= 65,
    counted by tracemalloc.  Brent-Kung also holds the m + 1 powers
    b^0 .. b^m, m = isqrt(length-1) + 1, and ceil(length/m) block values,
    each n int64 coefficients: O(n sqrt(length)).  Evaluating the blocks on
    a range of min(n, _COLUMNS) columns adds `_matmul_mod`'s copies of that
    range.  They peak while it recombines: 3 block rows per block (the
    float64 product, its int64 copy and the sum), or 9 with a limb split
    (3 products, their copies, and the sum with two temporaries).  The limb
    products are made and released one at a time, so 9 is an upper bound:
    by tracemalloc dense compose at p = 2^31-1, n = 4096 allocates 3647
    bytes per coefficient against 5896 counted here.  The signed, limb and
    float64 copies of the powers, made before, take less.
    """
    length = n if length is None else length
    if _uses_bernstein(p, n, length):
        return _FFT_BYTES * n
    m = math.isqrt(length - 1) + 1
    nblocks = -(-length // m)
    copies = 9 if _limb_split(p, lambda c: m * c < 1 << 53) else 3
    return 8 * n * (m + 1 + nblocks) + 8 * min(n, _COLUMNS) * nblocks * copies + _FFT_BYTES * n


def physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_memory(need, what):
    """Raise MemoryError, '<what>, more than the ... MB of physical memory',
    when need bytes exceed physical memory; pass where the platform does not say."""
    memory = physical_memory()
    if memory is not None and need > memory:
        raise MemoryError(f"{what}, more than the {memory >> 20} MB of physical memory")


def _length(ac):
    """The index of the last nonzero coefficient plus one, at least 1."""
    nonzero = np.flatnonzero(ac)
    return int(nonzero[-1]) + 1 if len(nonzero) else 1


def compose(a, b):
    """a(b(X)) truncated to the smaller precision; b must have no constant term.

    Bernstein's recursion or Brent-Kung's blockwise method, whichever
    `_uses_bernstein` picks from p, the precision and the length of a up to
    its last nonzero coefficient; both are exact and give the same series.
    Brent-Kung's cost follows that length, so a polynomial a of low degree
    costs a few products of b's length.
    """
    if a.p != b.p:
        raise ValueError(f"modulus mismatch: {a.p} != {b.p}")
    if int(b.coeffs[0]) != 0:
        raise ValueError("composition needs a series with zero constant term")
    p = a.p
    n = min(a.precision, b.precision)
    ac = a.coeffs[:n]
    bc = b.coeffs[:n]
    if n == 1:
        return TruncatedSeries(p, ac[:1])
    length = _length(ac)
    if _uses_bernstein(p, n, length):
        return TruncatedSeries(p, _compose_bernstein(ac, bc, p, n))
    return TruncatedSeries(p, _compose_brent_kung(ac[:length], bc, p, n))


def _powers(bc, p, count, n):
    """The rows b^0 .. b^(count-1) mod X^n."""
    table = np.zeros((count, n), dtype=np.int64)
    table[0, 0] = 1
    if count > 1:
        table[1] = bc[:n]
    if count > 2:
        by_b = _Multiplier(bc, p, n)
        for j in range(2, count):
            table[j] = by_b(table[j - 1])
    return table


def _compose_bernstein(ac, bc, p, n):
    """a(b) mod X^n over F_p from b(X)^p = b(X^p) (Bernstein, JSC 26, 1998).

    With a = sum_{r<p} X^r A_r(X^p), a(b) = sum_r b^r (A_r(b))(X^p), and
    A_r(b) is needed only mod X^ceil(n/p).  Splitting d times gives p^d
    subproblems of length ceil(n/p^d), row j composing a[j::p^d] with the
    same b.  They are solved together: the bottom level by one matrix product
    with the powers of b, and each level above by p - 1 Horner steps, each a
    product of all rows with b.
    """
    sizes = [n]
    while sizes[-1] > _BERNSTEIN_BASE:
        sizes.append(-(-sizes[-1] // p))
    depth = len(sizes) - 1
    m = sizes[-1]
    flat = np.zeros(p**depth * m, dtype=np.int64)
    flat[:n] = ac
    out = _matmul_mod(flat.reshape(m, p**depth).T, _powers(bc, p, m, m), p)
    for d in range(depth - 1, -1, -1):
        size = sizes[d]
        by_b = _Multiplier(bc, p, size, batched=True)
        # children[r, j] is row j + p^d r, the part A_r of parent row j
        children = out.reshape(p, p**d, sizes[d + 1])
        acc = np.zeros((p**d, size), dtype=np.int64)
        acc[:, ::p] = children[p - 1]
        for r in range(p - 2, -1, -1):
            acc = by_b(acc)
            acc[:, ::p] = (acc[:, ::p] + children[r]) % p
        out = acc
    return out[0]


def _compose_brent_kung(ac, bc, p, n):
    """a(b) mod X^n blockwise (Brent-Kung) for the len(ac) <= n coefficients
    ac of a: split them into sqrt(len(ac))-sized blocks, evaluate every block
    at b by matrix products against the dense powers b^0 .. b^m, then
    combine the blocks by Horner's rule in b^m.
    """
    length = len(ac)
    # block size, m*m >= length; compose_bytes counts the tables
    m = math.isqrt(length - 1) + 1
    nblocks = -(-length // m)

    bpow = _powers(bc, p, m + 1, n)

    coeff = np.zeros(nblocks * m, dtype=np.int64).reshape(nblocks, m)
    coeff.flat[:length] = ac
    # a range of columns at a time, so that no signed or float64 copy of the
    # whole table is held beside it
    blocks = np.empty((nblocks, n), dtype=np.int64)
    for lo in range(0, n, _COLUMNS):
        blocks[:, lo : lo + _COLUMNS] = _matmul_mod(coeff, bpow[:m, lo : lo + _COLUMNS], p)

    by_bm = _Multiplier(bpow[m], p, n)
    out = blocks[nblocks - 1]
    for i in range(nblocks - 2, -1, -1):
        out = (by_bm(out) + blocks[i]) % p
    return out


def reversion(a):
    """Compositional inverse: the series V with a(V(X)) = X = V(a(X)).

    Newton iteration; each step doubles the number of correct coefficients,
    from m to 2m, by one composition and one product.
    The update V <- V - (a(V) - X)/a'(V) is valid in characteristic p because
    the error term of the Hasse-Taylor expansion is divisible by the square
    of the current error.  With e = a(V) - X of order at least m, the chain
    rule a'(V) V' = 1 + e' and m >= 2 give

        1/a'(V) = V'/(1 + e') = V' (1 - m e_m X^(m-1))  mod X^m,

    so no series is inverted: V has degree below m, V' mod X^m ends in 0, and
    the correction only sets its coefficient of X^(m-1) to -m e_m v_1.
    """
    p, n = a.p, a.precision
    if int(a.coeffs[0]) != 0:
        raise ValueError("reversion needs a zero constant term")
    if n == 1:
        return TruncatedSeries(p, [0])
    a1 = int(a.coeffs[1])
    if a1 % p == 0:
        raise ValueError("reversion needs an invertible linear term")

    v = np.zeros(2, dtype=np.int64)
    v[1] = pow(a1, p - 2, p)
    while len(v) < n:
        m = len(v)
        m2 = min(2 * m, n)
        vpad = np.zeros(m2, dtype=np.int64)
        vpad[:m] = v
        vs = TruncatedSeries(p, vpad)
        e = compose(TruncatedSeries(p, a.coeffs[:m2]), vs).coeffs.copy()
        e[1] = (e[1] - 1) % p
        if e[:m].any():
            raise AssertionError("Newton invariant broken: low-order residual")
        w = vs.derivative().coeffs[:m].copy()
        w[m - 1] = -m * int(e[m]) * int(v[1]) % p
        # e vanishes below X^m, so the correction e w is X^m e[m:] w
        vpad[m:] = -_conv_mod(e[m:], w, p, m2 - m) % p
        v = vpad
    return TruncatedSeries(p, v)


@dataclass(frozen=True)
class PolyRelation:
    """A polynomial relation sum_i c_i(X) * a^(pattern_i) = 0 over F_p.

    Each term is a pair (coeffs, pattern): coeffs is the coefficient
    polynomial lowest degree first, and pattern is either ("pow", e) for the
    plain power a(X)^e or ("frob", i) for the substituted series a(X^(p^i)).
    The pattern ("pow", 0) contributes c(X) itself, which is how
    inhomogeneous terms such as a bare X are expressed.
    """

    p: int
    terms: tuple

    def __post_init__(self):
        check_modulus(self.p)
        cleaned = []
        seen = set()
        for coeffs, pattern in self.terms:
            kind, e = pattern
            if kind not in ("pow", "frob") or e < 0:
                raise ValueError(f"bad exponent pattern {pattern!r}")
            if pattern in seen:
                raise ValueError(f"duplicate exponent pattern {pattern!r}")
            seen.add(pattern)
            cleaned.append((tuple(int(c) % self.p for c in coeffs), (kind, int(e))))
        if not any(any(c) for c, _ in cleaned):
            raise ValueError("a relation needs at least one nonzero coefficient")
        object.__setattr__(self, "terms", tuple(cleaned))

    def to_json(self):
        return json.dumps(
            {
                "p": self.p,
                "terms": [
                    {"pattern": list(pat), "coeffs": list(coeffs)}
                    for coeffs, pat in self.terms
                ],
            }
        )


def relation_residual(rel, a):
    """Left-hand side of the relation evaluated at a, as a truncated series;
    its plain powers a^e are the rows of one `_powers` table."""
    if rel.p != a.p:
        raise ValueError(f"modulus mismatch: {rel.p} != {a.p}")
    p, n = a.p, a.precision
    top = max((e for _, (kind, e) in rel.terms if kind == "pow"), default=0)
    powers = _powers(a.coeffs, p, 1 + top, n)
    total = np.zeros(n, dtype=np.int64)
    for coeffs, (kind, e) in rel.terms:
        poly = np.asarray(coeffs, dtype=np.int64)
        if not poly.any():
            continue
        term = powers[e] if kind == "pow" else a.frobenius(e).coeffs
        total = (total + _conv_mod(poly, term, p, n)) % p
    return TruncatedSeries(p, total)


def power_relation_search(a, max_frobenius_depth, max_coeff_degree):
    """Search for c_0(X) a + c_1(X) a(X^p) + ... + h(X) = 0 with bounded degrees.

    Sets up the Hermite-Pade style linear system on the unknown coefficient
    polynomials (degree <= max_coeff_degree) of a(X^(p^i)) for
    i <= max_frobenius_depth plus one inhomogeneous polynomial block, solves
    it on the first half of the known coefficients, keeps the solutions that
    also hold on the full precision, and returns the structurally smallest.
    Returns None when no relation survives; raises when the precision cannot
    support the number of unknowns without risking a spurious nullspace.
    """
    p, n = a.p, a.precision
    depth = int(max_frobenius_depth)
    deg = int(max_coeff_degree)
    if depth < 0 or deg < 0:
        raise ValueError("bounds must be nonnegative")
    nseries = (depth + 1) * (deg + 1)
    ncols = nseries + (deg + 1)
    if n < 4 * ncols:
        raise ValueError(
            f"precision {n} too small for {ncols} unknowns; "
            f"need at least {4 * ncols} to guard against spurious relations"
        )
    n_find = n // 2

    columns = np.zeros((ncols, n), dtype=np.int64)
    patterns = []
    col = 0
    for i in range(depth + 1):
        fr = a.frobenius(i).coeffs
        for j in range(deg + 1):
            columns[col, j:] = fr[: n - j]
            patterns.append(("frob", i, j))
            col += 1
    for j in range(deg + 1):
        columns[col, j] = 1
        patterns.append(("pow", 0, j))
        col += 1

    system = columns[:, :n_find].T % p
    basis = nullspace_mod_p(system, p)
    if not basis:
        return None

    # verification at full precision: keep only nullspace combinations that
    # also annihilate the second half of the coefficients
    full = columns.T % p
    reduced = _matmul_mod(full, np.column_stack(basis), p)
    basis2 = nullspace_mod_p(reduced, p)
    if not basis2:
        return None
    # each survivor is basis . c with full @ basis @ c = 0: it annihilates
    # the whole system, so its relation has a zero residual
    survivors = _matmul_mod(np.column_stack(basis2).T, np.stack(basis), p)

    def selection_key(v):
        # prefer the structurally smallest relation: fewest nonzero
        # coefficients, then lowest combined coefficient degree
        support = int(np.count_nonzero(v))
        degrees = {}
        for value, (kind, i, j) in zip(v, patterns):
            if int(value) % p:
                degrees[(kind, i)] = max(degrees.get((kind, i), 0), j)
        return (support, sum(degrees.values()), [int(x) for x in v])

    rel = _vector_to_relation(min(survivors, key=selection_key), patterns, p, deg)
    if not relation_residual(rel, a).is_zero():
        raise AssertionError("relation search invariant broken: nonzero residual")
    return rel


def _vector_to_relation(v, patterns, p, deg):
    # v is scaled so that its first nonzero entry is 1: patterns ascend, so
    # that entry leads the first term
    values = [int(x) % p for x in v]
    inverse = pow(next(x for x in values if x), p - 2, p)
    by_pattern = {}
    for value, (kind, i, j) in zip(values, patterns):
        if value:
            by_pattern.setdefault((kind, i), [0] * (deg + 1))[j] = value * inverse % p
    return PolyRelation(p, tuple((tuple(np.trim_zeros(c, "b")), key) for key, c in sorted(by_pattern.items())))
