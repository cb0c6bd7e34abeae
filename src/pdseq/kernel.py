"""k-kernels: the automaton of a closed kernel, and exact rank profiles.

The k-kernel of a sequence is the family (s(k^i n + r)) for all scales i
and residues r < k^i.  Subsequences are keyed by a fingerprint (their
first H terms); every claimed equality is re-verified on a 4H window before
it is trusted, because fingerprint collisions would silently corrupt the
automaton.  compute_kernel closes the kernel under these merges and returns
its LSD-first automaton.  rank_profile reports, per scale, the number of
distinct fingerprints and the exact rank of the fingerprint matrix over the
rationals.

That rank starts from one prime q: every scale's new fingerprints are
reduced, a few rows at a time, against one row-echelon basis mod q, in
float64 matmuls kept exact by H*(q-1)^2 < 2^53.  Rows are fed as their first
differences (the first term kept), a unimodular column operation: no rank
and no dependency changes, and the entries of growing sequences stay small.
Rank mod q never exceeds the rank over Q, so R_d, the rank mod q after
scale d, is a lower bound, exact outright when it equals the row or column
count.

Otherwise a certificate whose size follows the actual dependencies closes
it.  The echelon records the rows S that raised the rank and their pivot
columns P.  Each other row m solves c S[:, P] = m[P] modulo q and one more
prime; CRT and rational reconstruction (von zur Gathen-Gerhard, Modern
Computer Algebra, ch. 5) turn c into an integer row Y and a denominator L,
and L m = Y S is checked exactly, in float64 while its bound stays below
2^53 and in int64 below 2^63, with Y on rows of S from m's scale or
earlier.  Then every row lies in the rational span of the chosen rows up to
its scale, and R_d is the rank.  Only the exact check proves anything: when
reconstruction fails, or the check fails or would leave int64, further
primes are taken one at a time, each with one echelon that is dropped
before the next, and R_d = max_q rank mod q is certified once the product
of the primes exceeds the Hadamard bound (sqrt(R+1) X)^(R+1) on every
(R+1)-minor, X = max |entry|, since a nonzero minor cannot be divisible by
a larger product.  That fallback uses the same primes, in the same order,
as a loop without the certificate.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import isqrt

import numpy as np

from .automata import Dfao
from .series import _is_prime, _rref_mod_p

__all__ = [
    "HorizonError",
    "compute_kernel",
    "rank_profile",
]

class HorizonError(ValueError):
    """Fingerprints collided at H but diverged on the verification window."""


def _check_arguments(k, depth, horizon):
    if k < 2:
        raise ValueError("base must be at least 2")
    if depth < 0:
        raise ValueError("depth must be at least 0")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")


def _kernel_rows(prefix, k, depth, width):
    """Row r is the kernel subsequence s(k^depth j + r), j < width, for r < k^depth.

    One fetch of k^depth * width terms, reshaped: a view, not a copy.
    """
    step = k**depth
    return np.asarray(prefix(step * width), dtype=np.int64).reshape(width, step).T


def compute_kernel(prefix, k, max_depth=10, horizon=512):
    """The DFAO of the k-kernel (reads digits LSD-first), or None if it does not close.

    Breadth-first closure under fingerprint merging.  Fingerprints are the
    first `horizon` subsequence terms; a merge is accepted only if the two
    subsequences also agree on 4*horizon terms (HorizonError otherwise).
    Merges are applied in ascending residue order.  Each state is a kernel
    subsequence, labelled "(scale,residue)"; after reading the base-k digits
    of n from the least significant end the automaton sits at the
    subsequence (scale, n), so a state outputs the subsequence's first term.
    None means the kernel did not close within max_depth scales.  prefix(n)
    returns the first n terms of the sequence.
    """
    _check_arguments(k, max_depth, horizon)
    H = int(horizon)

    # state 0 is the whole sequence
    window = _kernel_rows(prefix, k, 0, 4 * H)[0]
    labels, windows, table = ["(0,0)"], [window], [[-1] * k]
    state_by_key = {window[:H].tobytes(): 0}
    level = [(0, 0)]  # (residue, state) of the states first found at this scale

    for scale in range(max_depth):
        rows = _kernel_rows(prefix, k, scale + 1, 4 * H)
        children = sorted((residue + digit * k**scale, state, digit) for residue, state in level for digit in range(k))
        level = []
        for r, state, digit in children:
            window = rows[r]
            key = window[:H].tobytes()
            target = state_by_key.get(key)
            if target is None:
                target = len(labels)
                labels.append(f"({scale + 1},{r})")
                windows.append(window)
                table.append([-1] * k)
                state_by_key[key] = target
                level.append((r, target))
            elif not np.array_equal(windows[target], window):
                raise HorizonError(
                    f"classes {labels[target]} and ({scale + 1},{r}) "
                    f"agree on {H} terms but diverge within {4 * H}"
                )
            table[state][digit] = target
        if not level:
            return Dfao(labels, 0, range(k), table, [int(w[0]) for w in windows], "lsd")
    return None


# -- rank profiling ---------------------------------------------------------

_CHUNK = 32  # rows reduced, or checked, at a time


def _mod(x, q):
    """x mod q in [0, q), in place, for integer-valued float64 x with |x| + q <= 2^53; returns x.

    x - q floor(x * (1/q)): the quotient is off by at most one either way,
    one correction each way fixes it, and every step is exact below |x| + q.
    The callers' sums stay below ncols (q-1)^2 < 2^53 - (2q-1) (_prime_sequence).
    """
    quotient = x * (1 / q)
    np.floor(quotient, out=quotient)
    quotient *= q
    x -= quotient
    np.add(x, q, out=x, where=x < 0)
    np.subtract(x, q, out=x, where=x >= q)
    return x


def _peak(rows):
    """max |entry| of an int64 array, as a Python int (0 if empty)."""
    return max(int(rows.max(initial=0)), -int(rows.min(initial=0)))


def _slices(block):
    """(start, rows) for block's rows, _CHUNK at a time, as views."""
    for lo in range(0, len(block), _CHUNK):
        yield lo, block[lo : lo + _CHUNK]


class _PrimeEchelon:
    """Reduced row-echelon basis modulo one prime q, held in float64.

    Entries stay in [0, q).  A product against the basis sums at most ncols
    terms below (q-1)^2, which the caller keeps under 2^53, so every matmul
    here is exact.  The basis rows live in the first rank rows of a buffer
    that doubles when it fills, and are updated in place, _CHUNK rows at a
    time.
    """

    def __init__(self, q, ncols):
        self.q = q
        self.rows = np.zeros((0, ncols))
        self.pivots = []

    def add_block(self, rows):
        """Add a few integer rows (int64, any sign); return the new rank mod q
        and the rows, as indices into rows, that raised it.

        The rows are reduced against the basis and row-reduced among
        themselves once; the new pivots are then cleared in the old rows.
        """
        q, rank = self.q, len(self.pivots)
        basis = self.rows[:rank]
        b = np.mod(rows, q).astype(np.float64)
        if rank:
            b -= b[:, self.pivots] @ basis
            _mod(b, q)
        live = np.flatnonzero(b.any(axis=1))
        if not len(live):
            return rank, []
        # from here b holds only the new basis rows
        b, pivots, found = _rref_mod_p(b[live], q)
        b = b.astype(np.float64)
        # the new rows vanish at the old pivots; clear the new pivots in the old rows
        for lo in range(0, rank, _CHUNK):
            part = basis[lo : lo + _CHUNK]
            part -= part[:, pivots] @ b
            _mod(part, q)
        grown = rank + len(b)
        if grown > len(self.rows):
            rows = np.empty((max(grown, 2 * rank), self.rows.shape[1]))
            rows[:rank] = basis
            self.rows = rows
        self.rows[rank:grown] = b
        self.pivots += pivots
        return grown, live[found].tolist()


def _prime_sequence(ncols):
    """The primes q, largest first, with ncols * (q-1)^2 < 2^53 (and q^2 < 2^53).

    Under that bound a float64 product of a row block against an echelon
    basis of at most ncols rows is exact.
    """
    q = isqrt((2**53 - 1) // max(ncols, 1))
    while q >= 2:
        if _is_prime(q):
            yield q
        q -= 1
    raise ValueError(f"too few primes to certify a rank with {ncols} columns")


def _echelon_ranks(blocks, q, ncols):
    """One prime's pass: the rank mod q after each block, the rows that raised
    it (per block, as indices into the block) and their pivot columns.

    A single echelon takes every block, _CHUNK rows at a time, and is
    dropped on return.
    """
    ech = _PrimeEchelon(q, ncols)
    rank, ranks, chosen = 0, [], []
    for block in blocks:
        found = []
        for lo, part in _slices(block):
            rank, raised = ech.add_block(part)
            found += [lo + i for i in raised]
        ranks.append(rank)
        chosen.append(found)
    return ranks, chosen, ech.pivots


def _rational_reconstruction(a, m):
    """(num, den), entrywise num/den = a mod m with |num|, den <= sqrt(m/2); den = 0 where none is found.

    The extended Euclidean algorithm on (m, a), stopped at the first
    remainder below the bound (von zur Gathen-Gerhard, Modern Computer
    Algebra, section 5.10), on every entry at once; an entry leaves the
    working arrays when it stops.  Remainders and cofactors stay below
    m < 2^63.
    """
    bound = isqrt(m // 2)
    num, den = a.astype(np.int64), np.ones(a.shape, dtype=np.int64)
    live = np.flatnonzero(num > bound)
    r0, r1 = np.full(len(live), m, dtype=np.int64), num.flat[live]
    t0, t1 = np.zeros_like(r1), np.ones_like(r1)
    while len(live):
        quotient = r0 // r1
        r0, r1 = r1, r0 - quotient * r1
        t0, t1 = t1, t0 - quotient * t1
        done = r1 <= bound
        num.flat[live[done]] = np.where(t1[done] < 0, -r1[done], r1[done])
        den.flat[live[done]] = np.where(np.abs(t1[done]) <= bound, np.abs(t1[done]), 0)
        live, r0, r1, t0, t1 = (x[~done] for x in (live, r0, r1, t0, t1))
    return num, den


def _dependency(part, inverses, primes, count):
    """(Y, L) with L > 0 and Y zero past column count, from the rows' coordinates modulo two primes, or None.

    The coordinates c of a row m solve c S[:, P] = m[P] modulo each prime;
    they are combined by CRT, each entry is reconstructed as a fraction,
    and L is the lcm of a row's denominators, so that Y = L c is integral.
    The caller checks L m = Y S exactly: nothing here needs to be right.
    """
    q1, q2 = primes
    c1, c2 = (_mod(np.mod(part, q).astype(np.float64) @ inv, q).astype(np.int64) for q, inv in zip(primes, inverses))
    num, den = _rational_reconstruction(c1 + q1 * ((c2 - c1) * pow(q1, -1, q2) % q2), q1 * q2)
    if not den.all():
        return None
    # |num| <= sqrt(m/2), so Y = num * (L / den) stays below 2^62 while L does below limit
    limit = 2**62 // (isqrt(q1 * q2 // 2) + 1)
    lcm = np.ones(len(part), dtype=np.int64)
    for column in den.T:
        lcm = lcm // np.gcd(lcm, column) * column
        if lcm.max(initial=1) > limit:
            return None
    y = num * (lcm[:, None] // den)
    # a verified Y with a later row would have that coefficient divisible by q1,
    # beyond two primes' bound; with more primes only this test would exclude it
    return None if y[:, count:].any() else (y[:, :count], lcm)


def _verify(y, lcm, part, basis, peak):
    """Whether lcm[i] * part[i] == y[i] @ basis exactly, for every row i.

    Both sides and every partial sum are below bound = (max ||y_i||_1 +
    lcm_i) * peak, peak >= max |entry| of part and basis, rounded up: the
    product is taken in float64 below 2^53, in int64 below 2^63, and a larger
    bound is refused, which leaves the rank to the Hadamard fallback.
    """
    # the float64 sum of a row's |y| is within a factor 1 + 2^-40 of the exact one
    bound = float((np.abs(y).sum(axis=1, dtype=np.float64) + lcm).max(initial=0)) * peak * (1 + 2**-32)
    if bound < 2**53:
        y, basis = y.astype(np.float64), basis.astype(np.float64)
    return bound < 2**63 and np.array_equal(y @ basis, part * lcm[:, None])


def _certified(blocks, chosen, pivots, primes):
    """Whether every row is a rational combination of the chosen rows of its block or earlier blocks.

    S holds the chosen rows, which are independent modulo the first prime,
    and P their pivot columns there, so S[:, P] is invertible modulo it.
    If every other row m has some L m = Y S with L > 0 and Y using only
    chosen rows of m's block or earlier, the rank after block d is exactly
    the number of rows chosen up to d.  Blocks are walked in place, _CHUNK
    rows at a time; only S is copied.
    """
    basis = np.concatenate([block[rows] for block, rows in zip(blocks, chosen)])
    counts = accumulate(map(len, chosen))
    # [S[:, P] | I] has rank size; S[:, P] is invertible mod q when every
    # pivot falls in the left half, and then the right half, in pivot order,
    # is its inverse
    size = len(pivots)
    augmented = np.zeros((size, 2 * size), dtype=np.int64)
    augmented[:, :size] = basis[:, pivots]
    augmented[:, size:].flat[:: size + 1] = 1
    inverses = []
    for q in primes:
        reduced, columns, _ = _rref_mod_p(augmented, q)
        if max(columns, default=0) >= size:
            return False
        inverses.append(reduced[np.argsort(columns), size:].astype(np.float64))
        del reduced  # before the next prime's reduction
    del augmented
    peak = _peak(basis)
    for block, rows, count in zip(blocks, chosen, counts):
        others = np.ones(len(block), dtype=bool)
        others[rows] = False
        for lo, part in _slices(block):
            part = part[others[lo : lo + _CHUNK]]
            if not len(part):
                continue
            dependency = _dependency(part[:, pivots], inverses, primes, count)
            if dependency is None or not _verify(*dependency, part, basis[:count], max(peak, _peak(part))):
                return False
    return True


def _exact_ranks(blocks, ncols):
    """The rank over Q of the rows of blocks[0..d] (int64, ncols columns), for each d.

    Every row is first overwritten, in place, by its first differences (the
    first entry kept), when every entry is below 2^62 so that no difference
    leaves int64.  The first prime's ranks are certified by full rank or by _certified, from one
    more prime; failing both, primes are added until the Hadamard bound
    certifies every depth, as the module docstring describes.
    """
    sizes = list(accumulate(len(block) for block in blocks))
    raw = list(map(_peak, blocks))
    if max(raw, default=0) < 2**62:
        for block in blocks:
            for _, part in _slices(block):
                part[:, 1:] = np.diff(part, axis=1)
    primes = _prime_sequence(ncols)
    first = next(primes)
    ranks, chosen, pivots = _echelon_ranks(blocks, first, ncols)
    if all(r == min(size, ncols) for r, size in zip(ranks, sizes)):
        return ranks
    second = next(primes)
    if _certified(blocks, chosen, pivots, (first, second)):
        return ranks
    # rank mod q is the same for the rows and for their differences: the smaller bound holds
    peaks = list(map(min, accumulate(raw, max), accumulate(map(_peak, blocks), max)))
    modulus, primes = first, chain([second], primes)
    # the Hadamard bound squared, to stay in integers
    while not all(
        r == min(size, ncols) or modulus**2 > (r + 1) ** (r + 1) * peak ** (2 * r + 2)
        for r, size, peak in zip(ranks, sizes, peaks)
    ):
        q = next(primes)
        ranks = [max(r, s) for r, s in zip(ranks, _echelon_ranks(blocks, q, ncols)[0])]
        modulus *= q
    return ranks


def rank_profile(prefix, k, max_depth=8, horizon=512):
    """Distinct-class counts and exact rational ranks per kernel depth.

    Returns {"k", "horizon", "depths"}, with a row {"depth", "class_count",
    "rank", "representatives"} per depth 0..max_depth; a representative
    {"scale", "residue", "fingerprint"} holds the first 32 terms of a class
    new at that depth.  Counts and ranks are cumulative over scales
    0..depth.  A rank that stops growing is consistent with k-regularity at
    this horizon; unbounded growth is evidence against it.  No claim is made
    beyond the horizon: fingerprints here are horizon-relative by design.
    prefix(n) returns the first n terms of the sequence.
    """
    _check_arguments(k, max_depth, horizon)
    H = int(horizon)
    seen = set()
    blocks, depths = [], []
    for depth in range(max_depth + 1):
        new_rows, new_reps = [], []
        for r, fp in enumerate(_kernel_rows(prefix, k, depth, H)):
            key = fp.tobytes()
            if key in seen:
                continue
            seen.add(key)
            new_rows.append(fp)
            new_reps.append({"scale": depth, "residue": r, "fingerprint": fp[:32].tolist()})
        blocks.append(np.array(new_rows, dtype=np.int64).reshape(len(new_rows), H))
        depths.append({"depth": depth, "class_count": len(seen), "representatives": new_reps})
    for d, rank in zip(depths, _exact_ranks(blocks, H)):
        d["rank"] = rank
    return {"k": k, "horizon": H, "depths": depths}
