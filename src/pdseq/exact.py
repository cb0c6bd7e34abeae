"""Exact linear algebra: primality, row reduction modulo a prime, and ranks over Q.

check_modulus admits the primes p with (p-1)^2 < 2^63, the moduli of the
series arithmetic; nullspace_mod_p solves the series' relation searches;
rational_ranks gives the kernel's rank profiles.  Nothing here depends on
the rest of the package.

A rank over Q starts from one prime q: every block's new rows are
reduced, a few rows at a time, against one row-echelon basis mod q, in
float64 matmuls kept exact by ncols*(q-1)^2 < 2^53.  The basis is the
identity on its pivot columns and is kept only on the free ones, a
contiguous block from which each slice's new pivots are swapped out in
place: a slice costs rank times the free columns, not times ncols.  Rows
are fed as their first differences (the first term kept), a unimodular
column operation: no rank and no dependency changes, and the entries of
growing sequences stay small.  Rank mod q never exceeds the rank over Q,
so R_d, the rank mod q after block d, is a lower bound, exact outright when
it equals the row or column count.

Otherwise the same prime's echelon proves it (Dixon's p-adic lifting,
Numer. Math. 40, 1982).  The echelon records the rows S that raised the rank
and their pivot columns P, so S[:, P] is invertible modulo q.  The
coordinates x of every other row m, m = x S, are lifted one q-adic digit at
a time, with a division by q that must be exact, and reconstructed as
fractions Y / L modulo q^j at j = 2, 4, 8, ... (von zur Gathen-Gerhard,
Modern Computer Algebra, ch. 5).  Then L m = Y S modulo q^j, and exactly
once q^j > (L + ||Y||_1) X, X = max |entry|.  When every row is so proved
with Y on rows of S from m's block or earlier, R_d is the rank.  A division
that is not exact, or a Y on a later block's row, proves q unlucky: its
rank is below the rank over Q.  The next prime's echelon is then taken,
one echelon alive at a time, and a prime is unlucky only if it divides a
nonzero minor.

R rows in more than R columns may hold full row rank on their leading R
columns alone: the rank over Q is at least the rank mod q of any set of
columns, and first differences restricted to the leading columns are still
unimodular.  The first prime's pass tries them once, when it has taken at
least _CHUNK rows and each raised the rank, so rows whose dependencies show
among the first blocks never do: a pass on the leading columns that finds
every row raising the rank makes every row count its rank, and one that
meets a row that does not stops there, and the full pass goes on.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt, lcm

import numpy as np

__all__ = ["check_modulus", "nullspace_mod_p", "rational_ranks"]

_CHUNK = 32  # rows reduced, or lifted in float64, at a time
_OBJECT_CHUNK = 2  # rows lifted at a time in Python ints, whose coordinates reach q^j


def _is_prime(p):
    """Miller-Rabin to the bases 2, 3, 5 and 7: exact below 3,215,031,751
    (Jaeschke 1993), so for every p that check_modulus admits."""
    if p < 2:
        return False
    for a in (2, 3, 5, 7):
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


def check_modulus(p):
    """Raise ValueError unless p is a prime with (p-1)^2 < 2^63."""
    # the size test comes first: _is_prime is exact only below it
    if p >= 2 and (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"modulus {p} is too large: (p-1)^2 must be below 2^63")
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _residues(x, p):
    """x mod p in [0, p), in place, for an int64 array x; returns x.

    x - p floor(x / p): a floor division by one divisor is far faster than
    np.mod, and exact, since int64 wrap-around in the product cancels in
    the difference, which is below p.
    """
    quotient = x // p
    quotient *= p
    x -= quotient
    return x


def _rref_mod_p(mat, p):
    """Reduced row-echelon form of mat over F_p, as (rows, pivots, found).

    Row i of rows has its leading 1 in column pivots[i] and a 0 in every
    other pivot column, and found[i] is the row of mat that raised the rank
    to i + 1.  Rows come in the order mat yields them, so pivots need not
    ascend.  Each step reduces only the pivot row and column mod p, so it
    subtracts at most (p-1)^2 from an entry; the whole block is reduced every
    (2^63 - p) // (p-1)^2 steps, before int64 could wrap, and at the end.
    """
    if (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"modulus {p} is too large for int64 row reduction")
    b = np.array(mat, dtype=np.int64)
    b %= p
    interval = (2**63 - p) // (p - 1) ** 2
    found, pivots = [], []
    for i, row in enumerate(b):
        row %= p
        nz = row.nonzero()[0]
        if not len(nz):
            continue
        c = int(nz[0])
        row *= pow(int(row[c]), p - 2, p)
        row %= p
        col = b[:, c] % p
        col[i] = 0
        b -= np.einsum("i,j->ij", col, row)  # np.outer would add a broadcast buffer
        found.append(i)
        pivots.append(c)
        if len(found) % interval == 0:
            b %= p
    b = b if len(found) == len(b) else b[found]
    b %= p
    return b, pivots, found


def nullspace_mod_p(mat, p):
    """Basis of the right nullspace of mat over F_p, a list of vectors (empty at full column rank)."""
    rows, pivots, _ = _rref_mod_p(mat, p)
    free = np.delete(np.arange(mat.shape[1]), pivots)
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rows[:, free].T % p
    return list(basis)


# -- ranks over Q -----------------------------------------------------------


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


def _slices(block, step):
    """(start, rows) for block's rows, step at a time, as views."""
    for lo in range(0, len(block), step):
        yield lo, block[lo : lo + step]


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


def _to_front(columns, *arrays):
    """Move the last-axis positions columns (distinct) of every array, in place, to the front, in that order.

    Only the moved columns and those they displace are copied: the
    displaced ones take the places the moved ones leave.
    """
    width = len(columns)
    moved = set(columns)
    src = np.array(columns + [j for j in range(width) if j not in moved])
    dst = np.array(list(range(width)) + [j for j in columns if j >= width])
    for array in arrays:
        array[..., dst] = array[..., src]


def _echelon_ranks(blocks, q, ncols, independent=False, leading=0):
    """One prime's pass: the rank mod q after each block, the rows that raised
    it (per block, as indices into the block) and their pivot columns P, one
    per chosen row in the order chosen, so S[:, P] is invertible mod q.
    With independent, None as soon as a row does not raise the rank.  With
    leading = R, the count of rows in all blocks, the pass asks once, before
    the first block that follows at least _CHUNK rows each of which raised
    the rank, whether the leading R columns hold rank R (a pass on them with
    independent, the last block, the largest in a kernel profile, first);
    None if they do.

    One reduced row-echelon basis modulo q, held in float64 with entries in
    [0, q), takes every block, _CHUNK rows at a time, and is dropped on
    return.  A product against the basis sums at most ncols terms below
    (q-1)^2, which the caller keeps under 2^53, so every matmul here is
    exact.  The basis is the identity on its pivot columns and is kept only
    on the others, the free columns: with the columns in the order `order`,
    pivots first, basis row i has its pivot at position i and its free
    entries in echelon[i, rank:].  Each slice is reduced against the basis
    on the free columns and row-reduced among itself once; the new pivots
    are then cleared in the old rows and swapped, in place, to the front of
    the free block.  A slice so costs rank times the free columns, and the
    basis rows live in a buffer that doubles when it fills.
    """
    order = np.arange(ncols)
    echelon, rank, taken, ranks, chosen = np.zeros((0, ncols)), 0, 0, [], []
    for block in blocks:
        if leading and rank == taken >= _CHUNK:
            if _echelon_ranks([each[:, :leading] for each in reversed(blocks)], q, leading, independent=True):
                return None
            leading = 0
        taken += len(block)
        found = []
        for lo, part in _slices(block, _CHUNK):
            # the slice in the order `order`: no index clips, and "clip" skips the buffer of "raise"
            b = _residues(part.take(order, axis=1, mode="clip"), q).astype(np.float64)
            if rank:
                b[:, rank:] -= b[:, :rank] @ echelon[:rank, rank:]
                _mod(b, q)
            free = b[:, rank:]
            live = np.flatnonzero(free.any(axis=1))
            if independent and len(live) < len(part):
                return None
            if not len(live):
                continue
            # new rows on the free columns, new pivots as positions in them
            rows, new, raised = _rref_mod_p(free[live], q)
            if independent and len(raised) < len(live):
                return None
            rows = rows.astype(np.float64)
            # the new rows vanish at the old pivots; clear the new pivots in the old rows
            for _, old in _slices(echelon[:rank, rank:], _CHUNK):
                old[...] = _mod(old - old[:, new] @ rows, q)  # contiguous: _mod is slow on strided views
            grown = rank + len(rows)
            if grown > len(echelon):
                kept = echelon[:rank, rank:]
                echelon = np.empty((max(grown, 2 * rank), ncols))
                echelon[:rank, rank:] = kept
            echelon[rank:grown, rank:] = rows
            _to_front(new, echelon[:grown, rank:], order[rank:])
            rank = grown
            found += (lo + live[raised]).tolist()
        ranks.append(rank)
        chosen.append(found)
    return ranks, chosen, order[:rank].tolist()


def _rational_reconstruction(a, m):
    """(num, den), entrywise num/den = a mod m with |num|, den <= sqrt(m/2); den = 0 where none is found.

    The extended Euclidean algorithm on (m, a), stopped at the first
    remainder below the bound (von zur Gathen-Gerhard, Modern Computer
    Algebra, section 5.10), on every entry at once, in Python ints; an
    entry leaves the working arrays when it stops.
    """
    bound = isqrt(m // 2)
    num, den = a.astype(object), np.ones(a.shape, dtype=object)
    live = np.flatnonzero(num > bound)
    r0, r1 = np.full(len(live), m, dtype=object), num.flat[live]
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


def _reconstruct(x, m, start):
    """(Y, L) per row of x (Python ints): Y = L x mod m with |Y| <= sqrt(m/2), or L = 0 where none is found.

    One running denominator per row, from start up to sqrt(m/2): a row's
    entries are scaled by its L, and only the first entry that L leaves
    above the bound is reconstructed (_rational_reconstruction), multiplying
    L by its denominator, at least 2.
    """
    bound = isqrt(m // 2)
    y, den = np.zeros_like(x), np.full(len(x), start, dtype=object)
    live = np.arange(len(x))
    while len(live):
        t = x[live] * den[live, None] % m
        t[t > m // 2] -= m
        large = np.abs(t) > bound
        wide = large.any(axis=1)
        y[live[~wide]] = t[~wide]
        if not wide.any():
            break
        t, large, live = t[wide], large[wide], live[wide]
        _, found = _rational_reconstruction(t[np.arange(len(t)), large.argmax(axis=1)] % m, m)
        den[live] *= found
        failed = (found == 0) | (den[live] > bound)
        den[live[failed]] = 0
        live = live[~failed]
    return y, den


def _lifted(blocks, chosen, pivots, q):
    """Whether every row is a rational combination of the chosen rows of its block or earlier blocks.

    A = S[:, P] is invertible modulo q.  Each lift takes the other rows R,
    first the rows m themselves, to c = R[:, P] A^-1 mod q and
    R <- (R - c S) / q, so that m - x S = q^j R after j lifts, x = sum c_i
    q^i.  False, q unlucky, when a division is not exact or a proved Y (see
    the module docstring) uses a chosen row of a later block than m's;
    ArithmeticError, which theory rules out, when a row outlives the cap.
    """
    basis = np.concatenate([block[rows] for block, rows in zip(blocks, chosen)])
    size, peak = len(pivots), max(map(_peak, blocks))
    # [A | I] reduces to [I | A^-1], rows in pivot order: A's columns hold every pivot
    augmented = np.zeros((size, 2 * size), dtype=np.int64)
    augmented[:, :size] = basis[:, pivots]
    augmented[:, size:].flat[:: size + 1] = 1
    reduced, columns, _ = _rref_mod_p(augmented, q)
    inverse = reduced[np.argsort(columns), size:].astype(np.float64)
    del augmented, reduced
    # |R| <= size X and |R - c S| < (size + 1) q X: below 2^52 float64 holds both
    # exactly, and R / q, below 2^52 / q, rounds a remainder of 1/q to no integer
    exact = (peak + 1) * q * (size + 1) < 2**52
    if exact:
        basis = basis.astype(np.float64)
    else:
        # R in Python ints; c S from signed float64 limbs of S: exact BLAS products, not Python-int terms
        width = (2**53 // (max(size, 1) * q)).bit_length() - 1
        shifts = range(0, peak.bit_length(), width)
        limbs = [(np.sign(basis) * (np.abs(basis) >> s & (1 << width) - 1)).astype(np.float64) for s in shifts]
        del basis
    # every minor is at most H = (sqrt(size + 1) X)^(size + 1) (Hadamard), so past
    # q^j > 2 H^2 each row has reconstructed, and been proved, or failed a division
    cap = 2 * (size + 1) ** (size + 1) * peak ** (2 * size + 2)
    start = 1
    for block, rows, count in zip(blocks, chosen, accumulate(map(len, chosen))):
        others = np.ones(len(block), dtype=bool)
        others[rows] = False
        for lo, part in _slices(block, _CHUNK if exact else _OBJECT_CHUNK):
            rest = part[others[lo : lo + len(part)]].astype(np.float64 if exact else object)
            x, modulus, lifts = 0, 1, 0
            while len(rest):
                c = _mod(np.mod(rest[:, pivots], q).astype(np.float64) @ inverse, q)
                digit = c.astype(np.int64).astype(object)
                if exact:
                    rest -= c @ basis
                    rest /= q
                    if not np.array_equal(np.rint(rest), rest):
                        return False
                else:
                    rest -= sum((c @ limb).astype(np.int64).astype(object) << s for s, limb in zip(shifts, limbs))
                    if (rest % q).any():
                        return False
                    rest //= q
                x = x + modulus * digit
                modulus *= q
                lifts += 1
                if lifts < 2 or lifts & (lifts - 1):
                    continue
                y, den = _reconstruct(x, modulus, start)
                proved = (den > 0) & ((den + np.abs(y).sum(axis=1)) * peak < modulus)
                y, den = y[proved], den[proved]
                if y[:, count:].any():
                    return False
                # a proved row's least denominator divides det A: later rows start from their lcm
                start = lcm(start, *(den // np.gcd(den, np.gcd.reduce(y, axis=1))))
                rest, x = rest[~proved], x[~proved]
                if len(rest) and modulus > cap:
                    raise ArithmeticError(f"rows neither proved nor refused after {lifts} lifts modulo {q}")
    return True


def rational_ranks(blocks, ncols):
    """The rank over Q of the rows of blocks[0..d] (int64, ncols columns), for each d.

    Every row is first overwritten, in place, by its first differences (the
    first entry kept), when every entry is below 2^62 so that no difference
    leaves int64.  R rows in more than R columns may be certified by the
    first prime's pass on their leading R columns: if they hold rank R,
    every row count is its rank.  Otherwise a prime's ranks are certified by
    full rank or by _lifted on its own echelon; a failed lift proves the
    prime unlucky, and the next prime's echelon is taken, one echelon alive
    at a time.
    """
    sizes = list(accumulate(len(block) for block in blocks))
    if max(map(_peak, blocks), default=0) < 2**62:
        for block in blocks:
            for _, part in _slices(block, _CHUNK):
                part[:, 1:] = np.diff(part, axis=1)
    rows = sizes[-1] if sizes else 0
    leading = rows if rows < ncols else 0
    for q in _prime_sequence(ncols):
        echelon = _echelon_ranks(blocks, q, ncols, leading=leading)
        if echelon is None:
            return sizes
        ranks, chosen, pivots = echelon
        if all(r == min(size, ncols) for r, size in zip(ranks, sizes)) or _lifted(blocks, chosen, pivots, q):
            return ranks
        leading = 0
