"""k-kernels: the automaton of a closed kernel, and exact rank profiles.

The k-kernel of a sequence is the family (s(k^i n + r)) for all scales i
and residues r < k^i.  Subsequences are keyed by a fingerprint (their
first H terms); every claimed equality is re-verified on a 4H window before
it is trusted, because fingerprint collisions would silently corrupt the
automaton.  compute_kernel closes the kernel under these merges and returns
its LSD-first automaton.  rank_profile reports, per scale, the number of
distinct fingerprints and the exact rank of the fingerprint matrix over the
rationals.

That rank is multi-modular.  One prime q at a time, every scale's new
fingerprints are reduced, a few rows at a time, against one row-echelon
basis mod q, in float64 matmuls kept exact by H*(q-1)^2 < 2^53; the basis
is dropped before the next prime.  Rank mod q never exceeds the rank over
Q, so R = max_q rank mod q is a lower bound.  It is certified exact when it
equals the row or column count, or when the product of the primes exceeds
the Hadamard bound (sqrt(R+1) X)^(R+1) on every (R+1)-minor, X = max
|entry|, since a nonzero minor cannot be divisible by a larger product.  A
further prime is taken only while some scale is not certified.
"""

from __future__ import annotations

from itertools import accumulate
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

_CHUNK = 32  # rows reduced at a time against one prime's basis


def _mod(x, q):
    """x mod q in [0, q) for integer-valued float64 |x| < 2^53.

    Taken in int64, because the cost of np.fmod grows with the quotient.
    """
    return (x.astype(np.int64) % q).astype(np.float64)


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
        """Add a few integer rows (int64, any sign) and return the new rank mod q.

        The rows are reduced against the basis and row-reduced among
        themselves once; the new pivots are then cleared in the old rows.
        """
        q, rank = self.q, len(self.pivots)
        basis = self.rows[:rank]
        b = np.mod(rows, q).astype(np.float64)
        if rank:
            b = _mod(b - b[:, self.pivots] @ basis, q)
        b = b[b.any(axis=1)]
        if not len(b):
            return rank
        new, pivots = _rref_mod_p(b, q)
        # the new rows vanish at the old pivots; clear the new pivots in the old rows
        cleared = new.astype(np.float64)
        for lo in range(0, rank, _CHUNK):
            part = basis[lo : lo + _CHUNK]
            part[:] = _mod(part - part[:, pivots] @ cleared, q)
        grown = rank + len(new)
        if grown > len(self.rows):
            rows = np.empty((max(grown, 2 * rank), self.rows.shape[1]))
            rows[:rank] = basis
            self.rows = rows
        self.rows[rank:grown] = new
        self.pivots += pivots
        return grown


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


def _exact_ranks(blocks, ncols):
    """The rank over Q of the rows of blocks[0..d] (int64, ncols columns), for each d.

    One prime at a time, a single echelon takes every block, _CHUNK rows at
    a time, and is then dropped.  Primes are added until the rank after
    every block is certified, as the module docstring describes.
    """
    sizes = list(accumulate(len(block) for block in blocks))
    peaks = list(accumulate((max(int(b.max(initial=0)), -int(b.min(initial=0))) for b in blocks), max))
    ranks = [0] * len(blocks)
    modulus = 1
    primes = _prime_sequence(ncols)
    # the Hadamard bound squared, to stay in integers
    while not all(
        (modulus > 1 and r == min(size, ncols)) or modulus**2 > (r + 1) ** (r + 1) * peak ** (2 * r + 2)
        for r, size, peak in zip(ranks, sizes, peaks)
    ):
        ech = _PrimeEchelon(next(primes), ncols)
        rank = 0
        for d, block in enumerate(blocks):
            for lo in range(0, len(block), _CHUNK):
                rank = ech.add_block(block[lo : lo + _CHUNK])
            ranks[d] = max(ranks[d], rank)
        modulus *= ech.q
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
            new_reps.append({"scale": depth, "residue": r, "fingerprint": [int(x) for x in fp[:32]]})
        blocks.append(np.array(new_rows, dtype=np.int64).reshape(len(new_rows), H))
        depths.append({"depth": depth, "class_count": len(seen), "representatives": new_reps})
    for d, rank in zip(depths, _exact_ranks(blocks, H)):
        d["rank"] = rank
    return {"k": k, "horizon": H, "depths": depths}
