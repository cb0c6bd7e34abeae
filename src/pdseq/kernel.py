"""k-kernels: subsequence classes, DFAO synthesis, and rank profiling.

The k-kernel of a sequence is the family (s(k^i n + r)) for all scales i
and residues r < k^i.  Classes are keyed by a fingerprint (the first H
subsequence terms); every claimed class equality is re-verified on a 4H
window before it is trusted, because fingerprint collisions would silently
corrupt a synthesized automaton.  Rank profiles report, per scale, the
number of distinct fingerprints and the exact rank of the fingerprint
matrix over the rationals.

That rank is multi-modular.  Each scale's new fingerprints are reduced as
one block against a row-echelon basis per prime q, in float64 matmuls kept
exact by H*(q-1)^2 < 2^53.  Rank mod q never exceeds the rank over Q, so
R = max_q rank mod q is a lower bound.  It is certified exact when it
equals the row or column count, or when the product of the primes exceeds
the Hadamard bound (sqrt(R+1) X)^(R+1) on every (R+1)-minor, X = max
|entry|, since a nonzero minor cannot be divisible by a larger product.  A
further prime is taken only when none of these holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .automata import Dfao
from .series import _is_prime, _rref_mod_p

__all__ = [
    "KernelClass",
    "KernelAnalysis",
    "RankProfile",
    "HorizonError",
    "compute_kernel",
    "synthesize_dfao",
    "rank_profile",
]

class HorizonError(ValueError):
    """Fingerprints collided at H but diverged on the verification window."""


def _check_arguments(k, horizon):
    if k < 2:
        raise ValueError("base must be at least 2")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")


@dataclass(frozen=True)
class KernelClass:
    scale: int
    residue: int
    fingerprint: tuple


@dataclass
class KernelAnalysis:
    k: int
    horizon: int
    classes: list
    transitions: dict  # (class index, digit) -> class index
    closed: bool
    closed_depth: int | None

    def class_count(self):
        return len(self.classes)


def _kernel_rows(prefix, k, depth, width):
    """Row r is the kernel subsequence s(k^depth j + r), j < width, for r < k^depth.

    One fetch of k^depth * width terms, reshaped: a view, not a copy.
    """
    step = k**depth
    return np.asarray(prefix(step * width), dtype=np.int64).reshape(width, step).T


def compute_kernel(prefix, k, max_depth=10, horizon=512):
    """Breadth-first closure of the k-kernel under fingerprint merging.

    Fingerprints are the first `horizon` subsequence terms; a merge is
    accepted only if the two subsequences also agree on 4*horizon terms
    (HorizonError otherwise), checked against the window kept for each
    class.  Merges are applied in ascending residue order.  prefix(n)
    returns the first n terms of the sequence.
    """
    _check_arguments(k, horizon)
    H = int(horizon)

    # class 0 is the whole sequence
    window = _kernel_rows(prefix, k, 0, 4 * H)[0]
    classes = [KernelClass(0, 0, tuple(window[:H].tolist()))]
    windows = [window]
    class_by_key = {window[:H].tobytes(): 0}
    transitions = {}
    level = [(0, 0)]  # (residue, class index) of the classes first found at this scale

    for scale in range(max_depth):
        rows = _kernel_rows(prefix, k, scale + 1, 4 * H)
        children = sorted((residue + digit * k**scale, idx, digit) for residue, idx in level for digit in range(k))
        level = []
        for r, idx, digit in children:
            window = rows[r]
            key = window[:H].tobytes()
            target = class_by_key.get(key)
            if target is None:
                target = len(classes)
                classes.append(KernelClass(scale + 1, r, tuple(window[:H].tolist())))
                windows.append(window)
                class_by_key[key] = target
                level.append((r, target))
            elif not np.array_equal(windows[target], window):
                rep = classes[target]
                raise HorizonError(
                    f"classes ({rep.scale},{rep.residue}) and ({scale + 1},{r}) "
                    f"agree on {H} terms but diverge within {4 * H}"
                )
            transitions[(idx, digit)] = target
        if not level:
            return KernelAnalysis(k, H, classes, transitions, True, scale)
    return KernelAnalysis(k, H, classes, transitions, False, None)


def synthesize_dfao(analysis):
    """DFAO whose states are the kernel classes (reads digits LSD-first).

    After reading the base-k digits of n from the least significant end the
    automaton sits at the class of (scale, n), whose fingerprint starts with
    s(n); the output letter is therefore the first fingerprint entry.
    """
    if not analysis.closed:
        raise ValueError("kernel is not closed; synthesis would be unsound")
    k = analysis.k
    n = len(analysis.classes)
    try:
        table = [[analysis.transitions[(s, c)] for c in range(k)] for s in range(n)]
    except KeyError:
        raise AssertionError("closure table incomplete") from None
    labels = [f"({c.scale},{c.residue})" for c in analysis.classes]
    outputs = [c.fingerprint[0] for c in analysis.classes]
    return Dfao(labels, 0, tuple(range(k)), table, outputs, "lsd")


# -- rank profiling ---------------------------------------------------------


@dataclass
class RankProfile:
    k: int
    horizon: int
    depths: list  # per depth: dict(depth, class_count, rank, new_representatives)

    def class_counts(self):
        return [d["class_count"] for d in self.depths]

    def ranks(self):
        return [d["rank"] for d in self.depths]

    def stabilized(self, key="class_count", tail=3):
        vals = [d[key] for d in self.depths]
        return len(vals) > tail and len(set(vals[-tail:])) == 1

    def to_json_dict(self):
        return {
            "k": self.k,
            "horizon": self.horizon,
            "depths": [
                {
                    "depth": d["depth"],
                    "class_count": d["class_count"],
                    "rank": d["rank"],
                    "representatives": [
                        {"scale": i, "residue": r, "fingerprint": fp}
                        for (i, r, fp) in d["new_representatives"]
                    ],
                }
                for d in self.depths
            ],
        }


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


class _ModularRank:
    """Exact rational rank of a growing set of integer rows.

    Each prime q keeps its own echelon basis; R = max_q rank mod q is a
    lower bound for the rank over Q.  It is the rank once R equals the row
    or the column count, or once the product of the primes exceeds the
    Hadamard bound (sqrt(R+1) X)^(R+1), X = max |entry|: a nonzero
    (R+1)-minor would be divisible by every prime, hence larger than that
    bound.  Primes are added only while none holds, so a full-rank matrix
    needs one.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.primes = _prime_sequence(ncols)
        self.blocks = []
        self.nrows = 0
        self.max_abs = 0
        self.echelons = []
        self.modulus = 1
        self.rank = 0

    def add_block(self, rows):
        if not len(rows):
            return
        rows = np.asarray(rows, dtype=np.int64)
        self.blocks.append(rows)
        self.nrows += len(rows)
        self.max_abs = max(self.max_abs, int(rows.max(initial=0)), -int(rows.min(initial=0)))
        for ech in self.echelons:
            self._feed(ech, rows)
        while not self._certified():
            ech = _PrimeEchelon(next(self.primes), self.ncols)
            self.echelons.append(ech)
            self.modulus *= ech.q
            for block in self.blocks:
                self._feed(ech, block)

    def _feed(self, ech, rows):
        # rank mod q does not depend on the order the rows arrive in
        for lo in range(0, len(rows), _CHUNK):
            self.rank = max(self.rank, ech.add_block(rows[lo : lo + _CHUNK]))

    def _certified(self):
        if self.echelons and self.rank == min(self.nrows, self.ncols):
            return True
        r1 = self.rank + 1
        # modulus > (sqrt(r1) X)^r1, squared to stay in integers
        return self.modulus**2 > r1**r1 * self.max_abs ** (2 * r1)


def rank_profile(prefix, k, max_depth=8, horizon=512):
    """Distinct-class counts and exact rational ranks per kernel depth.

    Counts and ranks are cumulative over scales 0..depth.  A rank that
    stops growing is consistent with k-regularity at this horizon;
    unbounded growth is evidence against it.  No claim is made beyond the
    horizon: fingerprints here are horizon-relative by design.  prefix(n)
    returns the first n terms of the sequence.
    """
    _check_arguments(k, horizon)
    H = int(horizon)
    seen = set()
    tracker = _ModularRank(H)
    depths = []
    for depth in range(max_depth + 1):
        new_rows, new_reps = [], []
        for r, fp in enumerate(_kernel_rows(prefix, k, depth, H)):
            key = fp.tobytes()
            if key in seen:
                continue
            seen.add(key)
            new_rows.append(fp)
            new_reps.append((depth, r, [int(x) for x in fp[:32]]))
        tracker.add_block(new_rows)
        depths.append(
            {
                "depth": depth,
                "class_count": len(seen),
                "rank": tracker.rank,
                "new_representatives": new_reps,
            }
        )
    return RankProfile(k, H, depths)
