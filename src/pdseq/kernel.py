"""k-kernels: subsequence classes, DFAO synthesis, and rank profiling.

The k-kernel of a sequence is the family (s(k^i n + r)) for all scales i
and residues r < k^i.  Classes are keyed by a fingerprint (the first H
subsequence terms); every claimed class equality is re-verified on a 4H
window before it is trusted, because fingerprint collisions would silently
corrupt a synthesized automaton.  Rank profiles report, per scale, the
number of distinct fingerprints and the exact rank of the fingerprint
matrix over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .automata import Dfao

__all__ = [
    "KernelClass",
    "KernelAnalysis",
    "RankProfile",
    "HorizonError",
    "compute_kernel",
    "synthesize_dfao",
    "rank_profile",
]

_CERT_PRIME = 2_147_483_647  # products of two residues fit in int64


class HorizonError(ValueError):
    """Fingerprints collided at H but diverged on the verification window."""


def _prefix_provider(seq):
    if callable(seq):
        return seq
    if hasattr(seq, "prefix"):
        return seq.prefix
    raise TypeError("sequence source must be callable or expose .prefix(n)")


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


def compute_kernel(seq, k, max_depth=10, horizon=512):
    """Breadth-first closure of the k-kernel under fingerprint merging.

    Fingerprints are the first `horizon` subsequence terms; a merge is
    accepted only if the two subsequences also agree on 4*horizon terms
    (HorizonError otherwise).  Merges are applied in ascending residue order.
    """
    prefix = _prefix_provider(seq)
    if k < 2:
        raise ValueError("base must be at least 2")
    H = int(horizon)

    classes = []
    class_by_key = {}
    transitions = {}

    def level_arrays(scale):
        step = k**scale
        data = prefix(step * 4 * H)
        return np.asarray(data, dtype=np.int64), step

    # class 0 is the whole sequence
    data0, _ = level_arrays(0)
    fp0 = data0[:H]
    classes.append(KernelClass(0, 0, tuple(int(x) for x in fp0)))
    class_by_key[fp0.tobytes()] = 0
    pending = [(0, 0, 0)]  # (scale, residue, class index)

    while pending:
        scale = pending[0][0]
        level = [item for item in pending if item[0] == scale]
        pending = [item for item in pending if item[0] != scale]
        if scale + 1 > max_depth:
            return KernelAnalysis(k, H, classes, transitions, False, None)
        data, step = level_arrays(scale + 1)

        children = sorted((residue + digit * k**scale, idx, digit) for _, residue, idx in level for digit in range(k))
        for r, idx, digit in children:
            sub = data[r::step][: 4 * H]
            fp = sub[:H]
            key = fp.tobytes()
            if key in class_by_key:
                target = class_by_key[key]
                rep = classes[target]
                rep_data, rep_step = level_arrays(rep.scale)
                rep_sub = rep_data[rep.residue :: k**rep.scale][: 4 * H]
                if not np.array_equal(rep_sub[: len(sub)], sub[: len(rep_sub)]):
                    raise HorizonError(
                        f"classes ({rep.scale},{rep.residue}) and ({scale + 1},{r}) "
                        f"agree on {H} terms but diverge within {4 * H}"
                    )
            else:
                target = len(classes)
                classes.append(KernelClass(scale + 1, r, tuple(int(x) for x in fp)))
                class_by_key[key] = target
                pending.append((scale + 1, r, target))
            transitions[(idx, digit)] = target
    return KernelAnalysis(k, H, classes, transitions, True, max(c.scale for c in classes))


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
    trans = dict(analysis.transitions)
    for s in range(n):
        for c in range(k):
            if (s, c) not in trans:
                raise AssertionError("closure table incomplete")
    labels = [f"({c.scale},{c.residue})" for c in analysis.classes]
    outputs = [c.fingerprint[0] for c in analysis.classes]
    return Dfao(labels, 0, tuple(range(k)), trans, outputs, "lsd")


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


class _ExactRank:
    """Exact rational rank of a growing set of integer rows.

    Fast path: an incremental row-echelon basis modulo a large prime.  As
    long as every new row is independent mod p the rank equals the row
    count over Q as well (a nonzero minor mod p is nonzero over Q).  The
    first time a row becomes dependent mod p the tracker switches to an
    exact integer echelon (fraction-free with gcd normalization), which is
    cheap precisely when the true rank is small.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.mode = "certificate"
        self.mod_basis = []  # rows reduced mod p, leading entry first nonzero
        self.mod_pivots = []
        self.exact_basis = []  # (pivot col, list[int])

    def add(self, row):
        self.rows.append(np.asarray(row, dtype=np.int64))
        if self.mode == "certificate":
            if self._mod_add(self.rows[-1]):
                return
            # dependency appeared: recompute exactly from scratch, once
            self.mode = "exact"
            self.exact_basis = []
            for r in self.rows:
                self._exact_add(r)
        else:
            self._exact_add(self.rows[-1])

    def rank(self):
        if self.mode == "certificate":
            return len(self.mod_basis)
        return len(self.exact_basis)

    def _mod_add(self, row):
        p = _CERT_PRIME
        r = row % p
        for vec, piv in zip(self.mod_basis, self.mod_pivots):
            if r[piv]:
                r = (r - r[piv] * vec) % p
        nz = np.nonzero(r)[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        r = r * pow(int(r[piv]), p - 2, p) % p
        self.mod_basis.append(r)
        self.mod_pivots.append(piv)
        return True

    def _exact_add(self, row):
        # rows are reduced in insertion order: each basis row is zero at the
        # pivots of everything inserted before it, so one pass is complete
        r = [int(x) for x in row]
        for piv, vec in self.exact_basis:
            if r[piv]:
                a, b = vec[piv], r[piv]
                r = [x * a - y * b for x, y in zip(r, vec)]
                g = 0
                for x in r:
                    g = gcd(g, x)
                    if g == 1:
                        break
                if g > 1:
                    r = [x // g for x in r]
        for j, x in enumerate(r):
            if x:
                self.exact_basis.append((j, r))
                return True
        return False


def rank_profile(seq, k, max_depth=8, horizon=512):
    """Distinct-class counts and exact rational ranks per kernel depth.

    Counts and ranks are cumulative over scales 0..depth.  A rank that
    stops growing is consistent with k-regularity at this horizon;
    unbounded growth is evidence against it.  No claim is made beyond the
    horizon: fingerprints here are horizon-relative by design.
    """
    prefix = _prefix_provider(seq)
    H = int(horizon)
    seen = set()
    tracker = _ExactRank(H)
    depths = []
    for depth in range(max_depth + 1):
        step = k**depth
        data = np.asarray(prefix(step * H), dtype=np.int64)
        new_reps = []
        for r in range(step):
            fp = data[r::step][:H]
            key = fp.tobytes()
            if key in seen:
                continue
            seen.add(key)
            tracker.add(fp)
            new_reps.append((depth, r, [int(x) for x in fp[:32]]))
        depths.append(
            {
                "depth": depth,
                "class_count": len(seen),
                "rank": tracker.rank(),
                "new_representatives": new_reps,
            }
        )
    return RankProfile(k, H, depths)
