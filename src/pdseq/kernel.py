"""k-kernels: the automaton of a closed kernel, and exact rank profiles.

The k-kernel of a sequence is the family (s(k^i n + r)) for all scales i
and residues r < k^i.  Subsequences are keyed by a fingerprint (their
first H terms); every claimed equality is re-verified on a 4H window before
it is trusted, because fingerprint collisions would silently corrupt the
automaton.  compute_kernel closes the kernel under these merges and returns
its LSD-first automaton.  rank_profile reports, per scale, the number of
distinct fingerprints and the exact rank of the fingerprint matrix over the
rationals (exact.rational_ranks).
"""

from __future__ import annotations

import numpy as np

from .automata import Dfao
from .exact import rational_ranks

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


def rank_profile(prefix, k, max_depth=8, horizon=512):
    """Distinct-class counts and exact rational ranks per kernel depth.

    Returns {"k", "horizon", "depths"}, with a row {"depth", "class_count",
    "rank", "representatives"} per depth 0..max_depth; a representative
    {"scale", "residue", "fingerprint"} holds the first 32 terms of a class
    new at that depth.  Counts and ranks are cumulative over scales
    0..depth.  A rank that stops growing is consistent with k-regularity at
    this horizon; unbounded growth is evidence against it.  No claim is made
    beyond the horizon: fingerprints here are horizon-relative by design.
    prefix(n) returns the first n terms of the sequence, each within int64;
    it is called once, for k^max_depth * horizon terms.
    """
    _check_arguments(k, max_depth, horizon)
    H = int(horizon)
    # one fetch for every depth, so that a cache grown on demand is not rebuilt at each depth
    terms = prefix(k**max_depth * H)
    seen = set()
    blocks, depths = [], []
    for depth in range(max_depth + 1):
        new_rows, new_reps = [], []
        for r, fp in enumerate(_kernel_rows(lambda n: terms[:n], k, depth, H)):
            key = fp.tobytes()
            if key in seen:
                continue
            seen.add(key)
            new_rows.append(fp)
            new_reps.append({"scale": depth, "residue": r, "fingerprint": fp[:32].tolist()})
        blocks.append(np.array(new_rows, dtype=np.int64).reshape(len(new_rows), H))
        depths.append({"depth": depth, "class_count": len(seen), "representatives": new_reps})
    del seen  # the blocks hold the same rows
    for d, rank in zip(depths, rational_ranks(blocks, H)):
        d["rank"] = rank
    return {"k": k, "horizon": H, "depths": depths}
