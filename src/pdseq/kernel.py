"""k-kernels: the automaton of a closed kernel, and exact rank profiles.

The k-kernel of a sequence is the family (s(k^i n + r)) for all scales i
and residues r < k^i.  Subsequences are keyed by a fingerprint (their
first H terms); every claimed equality is re-verified on a 4H window before
it is trusted, because fingerprint collisions would silently corrupt the
automaton.  compute_kernel closes the kernel under these merges and returns
its LSD-first automaton.  rank_profile reports, per scale, the number of
distinct fingerprints and the exact rank of the fingerprint matrix over the
rationals, at one or more horizons from one certificate at the largest
(exact.rank_certificate): a row's first h terms are the first h of its
first H, so a smaller horizon's classes are the distinct h-prefixes of the
H-classes, and its ranks those of the certificate's spanning rows S_d cut
to h columns, since every identity between rows survives dropping columns.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .automata import Dfao
from .exact import rank_certificate, rational_ranks

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


def _distinct(blocks, width):
    """Per block, the indices of its rows whose first width terms no earlier row, of it or an earlier block, has."""
    seen, new = set(), []
    for block in blocks:
        new.append([])
        for i, row in enumerate(block):
            key = row[:width].tobytes()
            if key not in seen:
                seen.add(key)
                new[-1].append(i)
    return new


def rank_profile(prefix, k, max_depth=8, horizon=512):
    """Distinct-class counts and exact rational ranks per kernel depth.

    Returns {"k", "horizon", "depths"}, with a row {"depth", "class_count",
    "rank", "representatives"} per depth 0..max_depth; a representative
    {"scale", "residue", "fingerprint"} holds the first 32 terms of a class
    new at that depth.  Counts and ranks are cumulative over scales
    0..depth.  A rank that stops growing is consistent with k-regularity at
    this horizon; unbounded growth is evidence against it.  No claim is made
    beyond the horizon: fingerprints here are horizon-relative by design.
    horizon may also be a sequence of horizons: then a list of reports, one
    per horizon in that order, each equal to its own profile.  prefix(n)
    returns the first n terms of the sequence, each within int64; it is
    called once, for k^max_depth * H terms, H the largest horizon.

    Every horizon comes from one class table and one rank certificate at H
    (see the module docstring): the h-classes are the distinct h-prefixes of
    the H-classes, in (depth, residue) order, and the rank at h after depth
    d is |S_d| when h reaches the certificate's width w_d, else that of S's
    rows cut to h columns (rational_ranks), taken afresh from the terms, as
    the certificate differences its rows in place.
    """
    single = np.ndim(horizon) == 0
    horizons = [horizon] if single else list(horizon)
    if not horizons:
        raise ValueError("at least one horizon is needed")
    for h in horizons:
        _check_arguments(k, max_depth, h)
    horizons = [int(h) for h in horizons]
    H = max(horizons)
    # one fetch for every depth and horizon, so that a cache grown on demand is built once
    terms = np.asarray(prefix(k**max_depth * H), dtype=np.int64)

    def fetch(n):
        return terms[:n]

    # the classes at H, per depth: the residues of the rows new there, and those rows
    tables = [_kernel_rows(fetch, k, depth, H) for depth in range(max_depth + 1)]
    residues = _distinct(tables, H)
    blocks = [table[new] for table, new in zip(tables, residues)]
    # the classes at each h: the residues whose h-prefixes are new, in (depth, residue) order
    classes = {
        h: [[res[i] for i in new] for res, new in zip(residues, _distinct(blocks, h))] if h < H else residues
        for h in horizons
    }
    chosen, widths = rank_certificate(blocks, H)  # differences the blocks in place
    reports = []
    for h in horizons:
        if max(widths) <= h:
            ranks = list(accumulate(map(len, chosen)))
        else:  # S's rows cut to h columns, taken afresh from the terms
            cut = [_kernel_rows(fetch, k, d, h)[[res[i] for i in rows]] for d, (res, rows) in enumerate(zip(residues, chosen))]
            ranks = rational_ranks(cut, h)
        depths, count = [], 0
        for depth, (new, rank) in enumerate(zip(classes[h], ranks)):
            count += len(new)
            heads = _kernel_rows(fetch, k, depth, min(h, 32))
            reps = [{"scale": depth, "residue": r, "fingerprint": heads[r].tolist()} for r in new]
            depths.append({"depth": depth, "class_count": count, "representatives": reps, "rank": rank})
        reports.append({"k": k, "horizon": h, "depths": depths})
    return reports[0] if single else reports
