"""Recompute the saturated kernel ranks of z, o and p that the benchmark compares
the check suite's rank evidence against (verify.SATURATED_RANKS).

The rows are those of the 2-kernel rank profile: for each depth d = 0..8 and
residue r < 2^d, the fingerprint (s(2^d n + r))_{n < H}, duplicates dropped;
the rank at depth d is the rank over Q of all rows of depth <= d.  The
sequences come from verify.py and the ranks from sympy, so no part of pdseq
is involved.  Prints the table as JSON; it must equal SATURATED_RANKS.

    python3 perfbench/expected_ranks.py
"""

from __future__ import annotations

import json

from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

import verify

DEPTH = 8
HORIZONS = (512, 1024)


def rank_profile(values, horizon):
    rows, seen, ranks = [], set(), []
    for depth in range(DEPTH + 1):
        step = 2**depth
        for r in range(step):
            fp = tuple(int(v) for v in values[r::step][:horizon])
            if fp not in seen:
                seen.add(fp)
                rows.append(list(fp))
        ranks.append(DomainMatrix(rows, (len(rows), horizon), ZZ).convert_to(QQ).rank())
    return ranks


def main():
    n = 2**DEPTH * max(HORIZONS)
    sequences = {
        "z": verify.REFERENCE["z"](n),
        "o": verify.REFERENCE["o"](n),
        "p": verify.REFERENCE["p"](n),
    }
    table = {name: [rank_profile(values, h) for h in HORIZONS] for name, values in sequences.items()}
    print(json.dumps(table))
    expected = {name: [list(lo), list(hi)] for name, (lo, hi) in verify.SATURATED_RANKS.items()}
    if table != expected:
        raise SystemExit("the recomputed ranks differ from verify.SATURATED_RANKS")


if __name__ == "__main__":
    main()
