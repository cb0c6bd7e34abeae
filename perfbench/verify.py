"""Reference values and output checks for the benchmark, computed apart from pdseq.

Nothing here imports pdseq.  Every expected value comes from the definition
of the sequence or series, evaluated with numpy or Python integers:

* d(m) = nu_2(m+1) mod 2, t(m) = popcount(m) mod 2, and the zero/one
  positions and Thue-Morse run lengths derived from them;
* u from the recurrence u(0)=0, u(1)=1, u(2m)=0, u(4m+1)=u(2m-1),
  u(4m+3)=u(m), and the number of ones of u below N from the matching
  recursion c(N) = 1 + c((N-2)//2) + c(N//4) (N >= 2);
* series identities a(V) = X checked with Kronecker substitution on Python
  integers, and closed-form inverses.

Each ``check_*`` function returns None when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np

EXIT_CODE = "exit code"  # how every check's reason starts when the exit code is wrong


def _exit_code(rc, want=0):
    return None if rc == want else f"{EXIT_CODE} {rc}, expected {want}"


# -- sequences ----------------------------------------------------------------


def period_doubling(n):
    m = np.arange(1, n + 1, dtype=np.int64)
    low = m & -m  # 2^nu_2(m)
    return ((np.frexp(low.astype(np.float64))[1] - 1) & 1).astype(np.int64)


def thue_morse(n):
    return (np.bitwise_count(np.arange(n, dtype=np.int64)) & 1).astype(np.int64)


def tm_run_lengths(count):
    t = thue_morse(2 * count + 4)  # runs have length 1 or 2
    boundaries = np.flatnonzero(np.diff(t)) + 1
    return np.diff(np.concatenate([[0], boundaries]))[:count].astype(np.int64)


def positions(values, target, count):
    return np.flatnonzero(values == target)[:count].astype(np.int64)


def inverse_pd(n):
    """u(m) for m < n, filled in chunks whose sources all lie below the chunk."""
    u = np.zeros(max(n, 2), dtype=np.uint8)
    u[1] = 1
    lo = 2
    while lo < n:
        hi = min(2 * lo, n, lo + (1 << 22))
        m = np.arange(lo, hi, dtype=np.int64)
        r1 = m[(m & 3) == 1]
        u[r1] = u[(r1 >> 1) - 1]
        r3 = m[(m & 3) == 3]
        u[r3] = u[r3 >> 2]
        lo = hi
    return u[:n]


def inverse_pd_at(indices):
    """u at arbitrary indices, by walking the recurrence down to u(0) or u(1)."""
    cur = np.array(indices, dtype=np.int64)
    out = np.zeros(len(cur), dtype=np.uint8)
    live = np.arange(len(cur))
    while len(live):
        c = cur[live]
        out[live[c == 1]] = 1
        r1 = ((c & 3) == 1) & (c > 1)
        r3 = (c & 3) == 3
        cur[live[r1]] = (c[r1] >> 1) - 1
        cur[live[r3]] = c[r3] >> 2
        live = live[r1 | r3]
    return out


@functools.lru_cache(maxsize=None)
def ones_below(n):
    """Number of m < n with u(m) = 1: m = 1, m = 4k+1 with u(2k-1) = 1, m = 4k+3 with u(k) = 1."""
    if n < 2:
        return 0
    return 1 + ones_below((n - 2) // 2) + ones_below(n // 4)


def ones_positions(count):
    """The first `count` indices m with u(m) = 1."""
    limit = 64
    while ones_below(limit) < count:
        limit *= 2
    lo, hi = limit // 2, limit  # smallest limit holding `count` ones lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ones_below(mid) >= count else (mid, hi)
    return np.flatnonzero(inverse_pd(hi))[:count].astype(np.int64)


def zero_positions_of_u(count):
    limit = count + 64
    while limit - ones_below(limit) < count:
        limit += limit // 8
    return positions(inverse_pd(limit), 0, count)


def fibonacci_indicator(n):
    x = np.zeros(n, dtype=np.int64)
    f, g = 1, 2
    while f < n:
        x[f] = 1
        f, g = g, f + g
    return x


def delta(count):
    a = ones_positions(count + 1)
    return (np.diff(a) % 3 != 0).astype(np.int64)


REFERENCE = {
    "d": period_doubling,
    "t": thue_morse,
    "p": tm_run_lengths,
    "u": inverse_pd,
    "z": lambda n: positions(period_doubling(4 * n + 4), 0, n),
    "o": lambda n: positions(period_doubling(4 * n + 4), 1, n),
    "b": zero_positions_of_u,
    "x": fibonacci_indicator,
    "delta": delta,
}


def parse_bfile(text, count, offset):
    """The values of a b-file of `count` lines '<index> <value>' from index `offset`."""
    if text.count("\n") != count or text.count(" ") != count or (count and not text.endswith("\n")):
        raise ValueError(f"not {count} lines of the form '<index> <value>'")
    table = np.array(text.split(), dtype=np.int64).reshape(count, 2)
    if not np.array_equal(table[:, 0], np.arange(offset, offset + count)):
        raise ValueError("indices are not consecutive from the offset")
    return table[:, 1]


def check_a(values):
    """a lists exactly the first len(values) ones of u, in increasing order."""
    if len(values) == 0:
        return None
    if np.any(np.diff(values) <= 0):
        return "a is not strictly increasing"
    bad = np.flatnonzero(inverse_pd_at(values) != 1)
    if len(bad):
        return f"u(a_{int(bad[0])}) != 1"
    if ones_below(int(values[-1]) + 1) != len(values):
        return "a skips a one of u"
    return None


def check_seq(name, count, offset, rc, out):
    if rc != 0:
        return _exit_code(rc)
    try:
        values = parse_bfile(out, count, offset)
    except ValueError as exc:
        return f"b-file: {exc}"
    if name == "a":
        return check_a(values)
    expected = REFERENCE[name](count)
    bad = np.flatnonzero(values != expected)
    if len(bad):
        i = int(bad[0])
        return f"{name}({i}) = {int(values[i])}, expected {int(expected[i])}"
    return None


def check_kernel_a(depth, horizon, rc, out):
    """Ranks 2^(d+1)-1, and every reported fingerprint is a slice of a."""
    if rc != 0:
        return _exit_code(rc)
    report = json.loads(out)
    if report.get("sequence") != "a":
        return "the report is not about a"
    rows = report["depths"]
    if [r["depth"] for r in rows] != list(range(depth + 1)):
        return "depths are not 0..depth"
    ranks = [r["rank"] for r in rows]
    if ranks != [2 ** (d + 1) - 1 for d in range(depth + 1)]:
        return f"ranks {ranks}"
    a = ones_positions(2**depth * horizon)
    for row in rows:
        for rep in row["representatives"]:
            step = 2 ** rep["scale"]
            want = a[rep["residue"] :: step][: len(rep["fingerprint"])]
            if [int(v) for v in want] != rep["fingerprint"]:
                return f"fingerprint of ({rep['scale']},{rep['residue']}) differs from a"
    return None


# -- series -------------------------------------------------------------------


def _pack(coeffs):
    return int.from_bytes(np.asarray(coeffs, dtype="<u8").tobytes(), "little")


def _unpack(value, n, p):
    buf = value.to_bytes(max(8 * n, (value.bit_length() + 7) // 8), "little")[: 8 * n]
    return np.frombuffer(buf, dtype="<u8") % np.uint64(p)


def series_compose(a, v, n, p):
    """a(v) mod (p, X^n) by Horner's rule, each product by Kronecker substitution
    on Python integers with one 64-bit slot per coefficient; v has no constant term."""
    if n * (p - 1) ** 2 >= 1 << 64:
        raise ValueError("a product coefficient would not fit a 64-bit slot")
    a = np.asarray(a[:n], dtype=np.uint64)
    deg = int(np.flatnonzero(a)[-1]) if a.any() else 0
    v_packed = _pack(v[:n])
    acc = np.zeros(n, dtype=np.uint64)
    acc[0] = a[deg]
    for i in range(deg - 1, -1, -1):
        acc = _unpack(_pack(acc) * v_packed, n, p)
        acc[0] = (acc[0] + a[i]) % np.uint64(p)
    return [int(c) for c in acc]


def parse_series(out):
    data = json.loads(out)
    return data["p"], [int(c) for c in data["coeffs"]]


def check_inverse_identity(a, p, rc, out):
    """The output V is a series over F_p of a's length with a(V) = X."""
    if rc != 0:
        return _exit_code(rc)
    p_out, v = parse_series(out)
    n = len(a)
    if p_out != p or len(v) != n:
        return f"p={p_out}, N={len(v)}; expected p={p}, N={n}"
    if any(not 0 <= c < p for c in v):
        return "a coefficient is not reduced mod p"
    if v[0] != 0:
        return "V has a constant term"
    got = series_compose(a, v, n, p)
    want = [0, 1] + [0] * (n - 2)
    if got != want[:n]:
        i = next(i for i in range(n) if got[i] != want[i])
        return f"a(V) differs from X at X^{i}"
    return None


def check_inverse_equals(expected, p, rc, out):
    if rc != 0:
        return _exit_code(rc)
    p_out, v = parse_series(out)
    if p_out != p or len(v) != len(expected):
        return f"p={p_out}, N={len(v)}; expected p={p}, N={len(expected)}"
    bad = next((i for i, (g, w) in enumerate(zip(v, expected)) if g != w), None)
    if bad is not None:
        return f"coefficient {bad} is {v[bad]}, expected {expected[bad]}"
    return None


def signed_catalan_series(n, p):
    """The inverse of X + X^2: sum over k >= 1 of (-1)^(k-1) Catalan(k-1) X^k, mod p."""
    out = [0] * n
    c = 1
    for k in range(1, n):
        out[k] = (c if k % 2 else -c) % p
        c = c * 2 * (2 * k - 1) // (k + 1)  # Catalan(k) from Catalan(k-1)
    return out


def alternating_series(n, p):
    """The inverse of X/(1-X): X/(1+X) = sum over k >= 1 of (-1)^(k-1) X^k."""
    return [0] + [(1 if k % 2 else p - 1) for k in range(1, n)]


def check_inverse_or_refusal(expected, p, rc, out):
    """A large-prime input is handled when it is inverted right or refused with exit code 2."""
    if rc == 2:
        return None
    return check_inverse_equals(expected, p, rc, out)


# -- check suite --------------------------------------------------------------

CHECK_IDS = (
    "prop-4.2-reversion",
    "lemma-4.1-eq1-relations",
    "prop-4.2-ore-form",
    "fig-2-kernel-dfao",
    "lemma-4.5",
    "lemma-3.2",
    "prop-3.1-3.3-run-lengths",
    "lemma-5.3-prop-5.5-complexity",
    "lemma-5.4-5.6-prop-5.7-mod3",
    "sec-5-delta-x",
    "prop-5.12-morphic-pipeline",
    "prop-5.13-eigenvalues",
    "non-regularity-rank-evidence",
    "ans-numeration",
)
RED_CHECKS = ("prop-5.13-eigenvalues", "non-regularity-rank-evidence")

# Saturated kernel ranks of z, o and p at horizons 512 and 1024, depths 0..8.
# Regenerate with `python3 perfbench/expected_ranks.py`, which recomputes them
# from the sequence definitions with sympy.
SATURATED_RANKS = {
    "z": ([1, 3, 7, 15, 18, 18, 18, 18, 18], [1, 3, 7, 15, 20, 20, 20, 20, 20]),
    "o": ([1, 3, 7, 15, 18, 18, 18, 18, 18], [1, 3, 7, 15, 20, 20, 20, 20, 20]),
    "p": ([1, 3, 7, 15, 21, 21, 21, 21, 21], [1, 3, 7, 15, 23, 23, 23, 23, 23]),
}


def run_length_pf_eigenvalue():
    """Perron-Frobenius eigenvalue of the incidence matrix of 1->121, 2->12221."""
    images = {"1": "121", "2": "12221"}
    (a, b), (c, d) = [[images[col].count(row) for col in "12"] for row in "12"]
    trace, det = a + d, a * d - b * c  # characteristic polynomial x^2 - trace x + det
    disc = trace * trace - 4 * det
    root = math.isqrt(disc)
    if root * root != disc or (trace + root) % 2:
        raise ArithmeticError("the eigenvalue is not an integer")
    return (trace + root) // 2


_LINE = re.compile(r"^(\S+): (PASS|FAIL) \[(.*)\] \(\d+\.\d+s\)$")
_RANKS = re.compile(r"\b([a-z]): ranks@(\d+)=\[([\d, ]*)\] ranks@(\d+)=\[([\d, ]*)\]")


def check_suite_report(rc, out):
    if rc != 1:
        return _exit_code(rc, 1)
    status, detail = {}, {}
    current = None
    for line in out.splitlines():
        m = _LINE.match(line)
        if m:
            current = m.group(1)
            status[current] = m.group(2)
        elif line.startswith("    ") and current is not None:
            detail[current] = line.strip()
        else:
            return f"unexpected line {line[:60]!r}"
    if tuple(status) != CHECK_IDS:
        return f"check ids {list(status)}"
    red = tuple(c for c in CHECK_IDS if status[c] == "FAIL")
    if red != RED_CHECKS:
        return f"red checks {list(red)}"
    eig = re.search(r"computed as ([\d.]+) with tag (\S+),", detail.get(RED_CHECKS[0], ""))
    want = run_length_pf_eigenvalue()
    if not eig or float(eig.group(1)) != want or eig.group(2) != str(want):
        return f"eigenvalue detail does not report {want}"
    rank_detail = detail.get(RED_CHECKS[1], "")
    failures, _, evidence = rank_detail.partition(" | ")
    ranks = {m.group(1): (m, [int(v) for v in m.group(3).split(",")], [int(v) for v in m.group(5).split(",")])
             for m in _RANKS.finditer(evidence)}
    if sorted(ranks) != ["a", "o", "p", "z"]:
        return "rank evidence does not list a, z, o and p"
    if any(m.group(2) != "512" or m.group(4) != "1024" for m, _, _ in ranks.values()):
        return "rank evidence is not at horizons 512 and 1024"
    full = [2 ** (d + 1) - 1 for d in range(9)]
    if ranks["a"][1:] != (full, full):
        return f"ranks of a are {ranks['a'][1:]}"
    for name, (lo, hi) in SATURATED_RANKS.items():
        if ranks[name][1:] != (lo, hi):
            return f"ranks of {name} are {ranks[name][1:]}"
    named = set(re.findall(r"(?:^|; )([a-z]+):? ", failures))
    if named != {"z", "o", "p"}:
        return f"the rank check blames {sorted(named)}, expected z, o and p"
    return None
