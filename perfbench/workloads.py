"""The benchmark's workloads: the operations of one round, made from the seed,
each with the check its output must pass.

Every operation is one call of the pdseq command line (``pdseq.cli.main``).
A round always holds the same operations for a given seed, so every round of
a run does the same work and fails the same share of operations.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from typing import Callable

import verify


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable  # (exit code, stdout) -> None when right, else the reason
    stdin: str | None = None
    known_fault: bool = False  # fails today because of a named fault of the program


def check_suite(seed):
    """`pdseq check`: all 14 checks at their pinned horizons.

    The horizons are pinned by the paper's claims, so there is nothing for
    the seed to vary.
    """
    return [Op(("check",), verify.check_suite_report)]


def _invert(p, coeffs, check, known_fault=False):
    text = json.dumps({"p": p, "coeffs": [int(c) for c in coeffs]})
    return Op(("invert", "-"), check, stdin=text, known_fault=known_fault)


def _random_series(rng, p, n, terms):
    """Zero constant term, invertible linear term, `terms` random coefficients in all."""
    coeffs = [0] * n
    coeffs[1] = rng.randrange(1, p)
    for i in range(2, terms):
        coeffs[i] = rng.randrange(p)
    return coeffs


def series_invert(seed):
    """`pdseq invert` on series of length 512 .. 2^16 over p in {2, 3, 5, 65521}."""
    rng = random.Random(seed)
    ops = []
    # the period-doubling series D, whose inverse is u
    n = 1 << 16
    ops.append(
        _invert(2, verify.period_doubling(n), functools.partial(verify.check_inverse_equals, [int(c) for c in verify.inverse_pd(n)], 2))
    )
    # seeded polynomials (dense inverse, cheap exact check of a(V) = X on all N terms)
    # and seeded dense series below the FFT threshold
    for p, n, terms in ((65521, 1 << 14, 7), (3, 1 << 13, 6), (5, 1 << 12, 8), (2, 512, 512), (65521, 768, 768)):
        a = _random_series(rng, p, n, terms)
        ops.append(_invert(p, a, functools.partial(verify.check_inverse_identity, a, p)))
    # closed forms: X/(1-X) -> X/(1+X), X + X^2 -> signed Catalan numbers
    n = 4096
    p = rng.choice((3, 5, 65521))
    ops.append(_invert(p, [0] + [1] * (n - 1), functools.partial(verify.check_inverse_equals, verify.alternating_series(n, p), p)))
    p = rng.choice((2, 3, 5, 65521))
    ops.append(_invert(p, [0, 1, 1] + [0] * (n - 3), functools.partial(verify.check_inverse_equals, verify.signed_catalan_series(n, p), p)))
    # -X/(1-X) is its own inverse.  Both inputs fail today, the same way on
    # every seed: at p = 2^31-1 the direct convolution overflows int64, and at
    # p = 1000003, N = 4096 the FFT rounding is not exact.
    for p, n in ((2**31 - 1, 8), (1000003, 4096)):
        a = [0] + [p - 1] * (n - 1)
        ops.append(_invert(p, a, functools.partial(verify.check_inverse_or_refusal, a, p), known_fault=True))
    return ops


def _export(name, count, offset=0):
    argv = ("seq", name, str(count)) + (("--offset", str(offset)) if offset else ())
    return Op(argv, functools.partial(verify.check_seq, name, count, offset))


def sequence_export(seed):
    """`pdseq seq` b-files of the catalog, growing requests for a, and `pdseq kernel a`.

    The seed moves the counts and offsets of the exports whose cost is linear
    in the count.  The counts of a stay fixed: building a doubles a search
    limit until it holds enough ones of u, and the ones below 2^k number
    Fib(k+2), so a count near such a boundary would double the work on some
    seeds and not on others.
    """
    rng = random.Random(seed)
    ops = [_export(name, 120_000 + rng.randrange(20_000), rng.choice((0, 1))) for name in ("u", "d", "t", "z", "o", "b", "p", "x")]
    ops += [_export("a", 1000), _export("a", 10_000), _export("a", 10_000), _export("a", 100_000)]
    ops.append(_export("delta", 100_000))
    ops.append(Op(("kernel", "a", "--depth", "8"), functools.partial(verify.check_kernel_a, 8, 512)))
    ops.append(_export("a", 300_000))
    return ops


WORKLOADS = {
    "check-suite": check_suite,
    "series-invert": series_invert,
    "sequence-export": sequence_export,
}
