"""Named sequences with independent definitions, plus their automata,
morphisms, generating functions and algebraic relations.

Every sequence is registered under the short name used throughout the
package (d, t, p, u, o, z, a, b, delta, x, F, tp2, tp3, ...).  The primary
definition is one exact construction (d is read by its automaton, t by
digit sums); alternates are independent constructions (morphic,
automaton, series) that cross_check compares termwise.  A known fact about a sequence is stated the same way, as one
more definition: 1 - d is the first difference of Thue-Morse mod 2, and
the gaps of z and o are the run-length fixed points.  Position sequences
o, z and b are filters over their base sequences; a is enumerated from the
language of its binary expansions and checked against the set recurrence
that builds u.  Nothing assumes a closed form for them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from math import comb

import numpy as np

from . import automata, exact, series
from .automata import Dfa, Dfao
from .morphisms import Morphism, fixed_point_prefix, morphic_word_prefix, run_lengths

__all__ = [
    "NamedSequence",
    "sequence",
    "sequence_names",
    "cross_check",
    "CrossCheckReport",
    "bfile_blocks",
]


# -- low-level vectorized builders -----------------------------------------


def digit_sum_mod_prefix(n, p):
    """s_p(m) mod p for m < n (generalized Thue-Morse values), as letters
    of the alphabet 0..p-1: int8 for p <= 128, else int64.

    Built by p-fold doubling: the block for m = j*p^k + r, r < p^k, is
    (j + s[r]) mod p, one broadcast per power of p over the blocks j that
    the first n values reach.  The sums j + s[r] reach 2(p - 1), so for
    64 < p <= 128 they are taken in int64, where int8 would wrap.
    """
    out, acc = (automata.letter_dtype((0, top)) for top in (p - 1, 2 * (p - 1)))
    s = np.zeros(1, dtype=acc)
    while len(s) < n:
        blocks = min(p, -(-n // len(s)))
        s = np.arange(blocks, dtype=acc)[:, None] + s
        s %= p
        s = s.ravel()
    return s[:n].astype(out, copy=False)


def inverse_pd_ones_below(limit):
    """All positions m < limit with u(m) = 1, ascending, as int64.

    u(1) = 1, and u(2m) = 0, u(4m+1) = u(2m-1), u(4m+3) = u(m) for m >= 1.
    So the ones are odd, m = 2j + 1, and S = {j : u(2j+1) = 1} satisfies
    S = {0} u (2S + 2) u (4S + 3).  S below b gives 2S + 2 below 2b + 2 and
    4S + 3 below 4b + 3, so the bound grows as b -> 2b + 2 by one merge of
    two sorted arrays, and memory stays proportional to the ones found.
    """
    bound = limit // 2  # 2j + 1 < limit exactly when j < limit // 2
    s, b = np.zeros(1, dtype=np.int64), 1  # s is S below b
    while b < bound:
        b = 2 * b + 2
        odd = 4 * s + 3
        s = np.concatenate(([0], 2 * s + 2, odd[odd < b]))
        s.sort(kind="stable")  # two ascending runs: timsort merges them in one pass
    return 2 * s[s < bound] + 1


def inverse_pd_prefix(n):
    """u(m) for m < n as an int8 array: 1 at the positions inverse_pd_ones_below(n), else 0."""
    u = np.zeros(n, dtype=np.int8)
    u[inverse_pd_ones_below(n)] = 1
    return u


# -- morphisms of the catalog -----------------------------------------------


def period_doubling_morphism():
    return Morphism({0: (0, 1), 1: (0, 0)})


def run_length_morphism():
    """1->121, 2->12221: its fixed point is the run lengths of Thue-Morse."""
    return Morphism({1: (1, 2, 1), 2: (1, 2, 2, 2, 1)})


def doubled_run_length_morphism():
    return Morphism({2: (2, 4, 2), 4: (2, 4, 4, 4, 2)})


def doubled_run_length_coding():
    return Morphism({2: (0, 1), 4: (0, 0, 0, 1)})


def generalized_tm_morphism(p):
    return Morphism({a: tuple((a + i) % p for i in range(p)) for a in range(p)})


def golden_morphism():
    return Morphism(
        {
            "a": ("a", "b"),
            "b": ("c",),
            "c": ("c", "e"),
            "d": ("d", "e"),
            "e": ("d",),
        }
    )


def golden_coding():
    return Morphism({"a": (0,), "b": (1,), "c": (1,), "d": (0,), "e": (0,)})


# -- automata of the catalog -------------------------------------------------
# Row s of each transition table lists state s's successors on the digits 0, 1.


def period_doubling_dfao():
    """Two states generating d: the parity of the trailing block of ones.

    Reading most significant digit first, the second state means "the run
    of ones ending at the current digit has odd length"; a zero resets it.
    The machine does not generate d when fed LSD-first (d_2 would come out
    wrong), because the trailing-run parity must be the last thing tracked.
    """
    return Dfao(("even-run", "odd-run"), 0, (0, 1), [[0, 1], [0, 0]], (0, 1), "msd")


def inverse_pd_dfao():
    """Five states, LSD-first, generating the formal-inverse coefficients."""
    table = [[1, 2], [1, 1], [3, 0], [4, 3], [3, 1]]
    return Dfao(("start", "sink0", "one", "mid1", "alt1"), 0, (0, 1), table, (0, 0, 1, 1, 1), "lsd")


def zeckendorf_language_dfa():
    """Acceptor of the valid Zeckendorf words (empty word included)."""
    table = [[4, 1], [2, 4], [2, 3], [2, 4], [4, 4]]
    return Dfa(("A", "B", "C", "D", "E"), 0, (0, 1), table, (True, True, True, True, False), "msd")


def fibonacci_indicator_dfao():
    """Three states over Zeckendorf reps: output 1 exactly on words 10*."""
    table = [[0, 1], [1, 2], [2, 2]]
    return Dfao(("zero0", "one", "zero1"), 0, (0, 1), table, (0, 1, 0), "msd")


def blocks_language_dfa():
    """Acceptor of {1,00}*."""
    table = [[1, 0], [0, 2], [2, 2]]
    return Dfa(("even0", "half0", "dead"), 0, (0, 1), table, (True, False, False), "msd")


def odd_ones_language_dfa():
    """Acceptor of {11}*1 (all-ones words of odd length)."""
    table = [[3, 1], [3, 2], [3, 1], [3, 3]]
    return Dfa(("start", "odd", "even", "dead"), 0, (0, 1), table, (False, True, False, False), "msd")


def marked_block_language_dfa():
    """Acceptor of 1{1,00}*0{11}*1 (determinized by hand)."""
    table = [[5, 1], [2, 1], [1, 3], [5, 4], [5, 3], [5, 5]]
    return Dfa(("A", "B", "C", "D", "E", "dead"), 0, (0, 1), table, (False, False, False, True, False, False), "msd")


def ones_positions_language_dfa():
    """Acceptor of the binary expansions of the positions of ones in u."""
    return automata.union(odd_ones_language_dfa(), marked_block_language_dfa())


LANGUAGES = {
    "lprime": blocks_language_dfa,
    "la": ones_positions_language_dfa,
    "la1": odd_ones_language_dfa,
    "la2": marked_block_language_dfa,
    "lf": zeckendorf_language_dfa,
}


def language(name):
    try:
        return LANGUAGES[name]()
    except KeyError:
        raise ValueError(f"unknown language {name!r}; known: {sorted(LANGUAGES)}") from None


# -- generating functions and relations --------------------------------------


def generating_function(name, precision):
    """The series of the first precision terms of a catalog sequence: over F_p for tp<p>, else over F_2."""
    seq = sequence(name)
    return series.TruncatedSeries(int(name[2:]) if name.startswith("tp") else 2, seq.prefix(precision))


def pd_gf_relation():
    """X(1+X^2) D^2 + (1+X^2) D + X = 0 over F_2."""
    return series.PolyRelation(
        2,
        (
            ((0, 1, 0, 1), ("pow", 2)),
            ((1, 0, 1), ("pow", 1)),
            ((0, 1), ("pow", 0)),
        ),
    )


def inverse_pd_relation_cubic():
    """X^2 U^3 + X U^2 + (X^2+1) U + X = 0 over F_2."""
    return series.PolyRelation(
        2,
        (
            ((0, 0, 1), ("pow", 3)),
            ((0, 1), ("pow", 2)),
            ((1, 0, 1), ("pow", 1)),
            ((0, 1), ("pow", 0)),
        ),
    )


def inverse_pd_relation_quartic():
    """X^3 U^4 + X^3 U^2 + U + X = 0 over F_2."""
    return series.PolyRelation(
        2,
        (
            ((0, 0, 0, 1), ("pow", 4)),
            ((0, 0, 0, 1), ("pow", 2)),
            ((1,), ("pow", 1)),
            ((0, 1), ("pow", 0)),
        ),
    )


def _binomial_poly_mod(exponent, p):
    """(1 - X)^exponent reduced mod p, lowest degree first."""
    return tuple((-1) ** i * comb(exponent, i) % p for i in range(exponent + 1))


def generalized_tm_relation(p):
    """(1-X)^(p+1) T^p - (1-X)^2 T + X = 0 over F_p."""
    minus = p - 1
    neg_sq = tuple(minus * c % p for c in _binomial_poly_mod(2, p))
    return series.PolyRelation(
        p,
        (
            (_binomial_poly_mod(p + 1, p), ("pow", p)),
            (neg_sq, ("pow", 1)),
            ((0, 1), ("pow", 0)),
        ),
    )


def inverse_gtm_series(p, precision):
    """Formal inverse of the generalized Thue-Morse generating function."""
    exact.check_modulus(p)  # before building terms: p <= 1 would never fill them
    t = series.TruncatedSeries(p, digit_sum_mod_prefix(precision, p))
    return series.reversion(t)


def series_by_name(name, precision):
    """Series for the CLI: <seq>, inv:<seq>, or u / up{p} shorthands."""
    if name == "u":
        name = "inv:d"
    if name.startswith("up"):
        return inverse_gtm_series(int(name[2:]), precision)
    if name.startswith("inv:"):
        return series.reversion(generating_function(name[4:], precision))
    return generating_function(name, precision)


# -- the sequence registry ----------------------------------------------------


@dataclass
class NamedSequence:
    """A named sequence: prefix(n) caches the array build returns, in its own dtype.

    int64 is False for a sequence whose terms leave int64 (F's Python ints).
    """

    name: str
    description: str
    build: callable
    alternates: dict = field(default_factory=dict)
    int64: bool = True
    _cache: np.ndarray = field(default=None, repr=False)

    def prefix(self, n):
        if n < 0:
            raise ValueError(f"cannot take {n} terms of {self.name}: the count is negative")
        if self._cache is None or len(self._cache) < n:
            data = np.asarray(self.build(max(n, 64)))
            data.setflags(write=False)
            self._cache = data
        return self._cache[:n]


_POSITIONS_SLICE = 1 << 16  # indicator terms searched at a time


def _positions(indicator_prefix, value):
    """The builder of the first count positions where indicator_prefix equals value.

    One prefix of max(4 * count, 64) terms holds count of them for every
    caller: every even index is a zero of d, since d(2j) = 0; every even
    index is a zero of u, since u(2j) = 0; every even index is an
    alternation of t, since t(2j+1) = 1 - t(2j); and every index = 1 mod 4
    is a one of d, since d(4j+1) = 1 - d(2j).  The hits are found
    _POSITIONS_SLICE terms at a time and written into an exact-size int64
    array, so the peak holds the prefix, the result and one slice's hits,
    not every hit of the prefix.
    """

    def build(count):
        indicator = indicator_prefix(max(4 * count, 64))
        out = np.empty(count, dtype=np.int64)
        filled = 0
        for lo in range(0, len(indicator), _POSITIONS_SLICE):
            if filled == count:
                break
            hits = np.flatnonzero(indicator[lo : lo + _POSITIONS_SLICE] == value)[: count - filled]
            out[filled : filled + len(hits)] = hits + lo
            filled += len(hits)
        return out[:filled]

    return build


def _fixed_point(morphism, seed):
    return lambda count: fixed_point_prefix(morphism(), seed, count)


def _morphic_word(morphism, coding, seed):
    return lambda count: morphic_word_prefix(morphism(), coding(), seed, count)


def _a_build(count):
    """The first count positions of ones in u: its MSD-first language L_a, enumerated."""
    return automata.genealogical_words(ones_positions_language_dfa(), count)


def _a_via_set_recurrence(count):
    """The first count ones of u, from a limit that doubles: their density falls to 0."""
    limit = 64
    while len(ones := inverse_pd_ones_below(limit)) < count:
        limit *= 2
    return ones[:count].copy()


def _delta_build(count):
    a = sequence("a").prefix(count + 1)
    return ((np.diff(a) % 3) != 0).astype(np.int8)


def _x_build(count):
    out = np.zeros(count, dtype=np.int8)
    for f in fibonacci_numbers(limit=count - 1):
        out[f] = 1
    return out


def _x_via_zeckendorf(count):
    return automata.evaluate_range(fibonacci_indicator_dfao(), count, zeckendorf_language_dfa())


def fibonacci_numbers(limit=None, count=None):
    """The sequence 1, 1, 2, 3, 5, ... as Python ints: those up to limit, or the first count."""
    fs = [1, 1]
    while (limit is not None and fs[-1] <= limit) or (count is not None and len(fs) < count):
        fs.append(fs[-1] + fs[-2])
    if limit is not None:
        while fs and fs[-1] > limit:
            fs.pop()
    if count is not None:
        fs = fs[:count]
    return fs


def _fib_build(count):
    return np.array(fibonacci_numbers(count=count), dtype=object)


def _d_build(count):
    """d(m) = (exponent of 2 in m+1) mod 2, for m < count: the parity of the
    trailing ones of m, read by d's MSD automaton."""
    return automata.evaluate_range(period_doubling_dfao(), count)


def _d_via_tm_difference(count):
    """1 - d is the first difference of Thue-Morse reduced mod 2."""
    return 1 - np.diff(sequence("t").prefix(count + 1)) % 2


def _u_via_reversion(count):
    return series_by_name("u", count).coeffs


def _u_via_dfao(count):
    return automata.evaluate_range(inverse_pd_dfao(), count)


def _p_via_run_lengths(count):
    # Thue-Morse runs have length 1 or 2, so 4*count+16 terms hold more
    # than count complete runs
    return run_lengths(sequence("t").prefix(4 * count + 16))[:count]


def _p_via_doubled_morphism(count):
    return fixed_point_prefix(doubled_run_length_morphism(), 2, count) // 2


def _z_via_run_lengths(count):
    """z marks the ends of the maximal blocks of t: z[0] + 1 = p[0] and z[k+1] - z[k] = p[k+1]."""
    return np.cumsum(sequence("p").prefix(count)) - 1


def _o_via_run_length_gaps(count):
    """o[0] = 1, and the gaps of o are the shifted fixed point of 2->242, 4->24442."""
    w = fixed_point_prefix(doubled_run_length_morphism(), 2, count)
    return np.concatenate(([1], 1 + np.cumsum(w[1:])))


def _delta_via_x(count):
    return sequence("x").prefix(count + 2)[2:].copy()


_REGISTRY = {}


def _register(seq):
    _REGISTRY[seq.name] = seq
    return seq


def _build_registry():
    _register(
        NamedSequence(
            "d",
            "period-doubling sequence",
            _d_build,
            alternates={
                "uniform-morphism": _fixed_point(period_doubling_morphism, 0),
                "coded-run-length-morphism": _morphic_word(doubled_run_length_morphism, doubled_run_length_coding, 2),
                "tm-first-difference": _d_via_tm_difference,
            },
        )
    )
    _register(
        NamedSequence(
            "t",
            "Thue-Morse sequence",
            partial(digit_sum_mod_prefix, p=2),
            alternates={"uniform-morphism": _fixed_point(partial(generalized_tm_morphism, 2), 0)},
        )
    )
    _register(
        NamedSequence(
            "p",
            "run lengths of Thue-Morse",
            _fixed_point(run_length_morphism, 1),
            alternates={
                "run-length-scan": _p_via_run_lengths,
                "doubled-alphabet-morphism": _p_via_doubled_morphism,
            },
        )
    )
    _register(
        NamedSequence(
            "u",
            "coefficients of the formal inverse of the period-doubling series",
            inverse_pd_prefix,
            alternates={
                "series-reversion": _u_via_reversion,
                "lsd-automaton": _u_via_dfao,
            },
        )
    )
    _register(
        NamedSequence(
            "z",
            "positions of zeros in the period-doubling sequence",
            _positions(_d_build, 0),
            alternates={
                # the positions of 1 in diff(t) mod 2, where t alternates
                "tm-alternation-positions": _positions(_d_via_tm_difference, 0),
                "run-length-gaps": _z_via_run_lengths,
            },
        )
    )
    _register(
        NamedSequence(
            "o",
            "positions of ones in the period-doubling sequence",
            _positions(_d_build, 1),
            alternates={"run-length-gaps": _o_via_run_length_gaps},
        )
    )
    _register(
        NamedSequence(
            "a",
            "positions of ones in the formal-inverse coefficient sequence",
            _a_build,
            alternates={"set-recurrence": _a_via_set_recurrence},
        )
    )
    _register(
        NamedSequence(
            "b",
            "positions of zeros in the formal-inverse coefficient sequence",
            _positions(inverse_pd_prefix, 0),
        )
    )
    _register(
        NamedSequence(
            "delta",
            "indicator of consecutive a-terms differing mod 3",
            _delta_build,
            alternates={"fibonacci-indicator-shift": _delta_via_x},
        )
    )
    _register(
        NamedSequence(
            "x",
            "characteristic sequence of the Fibonacci numbers 1,2,3,5,...",
            _x_build,
            alternates={
                "zeckendorf-automaton": _x_via_zeckendorf,
                "golden-morphism": _morphic_word(golden_morphism, golden_coding, "a"),
            },
        )
    )
    _register(
        NamedSequence(
            "F",
            "Fibonacci numbers with F(0)=F(1)=1",
            _fib_build,
            int64=False,
        )
    )
    for p in (2, 3, 5, 7):
        _register(
            NamedSequence(
                f"tp{p}",
                f"base-{p} digit sum reduced mod {p}",
                (lambda pp: lambda n: digit_sum_mod_prefix(n, pp))(p),
                alternates={"uniform-morphism": _fixed_point(partial(generalized_tm_morphism, p), 0)},
            )
        )


_build_registry()


def sequence(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown sequence {name!r}; known: {sorted(_REGISTRY)}") from None


def sequence_names():
    return sorted(_REGISTRY)


@dataclass
class CrossCheckReport:
    name: str
    horizon: int
    passed: bool
    failures: list  # (definition, first differing index or None on a short prefix, expected, got)

    def __str__(self):
        if self.passed:
            return f"cross_check({self.name}, {self.horizon}): pass"
        lines = [f"cross_check({self.name}, {self.horizon}): FAIL"]
        for f in self.failures:
            lines.append(f"  {f}")
        return "\n".join(lines)


def cross_check(name, n):
    """Compare the first n terms of every alternate definition with the primary one."""
    seq = sequence(name)
    reference = seq.prefix(n)
    failures = []
    for label, build in seq.alternates.items():
        got = np.asarray(build(n))[:n]
        if len(got) != n:
            failures.append((label, None, f"{n} terms", f"{len(got)} terms"))
            continue
        mismatch = np.flatnonzero(reference != got)
        if len(mismatch):
            i = int(mismatch[0])
            failures.append((label, i, int(reference[i]), int(got[i])))
    return CrossCheckReport(name, n, not failures, failures)


_BFILE_SLICE = 4096  # terms a block


def _ascii_digits(x, out):
    """Write the int64 column x into the uint8 matrix out, a term a row:
    '-' in column 0 where negative, the decimal digits right-aligned, NUL
    elsewhere.  out needs a column more than the longest term has digits."""
    m = np.abs(x).view(np.uint64)  # |-2^63| too
    out[:, 0] = (x < 0) * ord("-")
    q = m // 10
    out[:, -1] = m - 10 * q + ord("0")
    for k in range(out.shape[1] - 2, 0, -1):
        m, q = q, q // 10
        out[:, k] = (m - 10 * q + ord("0")) * (m > 0)


def bfile_blocks(name, count, offset=0):
    """OEIS-style b-file text, '<index> <value>\\n' per term, one string per slice of terms.

    Terms come _BFILE_SLICE at a time.  A signed-integer prefix (int8 or
    int64) whose indices stay in int64 is written without a loop over
    terms: each slice, widened to int64, fills one NUL-padded byte matrix,
    digit column by digit column, and drops the NULs.  A slice adds 65-85
    bytes a term to the peak memory, 0.26-0.33 MB (tracemalloc, u, z and
    a).  Other prefixes (F's Python ints) and indices past int64 take one
    f-string per term.  A term longer than Python prints
    (sys.get_int_max_str_digits) is refused before the first line.
    """
    values = sequence(name).prefix(count)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
    too_long = np.flatnonzero(abs(values) >= 10**limit) if limit and values.dtype == object else ()
    if len(too_long):
        i = int(too_long[0])  # offset + i must not wrap in int64
        raise ValueError(
            f"term {offset + i} of {name} has more than {limit} decimal digits, too many to print; ask for at most {i} terms"
        )
    fast = values.dtype.kind == "i" and -(2**63) <= offset and offset + len(values) <= 2**63
    for lo in range(0, len(values), _BFILE_SLICE):
        terms = values[lo : lo + _BFILE_SLICE]
        if not fast:
            yield "".join(f"{i} {v}\n" for i, v in enumerate(terms.tolist(), offset + lo))
            continue
        terms = terms.astype(np.int64, copy=False)
        index = np.arange(len(terms), dtype=np.int64) + (offset + lo)
        wi, wv = (len(str(max(-int(c.min()), int(c.max())))) + 1 for c in (index, terms))
        lines = np.zeros((len(terms), wi + wv + 2), np.uint8)
        lines[:, wi], lines[:, -1] = ord(" "), ord("\n")
        _ascii_digits(index, lines[:, :wi])
        _ascii_digits(terms, lines[:, wi + 1 : -1])
        yield lines.tobytes().translate(None, b"\0").decode("ascii")
