"""Executable check suite for the period-doubling formal-inverse results.

Each check reproduces one published claim (or gathers the stated evidence
for it) at a pinned horizon and tolerance; everything is exact integer or
F_p arithmetic, so "pass" means equality, not approximation.  Checks are
registered in a fixed order and report deterministically; see CHECKS for
the id -> description map.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

import numpy as np

from . import automata, catalog, kernel, morphisms, series

__all__ = ["CheckResult", "CHECKS", "run_paper_checks"]


@dataclass
class CheckResult:
    check_id: str
    status: str  # pass | fail | skipped
    horizon: str
    elapsed: float
    detail: str | None = None

    def to_json_dict(self):
        return {
            "id": self.check_id,
            "status": self.status,
            "horizon": self.horizon,
            "detail": self.detail,
        }


def _fail(parts):
    msgs = [m for ok, m in parts if not ok]
    return (not msgs, "; ".join(msgs) if msgs else None)


# -- individual checks -------------------------------------------------------

U_LISTING = tuple(int(c) for c in "01000101000001000100000100000101000001000")


def _cross_checked(*horizons):
    """One part per (name, n): whether cross_check(name, n) passed, and its report."""
    return [(r.passed, str(r)) for r in (catalog.cross_check(name, n) for name, n in horizons)]


def check_reversion(n=4096):
    # u's series-reversion alternate is the reversion of the period-doubling series
    listing = tuple(catalog.sequence("u").prefix(41).tolist()) == U_LISTING
    parts = _cross_checked(("u", n)) + [(listing, "first 41 coefficients differ from the listing")]
    return _fail(parts) + (f"N={n}",)


def check_relations(n=1024):
    parts = []
    d_series = catalog.generating_function("d", n)
    parts.append(
        (series.relation_residual(catalog.pd_gf_relation(), d_series).is_zero(), "period-doubling relation residual nonzero")
    )
    u_series = series.reversion(d_series)
    parts.append(
        (series.relation_residual(catalog.inverse_pd_relation_cubic(), u_series).is_zero(), "cubic inverse relation residual nonzero")
    )
    parts.append(
        (series.relation_residual(catalog.inverse_pd_relation_quartic(), u_series).is_zero(), "quartic inverse relation residual nonzero")
    )
    for p in (2, 3, 5):
        t = catalog.generating_function(f"tp{p}", p**6)
        parts.append(
            (
                series.relation_residual(catalog.generalized_tm_relation(p), t).is_zero(),
                f"generalized Thue-Morse relation residual nonzero for p={p}",
            )
        )
    return _fail(parts) + (f"N={n}, N_p=p^6 for p in (2,3,5)",)


def check_ore_form(n=512):
    stated = f"N={n}, depth<=2, degree<=3"
    try:
        rel = series.power_relation_search(catalog.series_by_name("u", n), 2, 3)
    except ValueError as exc:  # too few coefficients for the unknowns
        return False, str(exc), stated
    # over F_2, U^(2^i) = U(X^(2^i)): the quartic's powers 4, 2 and 1 are its
    # Frobenius terms at depths 2, 1 and 0; its bare X stays ("pow", 0)
    frobenius = {("pow", 2**i): ("frob", i) for i in range(3)}
    quartic = catalog.inverse_pd_relation_quartic().terms
    expected = tuple(sorted(((c, frobenius.get(pat, pat)) for c, pat in quartic), key=lambda term: term[1]))
    parts = [
        (rel is not None, "no relation found"),
        (rel is not None and rel.terms == expected, f"unexpected relation {None if rel is None else rel.terms}"),
    ]
    return _fail(parts) + (stated,)


def check_kernel_dfao(horizon=512):
    stated = f"H={horizon}, agreement to 2^20"
    try:
        machine = kernel.compute_kernel(catalog.sequence("u").prefix, 2, horizon=horizon)
    except kernel.HorizonError as exc:
        return False, str(exc), stated
    parts = [(machine is not None, "kernel did not close")]
    if machine is not None:
        parts.append((machine.num_states == 5, f"{machine.num_states} classes instead of 5"))
        mini = automata.minimize(machine)
        parts.append((mini.num_states == 5, f"minimized automaton has {mini.num_states} states"))
        parts.append(
            (mini.same_up_to_renaming(catalog.inverse_pd_dfao()), "synthesized automaton is not the five-state figure")
        )
        limit = 1 << 20
        got = automata.evaluate_range(mini, limit)
        want = catalog.sequence("u").prefix(limit)
        parts.append((bool(np.array_equal(got, want)), "automaton disagrees with the sequence below 2^20"))
    return _fail(parts) + (stated,)


# every instance of the kernel recurrence family: either s(an+b) = s(cn+e)
# or s(an+b) = 0
KERNEL_RELATIONS = (
    [(1, 0, 4, 3), (4, 3, 16, 15), (2, 1, 8, 7), (4, 1, 8, 5), (4, 1, 16, 1), (4, 1, 16, 7), (4, 1, 16, 13), (8, 1, 16, 5)],
    [(2, 0), (4, 0), (4, 2), (8, 0), (8, 2), (8, 4), (8, 6), (8, 3)]
    + [(16, r) for r in range(0, 16, 2)]
    + [(16, 3), (16, 9), (16, 11)],
)


def check_kernel_relations(n=100_000):
    u = catalog.sequence("u").prefix(16 * n + 16)
    idx = np.arange(n, dtype=np.int64)
    parts = []
    for am, ab, bm, bb in KERNEL_RELATIONS[0]:
        ok = bool(np.array_equal(u[am * idx + ab], u[bm * idx + bb]))
        parts.append((ok, f"u({am}n+{ab}) != u({bm}n+{bb})"))
    for am, ab in KERNEL_RELATIONS[1]:
        ok = not u[am * idx + ab].any()
        parts.append((ok, f"u({am}n+{ab}) != 0"))
    return _fail(parts) + (f"n<{n}, {len(KERNEL_RELATIONS[0]) + len(KERNEL_RELATIONS[1])} relations",)


def check_morphism_identities(n_max=7):
    # by tracemalloc the check peaks at 51 bytes per letter of h^(2n+1)(0), 2^(2n+1) of them:
    # 2^(2n+6.7) bytes, here rounded up
    log2_need = 2 * n_max + 7
    series.require_memory(1 << log2_need, f"lemma-3.2 to n={n_max} needs about 2^{log2_need} bytes")
    h = catalog.period_doubling_morphism()
    f = catalog.doubled_run_length_morphism()
    g = catalog.doubled_run_length_coding()
    # words are arrays of indices into h's and f's alphabets; g codes f's letters as h's
    h_table = morphisms.image_table(h, h.alphabet, h.alphabet)
    f_table = morphisms.image_table(f, f.alphabet, f.alphabet)
    coding = morphisms.image_table(g, f.alphabet, h.alphabet)

    def word(m, *letters):
        return np.array([m.alphabet.index(a) for a in letters])

    hw0, hw10, fw2, fw4 = word(h, 0), word(h, 1, 0), word(f, 2), word(f, 4)
    parts = []
    k = 0  # number of h-applications performed on hw0/hw10
    for n in range(1, n_max + 1):
        while k < 2 * n + 1:
            hw0, hw10 = morphisms.apply(h_table, hw0), morphisms.apply(h_table, hw10)
            k += 1
        fw2, fw4 = morphisms.apply(f_table, fw2), morphisms.apply(f_table, fw4)
        parts.append((np.array_equal(hw0, morphisms.apply(coding, fw2)), f"word identity fails for the 0-word at n={n}"))
        parts.append((np.array_equal(hw10, morphisms.apply(coding, fw4)), f"word identity fails for the 10-word at n={n}"))
    return _fail(parts) + (f"n=1..{n_max}",)


def check_run_length_identities(n=100_000):
    return _fail(_cross_checked(("z", n), ("o", n))) + (f"{n} terms",)


def check_complexity(n_max=15):
    fib = catalog.fibonacci_numbers(count=2 * n_max + 2)
    lprime = catalog.blocks_language_dfa()
    lprime_counts = list(automata.word_counts(lprime, 2 * n_max + 1))
    la = catalog.ones_positions_language_dfa()
    la_counts = list(automata.word_counts(la, 2 * n_max + 1))
    parts = []
    for n, got in enumerate(lprime_counts):
        parts.append((got == fib[n], f"blocks language count({n})={got} != F({n})={fib[n]}"))
    boundaries = {0: 0, 1: 1, 2: 0}
    for n, want in boundaries.items():
        got = la_counts[n]
        parts.append((got == want, f"count({n})={got} != {want}"))
    for n in range(2, n_max + 1):
        got = la_counts[2 * n]
        want = fib[2 * n - 2] - 1
        parts.append((got == want, f"even count({2 * n})={got} != {want}"))
    for n in range(1, n_max + 1):
        got = la_counts[2 * n + 1]
        want = fib[2 * n - 1] + 1
        parts.append((got == want, f"odd count({2 * n + 1})={got} != {want}"))
    return _fail(parts) + (f"lengths to {2 * n_max + 1}",)


def _power_or_decimal(n):
    """n as 2^e when it is a power of two, else in decimal."""
    return f"2^{n.bit_length() - 1}" if n & (n - 1) == 0 else str(n)


def check_mod3_structure(limit=1 << 27):
    parts = []
    fib = catalog.fibonacci_numbers(count=90)
    # summation identities on the Fibonacci numbers
    for n in range(1, 41):
        lhs = sum(fib[2 * ell] for ell in range(n))
        parts.append((lhs == fib[2 * n - 1], f"even-index sum fails at n={n}"))
    for n in range(2, 41):
        lhs = sum(fib[2 * ell + 1] for ell in range(n - 1))
        parts.append((lhs == fib[2 * (n - 1)] - 1, f"odd-index sum fails at n={n}"))

    # the ones of u and their residues, built once for the classification and the runs
    a = catalog.inverse_pd_ones_below(max(limit, 1 << 20))
    a_mod3 = np.remainder(a, 3, out=np.empty(len(a), np.int8), casting="unsafe")
    # residue classification of the one-positions below 2^20
    a20 = a[: np.searchsorted(a, 1 << 20)]
    mod3 = a_mod3[: len(a20)]
    # whether the binary expansion of each position is in L_a1, and in L_a2
    in_la1, in_la2 = (
        automata.evaluate_range(dfa, 1 << 20)[a20] == 1
        for dfa in (catalog.odd_ones_language_dfa(), catalog.marked_block_language_dfa())
    )
    bitlen = np.frexp(a20.astype(np.float64))[1]  # exact: a20 < 2^20
    parts.append((bool(np.all(in_la1 ^ in_la2)), "positions not split between the two languages"))
    parts.append((bool(np.all((mod3 == 1) | (mod3 == 2))), "a position is divisible by 3"))
    want = np.where(in_la1 | ((bitlen & 1) == 0), 1, 2)
    mism = np.nonzero(mod3 != want)[0]
    parts.append(
        (len(mism) == 0, f"classification fails first at a({int(mism[0]) if len(mism) else -1})")
    )

    # run lengths of (a mod 3) follow the Fibonacci numbers
    big_mod3 = a_mod3[: np.searchsorted(a, limit)]
    runs = morphisms.run_lengths(big_mod3)
    complete = runs[:-1]
    parts.append((len(complete) >= 25, f"only {len(complete)} complete runs below {limit}"))
    for i, r in enumerate(complete):
        if r != fib[i]:
            parts.append((False, f"run {i} has length {r} != F({i})={fib[i]}"))
            break
    vals = big_mod3[np.cumsum(runs) - runs]  # at the run starts; none without runs
    expected_vals = np.where(np.arange(len(runs)) % 2 == 0, 1, 2)
    parts.append((bool(np.array_equal(vals, expected_vals)), "run values do not alternate 1,2,1,2,..."))
    covers = " (covers 10^7)" if limit >= 10**7 else ""
    return _fail(parts) + (f"classification below 2^20, runs below {_power_or_decimal(limit)}{covers}, sums to n=40",)


def check_delta_fibonacci(n=100_000):
    # delta's alternate is x shifted by two; x's is the Zeckendorf automaton
    return _fail(_cross_checked(("delta", n), ("x", n + 2))) + (f"{n} terms",)


def check_morphic_pipeline(n=100_000):
    # x's Zeckendorf automaton as a morphism and an erasing coding; the paper's
    # letters a0 ... a7 are the breadth-first states q0 q1 q2 q4 q3 q7 q6 q5
    f, g = morphisms.ans_presentation(catalog.zeckendorf_language_dfa(), catalog.fibonacci_indicator_dfao())
    f_eps, g_eps = morphisms.remove_erasure(f, g)
    expected_rules = {
        "z": ("z", "q0"),
        "q0": ("q2",),
        "q2": ("q4",),
        "q4": ("q4", "q6"),
        "q7": ("q7", "q6"),
        "q6": ("q7",),
    }
    parts = [(f_eps.rules == expected_rules, "erasure removal gave unexpected rules")]
    f_prime, g_prime, new_seed = morphisms.trim_to_prolongable(f_eps, g_eps, "z")
    parts.append((new_seed == "q0", f"new seed {new_seed} != q0"))
    parts.append((f_prime.rules["q0"] == ("q0", "q2"), "trimmed image of q0 is wrong"))
    bij = morphisms.equivalent_up_to_renaming(
        f_prime, g_prime, new_seed, catalog.golden_morphism(), catalog.golden_coding(), "a"
    )
    expected_bij = {"q0": "a", "q2": "b", "q4": "c", "q7": "d", "q6": "e"}
    parts.append((bij == expected_bij, f"renaming {bij} != {expected_bij}"))
    # x's golden-morphism alternate is the golden presentation
    parts += _cross_checked(("x", n))
    return _fail(parts) + (f"{n} terms",)


def check_eigenvalues():
    golden = morphisms.pf_eigenvalue(catalog.golden_morphism().incidence_matrix())
    parts = [(golden == morphisms.ExactEigenvalue.quadratic(-1, -1), f"golden tag {golden} != x^2 - x - 1")]
    run_length = morphisms.pf_eigenvalue(catalog.run_length_morphism().incidence_matrix())
    # an integer eigenvalue is reported in the decimal form the report has always printed
    computed = f"{run_length.data[0]:.1f}" if run_length and run_length.kind == "integer" else run_length
    parts.append(
        (
            run_length == morphisms.ExactEigenvalue.integer(2),
            f"run-length morphism eigenvalue computed as {computed} with tag {run_length}, "
            "stated value is 2 (see notes: the incidence matrix has characteristic "
            "polynomial (x-1)(x-4), so the true value is 4)",
        )
    )
    for k in range(2, 11):
        parts.append((morphisms.multiplicatively_independent(k, golden), f"{k} vs golden ratio not independent"))
    parts.append((not morphisms.multiplicatively_independent(2, 8), "2 and 8 reported independent"))
    return _fail(parts) + ("exact",)


def _profile(name, key, horizon):
    """One column of the base-2, depth-8 rank report of a catalog sequence."""
    report = kernel.rank_profile(catalog.sequence(name).prefix, 2, max_depth=8, horizon=horizon)
    return [row[key] for row in report["depths"]]


def check_rank_profiles(horizon=512):
    parts = []
    details = []
    for name in ("a", "z", "o", "p"):
        # 2H first: its prefix holds the H profile's, so each is built once
        ranks2, ranks = (_profile(name, "rank", h) for h in (2 * horizon, horizon))
        details.append(f"{name}: ranks@{horizon}={ranks} ranks@{2 * horizon}={ranks2}")
        increasing = all(ranks[i + 1] > ranks[i] for i in range(len(ranks) - 1))
        parts.append((increasing, f"{name}: rank not strictly increasing at H={horizon}: {ranks}"))
        parts.append((ranks == ranks2, f"{name}: ranks change when H doubles: {ranks} -> {ranks2}"))
    counts = _profile("u", "class_count", horizon)
    parts.append((counts[-3:] == [5, 5, 5], f"u classes {counts} do not stabilize at 5"))
    ok, msg = _fail(parts)
    if msg:
        msg = msg + " | " + " ".join(details)
    return ok, msg, f"H={horizon} and {2 * horizon}, depths 0..8"


def check_numeration(n=100_000):
    parts = []
    # the i-th word of L_F has Zeckendorf value i exactly when it is the
    # greedy representation of i (Zeckendorf's theorem)
    words = automata.genealogical_words(catalog.zeckendorf_language_dfa(), n)
    weights = catalog.fibonacci_numbers(count=int(words.max(initial=0)).bit_length() + 1)[1:]
    values = sum(((words >> j) & 1) * w for j, w in enumerate(weights))
    bad = next(iter(np.flatnonzero(values != np.arange(n))), None)
    parts.append((bad is None, f"unrank and greedy differ first at {bad}"))
    # the first words of L_a are 1, 101, 111 and 1101
    first = automata.genealogical_words(catalog.ones_positions_language_dfa(), 4).tolist()
    want = [1, 5, 7, 13]
    parts.append((first == want, f"first words of the one-positions language {first} != {want}"))
    # d's primary, its MSD automaton, outputs the parity of the trailing ones;
    # cross_check compares it with the recurrence d(2j) = 0, d(2j+1) = 1 - d(j)
    parts += _cross_checked(("d", n))
    return _fail(parts) + (f"n<{n}",)


CHECKS = {
    "prop-4.2-reversion": ("series reversion matches the recurrence sequence and the listing", check_reversion),
    "lemma-4.1-eq1-relations": ("algebraic relation residuals vanish (D, U, generalized Thue-Morse)", check_relations),
    "prop-4.2-ore-form": ("the bounded-degree search recovers the quartic relation exactly", check_ore_form),
    "fig-2-kernel-dfao": ("the kernel closes with 5 classes and synthesizes the published automaton", check_kernel_dfao),
    "lemma-4.5": ("every kernel recurrence holds termwise", check_kernel_relations),
    "lemma-3.2": ("iterated-morphism word identities", check_morphism_identities),
    "prop-3.1-3.3-run-lengths": ("position gaps reproduce the run-length fixed points", check_run_length_identities),
    "lemma-5.3-prop-5.5-complexity": ("language complexity counts match the Fibonacci formulas", check_complexity),
    "lemma-5.4-5.6-prop-5.7-mod3": ("mod-3 classification and Fibonacci run structure", check_mod3_structure),
    "sec-5-delta-x": ("difference indicator equals the shifted Fibonacci indicator", check_delta_fibonacci),
    "prop-5.12-morphic-pipeline": ("erasure removal and trimming reach the golden presentation", check_morphic_pipeline),
    "prop-5.13-eigenvalues": ("spectral radii and multiplicative independence", check_eigenvalues),
    "non-regularity-rank-evidence": ("kernel rank growth evidence at two horizons", check_rank_profiles),
    "ans-numeration": ("abstract numeration agrees with greedy Zeckendorf; parity of trailing ones", check_numeration),
}


def run_paper_checks(selection=None, horizons=None):
    """Run the suite (or the selected ids) and return CheckResult records.

    horizons maps a check id to an override for its main horizon knob.
    An unknown id, and an override below 1, for a check not selected or for
    one without a horizon, raise ValueError before anything runs; a check
    that would exhaust memory raises MemoryError.
    """
    horizons = dict(horizons or {})
    selected = list(CHECKS if selection is None else selection)
    unknown = [s for s in selected if s not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check ids: {unknown}; known: {list(CHECKS)}")
    for key, value in horizons.items():
        if key not in CHECKS:
            raise ValueError(f"horizon override for unknown check id {key!r}")
        if key not in selected:
            raise ValueError(f"horizon override for {key!r}, a check that is not selected")
        if not inspect.signature(CHECKS[key][1]).parameters:
            raise ValueError(f"horizon override for {key!r}, a check without a horizon")
        if value < 1:
            raise ValueError(f"horizon override {key}={value}: a horizon must be at least 1")
    # the rank check runs first: its prefixes of a, z, o and p are the longest
    # the suite reads, so the checks after it find them cached
    ids = sorted((c for c in CHECKS if c in selected), key=lambda c: c != "non-regularity-rank-evidence")
    results = {}
    for check_id in ids:
        _, fn = CHECKS[check_id]
        start = time.perf_counter()
        try:
            if check_id in horizons:
                ok, detail, horizon = fn(horizons[check_id])
            else:
                ok, detail, horizon = fn()
            status = "pass" if ok else "fail"
        except MemoryError:  # a refusal, not a failed check
            raise
        except Exception as exc:  # a crash is a failure with the reason recorded
            status, detail, horizon = "fail", f"exception: {exc!r}", "n/a"
        results[check_id] = CheckResult(check_id, status, horizon, time.perf_counter() - start, detail)
    return [results[c] for c in CHECKS if c in results]
