"""The sequence registry: listings, cross-checks, and derived structure."""

import dataclasses
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdseq import automata, catalog, morphisms, series
from pdseq.automata import evaluate_range

# frozen leading terms of the named sequences
D_PREFIX = [0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
U_PREFIX = [int(c) for c in "01000101000001000100000100000101000001000"]
O_PREFIX = [1, 5, 7, 9, 13, 17, 21, 23, 25, 29]
Z_PREFIX = [0, 2, 3, 4, 6, 8, 10, 11, 12, 14]
A_PREFIX = [1, 5, 7, 13, 17, 23, 29, 31, 37, 49, 55, 61]
B_PREFIX = [0, 2, 3, 4, 6, 8, 9, 10, 11, 12]


class TestListings:
    def test_d(self):
        assert catalog.sequence("d").prefix(21).tolist() == D_PREFIX

    def test_u(self):
        assert catalog.sequence("u").prefix(41).tolist() == U_PREFIX

    def test_positions(self):
        assert catalog.sequence("o").prefix(10).tolist() == O_PREFIX
        assert catalog.sequence("z").prefix(10).tolist() == Z_PREFIX
        assert catalog.sequence("a").prefix(12).tolist() == A_PREFIX
        assert catalog.sequence("b").prefix(10).tolist() == B_PREFIX

    def test_fibonacci_and_indicator(self):
        assert catalog.sequence("F").prefix(6).tolist() == [1, 1, 2, 3, 5, 8]
        assert catalog.sequence("x").prefix(6).tolist() == [0, 1, 1, 1, 0, 1]

    def test_run_length_word(self):
        assert catalog.sequence("p").prefix(8).tolist() == [1, 2, 1, 1, 2, 2, 2, 1]

    def test_delta_is_shifted_indicator(self):
        delta = catalog.sequence("delta").prefix(12)
        x = catalog.sequence("x").prefix(14)
        assert delta.tolist() == x[2:14].tolist()

    def test_empty_prefix(self):
        assert len(catalog.sequence("d").prefix(0)) == 0

    def test_negative_count_refused(self):
        # a negative count would slice from the end of the cached prefix
        with pytest.raises(ValueError, match="negative"):
            catalog.sequence("u").prefix(-3)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sequence"):
            catalog.sequence("nope")

    def test_inverse_agrees_with_pd_up_to_eight(self):
        d = catalog.sequence("d").prefix(10)
        u = catalog.sequence("u").prefix(10)
        assert d[:9].tolist() == u[:9].tolist()
        assert d[9] == 1 and u[9] == 0


def odd_indicator_oracle(n):
    """v[m] = u(2m+1) by the recurrences, one index at a time."""
    v = []
    for m in range(n):
        if m == 0:
            v.append(1)
        elif m % 2 == 0:
            v.append(v[m // 2 - 1])
        elif m % 4 == 1:
            v.append(0)
        else:
            v.append(v[(m - 3) // 4])
    return v


def assert_inverse_prefix(limit):
    """u below limit: its odd part by the recurrences and by the automaton, its even part zero."""
    u = catalog.inverse_pd_prefix(limit)
    assert u.dtype == np.int8 and len(u) == limit
    assert u[1::2].tolist() == odd_indicator_oracle(limit // 2)
    assert not u[0::2].any()
    assert np.array_equal(u, evaluate_range(catalog.inverse_pd_dfao(), limit))


# the set recurrence grows its bound b as 1, 4, 10, 22, ..., 3 * 2^k - 2
SET_BOUNDS = [3 * 2**k - 2 for k in range(13)]


class TestBuilders:
    @pytest.mark.parametrize(
        "n",
        sorted(
            {0, 1, 2, 3}
            | {2**k + d for k in range(2, 14) for d in (-1, 0, 1)}
            | {b + d for b in SET_BOUNDS for d in (-1, 0, 1)}
        ),
    )
    def test_odd_indicator_at_doubling_boundaries(self, n):
        # limits 2n - 1, 2n and 2n + 1 put the set recurrence's bound at n - 1, n and n
        for limit in range(max(2 * n - 1, 0), 2 * n + 2):
            assert_inverse_prefix(limit)

    @given(st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_odd_indicator_against_recurrence_and_automaton(self, n):
        assert_inverse_prefix(2 * n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 1000, 1023, 1024, 1025, 4097])
    def test_period_doubling_and_thue_morse_per_index(self, n):
        def nu2(m):
            return (m & -m).bit_length() - 1

        assert catalog.sequence("d").build(n).tolist() == [nu2(m + 1) % 2 for m in range(n)]
        assert catalog.digit_sum_mod_prefix(n, 2).tolist() == [bin(m).count("1") % 2 for m in range(n)]

    @pytest.mark.parametrize("p", [3, 5, 7, 61, 67, 101, 127, 131, 65521])
    @pytest.mark.parametrize("n", [0, 1, 2, 48, 49, 50, 343, 1000])
    def test_digit_sum_mod_per_index(self, p, n):
        def digit_sum(m):
            s = 0
            while m:
                m, r = divmod(m, p)
                s += r
            return s

        assert catalog.digit_sum_mod_prefix(n, p).tolist() == [digit_sum(m) % p for m in range(n)]

    @pytest.mark.parametrize("p", [61, 67, 101, 127, 131, 65521])
    def test_digit_sums_past_one_byte(self, p):
        # a block sum j + s[r] reaches 2(p - 1) at m = p^2 - 1: past 127, int8 would wrap
        n = min(p * p, 1 << 17)
        got = catalog.digit_sum_mod_prefix(n, p)
        assert got.dtype == (np.int8 if p <= 128 else np.int64)
        assert np.array_equal(got, digit_sums_mod(n, p))

    def test_inverse_gtm_series_past_one_byte_sums(self):
        want = series.reversion(series.TruncatedSeries(67, digit_sums_mod(8192, 67)))
        assert catalog.series_by_name("up67", 8192) == want

    def test_digit_sum_mod_memory_follows_the_count(self):
        # a broadcast over all p digit rows would hold p * 8 bytes for n = 10
        tracemalloc.start()
        try:
            assert catalog.digit_sum_mod_prefix(10, 1000003).tolist() == list(range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [f + d for f in catalog.fibonacci_numbers(count=22)[6:] for d in (-1, 0, 1)])
    def test_a_definitions_agree_at_fibonacci_boundaries(self, n):
        # the ones of u below 2^k number a Fibonacci number (k odd) or one
        # less (k even); there the set recurrence doubles its limit
        assert len(catalog.sequence("a").build(n)) == n
        report = catalog.cross_check("a", n)
        assert report.passed, str(report)

    @pytest.mark.parametrize("name, indicator, value", [("z", "d", 0), ("o", "d", 1), ("b", "u", 0)])
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000, 4097])
    def test_positions_across_search_slices(self, name, indicator, value, count):
        # slices of 7 indicator terms: hits straddle every slice boundary
        with mock.patch.object(catalog, "_POSITIONS_SLICE", 7):
            got = catalog.sequence(name).build(count)
        want = np.flatnonzero(catalog.sequence(indicator).build(max(4 * count, 64)) == value)[:count]
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_positions_memory_follows_the_result(self):
        # z's 2^21 terms search 2^23 terms of d for zeros: found a slice at
        # a time, not as every hit of the prefix in int64, they peak below
        # twice the 16 MB result
        count = 1 << 21
        tracemalloc.start()
        try:
            z = catalog.sequence("z").build(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(z) == count and peak < 2 * z.nbytes, f"peak {peak / 2**20:.1f} MB"

    def test_a_definitions_agree_past_2_16(self):
        # the set recurrence's limit doubles from 64 to 2^26 for these terms
        report = catalog.cross_check("a", 1 << 17)
        assert report.passed, str(report)


def digit_sums_mod(n, p):
    """s_p(m) mod p for m < n, digit by digit in int64."""
    m, s = np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    while m.any():
        s += m % p
        m //= p
    return s % p


def fibonacci_indicator(n):
    fibs, (f, g) = {1}, (1, 2)
    while f < n:
        fibs.add(f)
        f, g = g, f + g
    return np.array([m in fibs for m in range(n)], dtype=np.int64)


def inverse_pd_reference(n):
    u = np.zeros(n, dtype=np.int64)
    u[1::2] = odd_indicator_oracle(n // 2)
    return u


# an int64 reference for each sequence over an alphabet of one-byte letters
LETTER_REFERENCES = {
    "u": inverse_pd_reference,
    "d": lambda n: np.log2(np.arange(1, n + 1) & -np.arange(1, n + 1)).astype(np.int64) % 2,  # nu_2(m + 1) mod 2
    "t": partial(digit_sums_mod, p=2),
    "p": lambda n: morphisms.run_lengths(digit_sums_mod(4 * n + 16, 2))[:n],
    "x": fibonacci_indicator,
    "delta": lambda n: fibonacci_indicator(n + 2)[2:],
    **{f"tp{p}": partial(digit_sums_mod, p=p) for p in (2, 3, 5, 7)},
}
WIDE_DTYPES = {"z": np.int64, "o": np.int64, "a": np.int64, "b": np.int64, "F": object}


class TestLetterDtypes:
    def test_every_sequence_is_classified(self):
        assert sorted(LETTER_REFERENCES.keys() | WIDE_DTYPES.keys()) == catalog.sequence_names()

    @pytest.mark.parametrize("name", sorted(LETTER_REFERENCES))
    def test_letters_are_held_at_one_byte(self, name):
        # a fresh cache: 0, 1 and 64 terms come from its first build of 64, 65 and 10^5 from rebuilds
        seq = dataclasses.replace(catalog.sequence(name), _cache=None)
        for n in (0, 1, 64, 65, 10**5):
            got, want = seq.prefix(n), LETTER_REFERENCES[name](n)
            assert len(seq._cache) == max(n, 64)
            assert got.dtype == np.int8 and want.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(WIDE_DTYPES))
    def test_positions_and_values_keep_their_dtype(self, name):
        # a short prefix of z fits in a byte, yet 2z + 1 must not wrap
        seq = dataclasses.replace(catalog.sequence(name), _cache=None)
        for n in (1, 65, 1000):
            assert seq.prefix(n).dtype == WIDE_DTYPES[name]

    @pytest.mark.parametrize("name", ["u", "d", "t", "x"])
    def test_one_byte_builds_peak_below_three_bytes_a_term(self, name):
        # in int64 they peaked at 8.3 (u), 9.5 (d), 20.0 (t) and 8.0 (x) bytes a term
        build, n = catalog.sequence(name).build, 1 << 20
        tracemalloc.start()
        try:
            build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n, f"{peak / n:.1f} bytes a term"


# cross-check horizons other than the default 4096
CROSS_CHECK_HORIZONS = {
    "d": 1 << 18,
    "t": 1 << 14,
    "p": 20_000,
    "z": 20_000,
    "o": 20_000,
    "a": 2_000,
    "delta": 20_000,
    "x": 20_000,
}


class TestCrossChecks:
    @pytest.mark.parametrize(
        "name,horizon", [(name, CROSS_CHECK_HORIZONS.get(name, 4096)) for name in catalog.sequence_names()]
    )
    def test_registered_definitions_agree(self, name, horizon):
        report = catalog.cross_check(name, horizon)
        assert report.passed, str(report)

    def test_corrupted_definition_detected(self):
        def corrupted(n):
            data = catalog.sequence("d").build(n).copy()
            if n > 137:
                data[137] ^= 1
            return data

        with mock.patch.dict(catalog.sequence("d").alternates, {"broken": corrupted}):
            report = catalog.cross_check("d", 1000)
        assert not report.passed
        [(label, index, expected, got)] = report.failures
        assert label == "broken" and index == 137
        assert expected != got

    def test_run_length_gaps_pin_the_first_position(self):
        # o + 2 has the gaps of o: only the first term tells them apart
        o = catalog.sequence("o")
        build = o.build
        with mock.patch.object(o, "build", lambda n: build(n) + 2), mock.patch.object(o, "_cache", None):
            report = catalog.cross_check("o", 1000)
        [(label, index, expected, got)] = report.failures
        assert (label, index, expected, got) == ("run-length-gaps", 0, 3, 1)

    def test_report_format(self):
        report = catalog.cross_check("d", 256)
        assert "pass" in str(report)


class TestComplementForms:
    def test_complement_is_fixed_point_of_swapped_morphism(self):
        n = 4096
        d = catalog.sequence("d").prefix(n)
        via_morphism = morphisms.fixed_point_prefix(morphisms.Morphism({"1": ("1", "0"), "0": ("1", "1")}), "1", n)
        assert [int(c) for c in via_morphism] == (1 - d).tolist()

    def test_exchange_morphism(self):
        e = morphisms.Morphism({0: (1,), 1: (0,)})
        d = catalog.sequence("d").prefix(64)
        swapped = morphisms.apply(morphisms.image_table(e, (0, 1), (0, 1)), d)
        assert swapped.tolist() == (1 - d).tolist()


class TestPositionsStructure:
    def test_ones_positions_are_odd(self):
        a = catalog.inverse_pd_ones_below(1 << 16)
        assert bool(np.all(a % 2 == 1))

    def test_ones_below_small_limits(self):
        # u(1) = u(5) = 1: a position equal to the limit is not below it
        for limit, want in ((0, []), (1, []), (2, [1]), (5, [1]), (6, [1, 5])):
            got = catalog.inverse_pd_ones_below(limit)
            assert got.dtype == np.int64 and got.tolist() == want

    @given(st.integers(0, 1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_ones_below_match_the_dense_prefix(self, limit):
        got = catalog.inverse_pd_ones_below(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.flatnonzero(evaluate_range(catalog.inverse_pd_dfao(), limit)))

    def test_ones_below_powers_of_two_count_fibonacci(self):
        # the ones of u below 2^k number F(k) for odd k and F(k) - 1 for even
        # k, F(0) = F(1) = 1, up to k = 27 where the mod-3 check reads them
        fib = catalog.fibonacci_numbers(count=30)
        for k in range(1, 28):
            assert len(catalog.inverse_pd_ones_below(1 << k)) == fib[k] - (k % 2 == 0)

    def test_expansions_are_exactly_the_language(self):
        # both directions: u(m) = 1 iff the binary expansion of m is accepted
        limit = 1 << 20
        u = catalog.sequence("u").prefix(limit)
        dfa = catalog.ones_positions_language_dfa()
        table = dfa.table
        acc = np.array([bool(o) for o in dfa.outputs])
        values = np.arange(1, limit, dtype=np.int64)
        accepted = np.zeros(limit, dtype=bool)
        bitlen = np.zeros(len(values), dtype=np.int64)
        v = values.copy()
        while v.any():
            bitlen[v > 0] += 1
            v >>= 1
        for length in range(1, 21):
            sel = bitlen == length
            if not sel.any():
                continue
            vv = values[sel]
            st = np.full(len(vv), dfa.initial, dtype=np.int64)
            for bpos in range(length - 1, -1, -1):
                st = table[st, (vv >> bpos) & 1]
            accepted[vv] = acc[st]
        assert bool(np.array_equal(accepted, u == 1))

    def test_one_pass_holds_the_count(self):
        # z, o, b and z's tm-alternation-positions take the first count hits in
        # max(4 * count, 64) terms of d, u and t's alternations
        n = 1 << 22
        counts = np.arange(1, n // 4 + 1)
        terms = np.maximum(4 * counts, 64)
        d_ones = np.cumsum(catalog.sequence("d").build(n))[terms - 1]
        u_ones = np.cumsum(catalog.inverse_pd_prefix(n))[terms - 1]
        alternations = np.cumsum(np.diff(catalog.sequence("t").build(n + 1)) % 2)[terms - 1]
        assert bool(np.all(terms - d_ones >= counts)) and bool(np.all(d_ones >= counts))
        assert bool(np.all(terms - u_ones >= counts))
        assert bool(np.all(alternations >= counts))

    @pytest.mark.parametrize(
        "name, label, indicator, value",
        [
            ("z", None, lambda n: catalog.sequence("d").build(n), 0),
            ("o", None, lambda n: catalog.sequence("d").build(n), 1),
            ("b", None, catalog.inverse_pd_prefix, 0),
            ("z", "tm-alternation-positions", lambda n: np.diff(catalog.sequence("t").build(n + 1)) % 2, 1),
        ],
        ids=["z", "o", "b", "z-tm-alternation-positions"],
    )
    def test_one_pass_builds_match_a_long_prefix(self, name, label, indicator, value):
        fib = catalog.fibonacci_numbers(limit=1 << 20)
        counts = sorted(set(range(1, 65)) | {1 << k for k in range(21)} | {f + e for f in fib for e in (-1, 1)})
        want = np.flatnonzero(indicator(1 << 22) == value)[: counts[-1]]
        build = catalog.sequence(name).build if label is None else catalog.sequence(name).alternates[label]
        for count in counts:
            got = build(count)
            assert got.dtype == np.int64 and np.array_equal(got, want[:count]), count

    def test_language_membership_matches_the_enumeration(self):
        # check 9 reads whether each one of u below 2^20 is in L_a1 and in L_a2
        # from evaluate_range; the reference enumerates each language's words
        # of at most 20 digits, its members below 2^20, and looks the ones up
        a20 = catalog.inverse_pd_ones_below(1 << 20)
        for dfa in (catalog.odd_ones_language_dfa(), catalog.marked_block_language_dfa()):
            count = sum(automata.word_counts(dfa, 20))
            want = np.isin(a20, automata.genealogical_words(dfa, count))
            assert 0 < want.sum() < len(a20)
            assert np.array_equal(automata.evaluate_range(dfa, 1 << 20)[a20] == 1, want)

    def test_zero_positions_complement(self):
        limit = 10_000
        u = catalog.sequence("u").prefix(limit)
        b = catalog.sequence("b").prefix(int((u == 0).sum()))
        assert np.array_equal(b, np.nonzero(u == 0)[0])


class TestSeriesCatalog:
    def test_gf_modulus_inference(self):
        assert catalog.generating_function("tp3", 16).p == 3
        assert catalog.generating_function("d", 16).p == 2

    def test_series_by_name(self):
        u = catalog.series_by_name("u", 128)
        assert u.coeffs[:41].tolist() == U_PREFIX
        up3 = catalog.series_by_name("up3", 128)
        assert up3.p == 3
        inv = catalog.series_by_name("inv:tp3", 128)
        assert inv == up3

    def test_bfile(self):
        assert "".join(catalog.bfile_blocks("a", 4, offset=0)) == "0 1\n1 5\n2 7\n3 13\n"
        assert "".join(catalog.bfile_blocks("F", 3, offset=1)) == "1 1\n2 1\n3 2\n"


_S = catalog._BFILE_SLICE
_SPECIAL = (0, 1, -1, 9, -10, 2**63 - 1, -(2**63 - 1), -(2**63))


class TestBfileFormatting:
    """bfile_blocks against one f-string per term, the reference it replaced."""

    @staticmethod
    def reference(values, offset):
        return "".join(f"{i} {v}\n" for i, v in enumerate(values.tolist(), offset))

    @given(
        count=st.integers(0, 3 * _S),
        bits=st.integers(0, 63),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(st.tuples(st.integers(0, 3 * _S), st.sampled_from(_SPECIAL)), max_size=8),
        offset=st.one_of(
            st.integers(-2 * _S, 2 * _S),
            st.builds(lambda k, sign, d: sign * 10**k + d, st.integers(1, 18), st.sampled_from((1, -1)), st.integers(-_S, _S)),
            st.integers(2**63 - 4 * _S, 2**63 + 8),
            st.integers(-(2**63), -(2**63) + 4 * _S),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_term_reference(self, count, bits, seed, specials, offset):
        # magnitudes below 2^bits spread over every digit count, either sign, plus the extremes
        rng = np.random.default_rng(seed)
        values = rng.integers(-(2**63), 2**63, count, dtype=np.int64) >> rng.integers(63 - bits, 64, count)
        for position, value in specials:
            if position < count:
                values[position] = value
        drawn = catalog.NamedSequence("drawn", "drawn int64 terms", lambda n: values)
        with mock.patch.dict(catalog._REGISTRY, {"drawn": drawn}):
            assert "".join(catalog.bfile_blocks("drawn", count, offset)) == self.reference(values, offset)

    @pytest.mark.parametrize("offset", [0, 1, -5, 2**63 - (2 * _S + 3)])
    def test_one_byte_terms_take_the_vectorized_path(self, offset):
        narrow = np.random.default_rng(offset % 1000).integers(-128, 128, 2 * _S + 3, dtype=np.int8)
        narrow[:4] = (-128, 127, 0, -1)
        texts = []
        for values in (narrow, narrow.astype(np.int64)):
            drawn = catalog.NamedSequence("drawn", "drawn terms", lambda n, values=values: values)
            with (
                mock.patch.dict(catalog._REGISTRY, {"drawn": drawn}),
                mock.patch.object(catalog, "_ascii_digits", wraps=catalog._ascii_digits) as digits,
            ):
                texts.append("".join(catalog.bfile_blocks("drawn", len(values), offset)))
            assert digits.call_count == 2 * 3  # indices and terms of each of three slices
        assert texts[0] == texts[1] == self.reference(narrow, offset)

    @pytest.mark.parametrize(
        "terms",
        [
            [9, 10, -9, -10, 0, 99, 100, -100],  # digit counts change inside the block
            [999_999_999, -999_999_999, 0],  # 9 digits
            [9_999_999_999, 2**32, -(2**32), 1],  # 10 digits, and past 2^32
        ],
    )
    def test_digit_counts(self, terms):
        values = np.array(terms, dtype=np.int64)
        drawn = catalog.NamedSequence("drawn", "drawn int64 terms", lambda n: values)
        with mock.patch.dict(catalog._REGISTRY, {"drawn": drawn}):
            for offset in (96, -3, -100):
                assert "".join(catalog.bfile_blocks("drawn", len(terms), offset)) == self.reference(values, offset)
