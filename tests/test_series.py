"""Power-series arithmetic over F_p: examples, oracles, and properties."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pdseq import catalog, series
from pdseq.series import (
    PolyRelation,
    TruncatedSeries,
    compose,
    power_relation_search,
    relation_residual,
    reversion,
)

D_LISTING = [0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1]


def series_of(p, coeffs, n=None):
    c = list(coeffs)
    if n is not None:
        c = c + [0] * (n - len(c))
    return TruncatedSeries(p, c)


def brute_compose(a, b):
    """Independent O(N^3) composition by explicit powers of b, each the
    product of the last with b by int_conv."""
    p, n = a.p, min(a.precision, b.precision)
    total = [0] * n
    power = [1] + [0] * (n - 1)
    for m in range(n):
        total = [(t + int(a.coeffs[m]) * x) % p for t, x in zip(total, power)]
        power = int_conv(power, b.coeffs[:n], p, n)
    return TruncatedSeries(p, total)


def int_conv(a, b, p, out_len):
    """Reference product of two coefficient lists mod p, truncated to out_len:
    Kronecker substitution on Python integers, one byte-aligned slot per
    coefficient wide enough for the exact sum."""
    a, b = [int(x) for x in a], [int(x) for x in b]
    if not a or not b:
        return [0] * out_len
    slot = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 8) // 8

    def pack(xs):
        return int.from_bytes(b"".join(x.to_bytes(slot, "little") for x in xs), "little")

    raw = (pack(a) * pack(b)).to_bytes(slot * (len(a) + len(b)), "little")
    c = [int.from_bytes(raw[i * slot : (i + 1) * slot], "little") % p for i in range(len(a) + len(b) - 1)]
    return (c + [0] * out_len)[:out_len]


def int_horner_compose(a, b, p):
    """Reference a(b) mod (p, X^n) by Horner's rule on int_conv."""
    n = min(len(a), len(b))
    acc = [0] * n
    for c in reversed([int(x) for x in a[:n]]):
        acc = int_conv(acc, b[:n], p, n)
        acc[0] = (acc[0] + c) % p
    return acc


ADVERSARIAL_PRIMES = [2, 3, 65521, 1000003, 2**31 - 1]


def switch_lengths(p, limit=10300):
    """Lengths L where the plan for two operands of L coefficients changes
    (direct/FFT, limb split of b or of both, refusal), with their neighbours."""

    def plan(n):
        try:
            nfft, sa, sb = series._plan(n, n, p)
        except ValueError:
            return "refused"
        return (nfft > 0, sa, sb)

    points = {1, 2, 3}
    for n in range(2, limit):
        if plan(n) != plan(n - 1):
            points |= {n - 1, n, n + 1}
    return sorted(points)


def adversarial(p, n, kind, rng):
    """n residues mod p: all p-1, the largest signed residues, or random."""
    if kind == "p-1":
        return np.full(n, p - 1, dtype=np.int64)
    if kind == "half":
        return np.full(n, p // 2, dtype=np.int64)
    if kind == "-half":
        return np.full(n, (p + 1) // 2 % p, dtype=np.int64)
    return rng.integers(0, p, n, dtype=np.int64)


class TestConvolution:
    @given(st.sampled_from(ADVERSARIAL_PRIMES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_conv_mod_against_integers(self, p, data):
        la = data.draw(st.sampled_from(switch_lengths(p)))
        lb = data.draw(st.sampled_from([la, 1, 3, max(1, la // 2), la + 7]))
        out_len = data.draw(st.sampled_from([la + lb - 1, la, min(la, lb), la + lb + 5]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kinds = ("p-1", "half", "-half", "random")
        a = adversarial(p, la, data.draw(st.sampled_from(kinds)), rng)
        b = adversarial(p, lb, data.draw(st.sampled_from(kinds)), rng)
        try:
            got = series._conv_mod(a, b, p, out_len)
        except ValueError:
            with pytest.raises(ValueError):
                series._plan(min(la, out_len), min(lb, out_len), p)
            return
        assert got.dtype == np.int64 and len(got) == out_len
        assert [int(x) for x in got] == int_conv(a[:out_len], b[:out_len], p, out_len)

    @pytest.mark.parametrize("p", ADVERSARIAL_PRIMES)
    def test_mul_all_p_minus_one(self, p):
        for n in switch_lengths(p):
            a = np.full(n, p - 1, dtype=np.int64)
            try:
                got = series._conv_mod(a, a, p, n)
            except ValueError:
                assert p == 2**31 - 1 and n > 10201
                continue
            assert [int(x) for x in got] == int_conv([p - 1] * n, [p - 1] * n, p, n)

    def test_plans_cover_the_switches(self):
        # both sides of the direct/FFT switch, and of the limb splits for
        # 65521 (whole residues up to about 19,200 terms, then b split),
        # 1000003 (b split from 140 terms) and 2^31-1 (whole residues for a
        # few terms, then b split, then both split on the FFT path, then
        # refusal)
        assert series._plan(128, 128, 3) == (0, 0, 0)
        assert series._plan(129, 129, 3) == (512, 0, 0)
        assert series._plan(1 << 14, 1 << 14, 65521) == (1 << 15, 0, 0)
        assert series._plan(1 << 15, 1 << 15, 65521) == (1 << 16, 0, 8)
        assert series._plan(4096, 4096, 1000003) == (8192, 0, 10)
        assert series._plan(8, 8, 2**31 - 1) == (0, 0, 0)
        assert series._plan(9, 9, 2**31 - 1) == (0, 0, 16)
        assert series._plan(256, 256, 2**31 - 1) == (512, 16, 16)
        assert series._plan(10201, 10201, 2**31 - 1) == (32768, 16, 16)
        with pytest.raises(ValueError, match="no exact product path"):
            series._plan(10202, 10202, 2**31 - 1)

    @pytest.mark.parametrize(
        "p, n, plan",
        [(2**31 - 1, 9, (0, 0, 16)), (2**31 - 1, 300, (1024, 16, 16)), (1000003, 4096, (8192, 0, 10))],
        ids=["direct-b", "fft-both", "fft-b"],
    )
    def test_each_operand_split_to_its_width(self, p, n, plan):
        # the bound of a plan holds only if each operand is kept whole or
        # split into limbs of at most 2^(s-1) for its own width s: b alone on
        # the direct path and on the FFT path, both on the FFT path
        assert series._plan(n, n, p) == plan
        seen = []

        def limbs(x, p, s):
            out = real_limbs(x, p, s)
            seen.append((s, len(out), max(int(np.abs(v).max()) for v in out)))
            return out

        real_limbs = series._limbs
        a = np.full(n, p // 2, dtype=np.int64)
        b = np.full(n, (p + 1) // 2, dtype=np.int64)
        with mock.patch.object(series, "_limbs", limbs):
            got = series._conv_mod(a, b, p, n)
        # b's limbs are made when the multiplier is built, a's at the product
        assert [s for s, _, _ in seen] == [plan[2], plan[1]]
        for s, count, top in seen:
            assert count == (2 if s else 1)
            assert top <= (1 << (s - 1) if s else p // 2)
        assert [int(x) for x in got] == int_conv(a, b, p, n)

    @pytest.mark.parametrize(
        "p, switch, before, after",
        [(65521, 19226, (0, 0), (0, 8)), (1000003, 72191, (0, 10), (10, 10))],
        ids=["whole-b", "b-both"],
    )
    @pytest.mark.parametrize("kinds", [("p-1", "p-1"), ("half", "-half")], ids=["p-1", "half"])
    def test_conv_mod_beside_switches_past_10300(self, p, switch, before, after, kinds):
        # switch_lengths stops at 10300 terms, before 65521's whole -> b split
        # switch and 1000003's b split -> both split switch; products of
        # n <= switch + 1 terms truncated to n are prefixes of the largest
        assert series._plan(switch - 1, switch - 1, p)[1:] == before
        assert series._plan(switch, switch, p)[1:] == after
        a, b = (adversarial(p, switch + 1, kind, None) for kind in kinds)
        want = int_conv(a, b, p, switch + 1)
        for n in (switch - 1, switch, switch + 1):
            assert [int(x) for x in series._conv_mod(a[:n], b[:n], p, n)] == want[:n]

    @given(
        st.sampled_from(ADVERSARIAL_PRIMES),
        st.integers(1, 5),
        # at these inner lengths 2^31-1 always takes limbs, the others never
        st.sampled_from([1, 2, 3, 40, 255, 256, 257, 300]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matmul_mod_against_integers(self, p, rows, inner, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(("p-1", "half", "random")))
        x = adversarial(p, rows * inner, kind, rng).reshape(rows, inner)
        y = adversarial(p, inner * 3, kind, rng).reshape(inner, 3)
        want = [[sum(int(x[i, k]) * int(y[k, j]) for k in range(inner)) % p for j in range(3)] for i in range(rows)]
        assert series._matmul_mod(x, y, p).tolist() == want

    @pytest.mark.parametrize("inner", [36028, 36029])
    def test_matmul_mod_limb_switch(self, inner):
        # 1000003 keeps whole residues while inner * 500001^2 < 2^53, that
        # is up to 36028 terms, and takes limbs from 36029 on
        p = 1000003
        assert series._limb_split(p, lambda c: inner * c < 1 << 53) == (0 if inner == 36028 else 10)
        rng = np.random.default_rng(inner)
        x = np.full((2, inner), p // 2, dtype=np.int64)
        x[1] = rng.integers(0, p, inner)
        y = np.stack([x[0], x[1], np.full(inner, (p + 1) // 2)], axis=1)
        want = [[sum(int(u) * int(v) for u, v in zip(x[i], y[:, j])) % p for j in range(3)] for i in range(2)]
        assert series._matmul_mod(x, y, p).tolist() == want

    def test_huge_modulus_refused(self):
        with pytest.raises(ValueError, match="too large"):
            TruncatedSeries(2**61 - 1, [0, 1])


class TestMul:
    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_integers_past_int64_reduce_exactly(self, p):
        coeffs = [0, 1, 2**63, -(2**70), 2**64 + 3]
        assert TruncatedSeries(p, coeffs).coeffs.tolist() == [c % p for c in coeffs]

    def test_freshman_dream(self):
        one_plus_x = np.array([1, 1, 0, 0, 0, 0, 0, 0])
        sq = series._conv_mod(one_plus_x, one_plus_x, 2, 8)
        assert list(sq) == [1, 0, 1, 0, 0, 0, 0, 0]

    def test_shift_of_pd_series(self):
        d = catalog.generating_function("d", 16)
        x = series_of(2, [0, 1], 16)
        shifted = series._conv_mod(x.coeffs, d.coeffs, 2, 16)
        assert list(shifted)[: len(D_LISTING) + 1] == [0] + D_LISTING

    @given(
        st.lists(st.integers(0, 2), min_size=64, max_size=64),
        st.lists(st.integers(0, 2), min_size=64, max_size=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_commutative_mod_3(self, xs, ys):
        a, b = np.array(xs), np.array(ys)
        assert np.array_equal(series._conv_mod(a, b, 3, 64), series._conv_mod(b, a, 3, 64))

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_frobenius_endomorphism(self, p, data):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=48, max_size=48))
        a = series_of(p, coeffs)
        assert np.array_equal(series._powers(a.coeffs, p, p + 1, 48)[p], a.frobenius(1).coeffs)


class TestCompose:
    def test_identity_substitution(self):
        a = series_of(3, [2, 1, 0, 2, 1], 12)
        x = series_of(3, [0, 1], 12)
        assert compose(a, x) == a

    def test_hand_convolution(self):
        # (X + X^2) o (X + X^2) = X + X^4 over F_2: the cross terms cancel
        f = series_of(2, [0, 1, 1], 8)
        assert list(compose(f, f).coeffs) == [0, 1, 0, 0, 1, 0, 0, 0]

    def test_round_trip_with_inverse_series(self):
        d = catalog.generating_function("d", 512)
        u = reversion(d)
        x = series_of(2, [0, 1], 512)
        assert compose(d, u) == x
        assert compose(u, d) == x

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus mismatch: 2 != 3"):
            compose(series_of(2, [1], 4), series_of(3, [0, 1], 4))

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError, match="constant term"):
            compose(series_of(2, [1, 1], 4), series_of(2, [1, 1], 4))

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_against_brute_force(self, p, data):
        ac = data.draw(st.lists(st.integers(0, p - 1), min_size=20, max_size=20))
        bc = data.draw(st.lists(st.integers(0, p - 1), min_size=20, max_size=20))
        bc[0] = 0
        a, b = series_of(p, ac), series_of(p, bc)
        assert compose(a, b) == brute_compose(a, b)


class TestBernstein:
    @given(st.sampled_from([2, 3, 5, 7]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_against_brent_kung_and_references(self, p, data):
        base = series._BERNSTEIN_BASE
        # both sides of the base case (where the cost model also switches for
        # these p) and of one and two levels of recursion
        n = data.draw(st.sampled_from([2, 3, base - 1, base, base + 1, p * base, p * base + 1, 300]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ac = rng.integers(0, p, n, dtype=np.int64)
        bc = rng.integers(0, p, n, dtype=np.int64)
        bc[0] = 0
        want = int_horner_compose(ac, bc, p)
        assert series._compose_bernstein(ac, bc, p, n).tolist() == want
        assert series._compose_brent_kung(ac, bc, p, n).tolist() == want
        with mock.patch.object(series, "_COLUMNS", 7):  # block values in column ranges
            assert series._compose_brent_kung(ac, bc, p, n).tolist() == want
        a, b = TruncatedSeries(p, ac), TruncatedSeries(p, bc)
        assert compose(a, b) == brute_compose(a, b)
        assert compose(a, b).coeffs.tolist() == want

    def test_cost_model(self):
        base = series._BERNSTEIN_BASE
        for p in (2, 3, 5, 7):
            assert not series._uses_bernstein(p, base)
            assert series._uses_bernstein(p, base + 1)
            assert series._uses_bernstein(p, 1 << 18)
        assert not series._uses_bernstein(65521, 1 << 14)
        assert not series._uses_bernstein(1000003, 4096)

    def test_compose_bytes_bounds_bernstein(self):
        import tracemalloc

        for p, n in ((2, 1 << 13), (3, 3**8), (7, 5000)):
            a = TruncatedSeries(p, np.arange(n) % p)
            b = TruncatedSeries(p, np.arange(n) * 5 % p)
            tracemalloc.start()
            try:
                compose(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert series._uses_bernstein(p, n) and peak <= series.compose_bytes(p, n)
        # Brent-Kung: 129 powers and 128 blocks of 16384 coefficients, 3 copies
        # of the blocks on 4096 columns, and 256 bytes per coefficient for the
        # products
        m = 128
        assert series.compose_bytes(65521, 1 << 14) == (
            8 * (1 << 14) * (2 * m + 1) + 8 * 4096 * m * 3 + 256 * (1 << 14)
        )

    @pytest.mark.parametrize("p, n", [(3, 3**7), (5, 5**5)])
    def test_generalized_thue_morse_inverse(self, p, n):
        a = catalog.generating_function(f"tp{p}", n)
        v = catalog.inverse_gtm_series(p, n)
        x = series_of(p, [0, 1], n)
        assert series._uses_bernstein(p, n)
        assert compose(a, v) == x
        assert compose(v, a) == x

    def test_large_prime_self_inverse(self):
        # -X/(1-X) is its own compositional inverse
        for p, n in ((2**31 - 1, 8), (1000003, 4096)):
            a = TruncatedSeries(p, [0] + [p - 1] * (n - 1))
            assert reversion(a) == a


class TestLowDegree:
    """compose at the cost of a's length up to its last nonzero coefficient."""

    @given(st.sampled_from([2, 3, 5, 7, 65521]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_against_references(self, p, data):
        n = data.draw(st.sampled_from([2, 3, 40, 63, 64, 65, 100, 200]))
        length = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ac = np.zeros(n, dtype=np.int64)
        ac[:length] = rng.integers(0, p, length, dtype=np.int64)
        ac[length - 1] = rng.integers(1, p)
        bc = rng.integers(0, p, n, dtype=np.int64)
        bc[0] = 0
        want = int_horner_compose(ac, bc, p)
        assert TruncatedSeries(p, ac).length == length
        assert compose(TruncatedSeries(p, ac), TruncatedSeries(p, bc)).coeffs.tolist() == want
        assert series._compose_brent_kung(ac[:length], bc, p, n).tolist() == want
        with mock.patch.object(series, "_COLUMNS", 7):
            assert series._compose_brent_kung(ac[:length], bc, p, n).tolist() == want

    def test_zero_series(self):
        a = series_of(5, [0], 100)
        b = series_of(5, [0, 1, 2], 100)
        assert a.length == 1
        assert compose(a, b) == a

    def test_cost_model_switches_at_the_length(self):
        # Bernstein's (p-1) log_p n products against Brent-Kung's 2 sqrt(length)
        for p, n, last in ((2, 4096, 36), (3, 6561, 64), (5, 5**5, 100), (7, 7**4, 144), (3, 1 << 13, 67)):
            assert not series._uses_bernstein(p, n, last)
            assert series._uses_bernstein(p, n, last + 1)
            assert series._uses_bernstein(p, n) == series._uses_bernstein(p, n, n)
        # up to the recursion's base length Brent-Kung, whatever the length
        assert not series._uses_bernstein(2, series._BERNSTEIN_BASE, series._BERNSTEIN_BASE)
        assert not series._uses_bernstein(65521, 1 << 16, 1 << 16)

    def test_compose_bytes_bounds_low_degree_brent_kung(self):
        import tracemalloc

        rng = np.random.default_rng(7)
        cases = [(65521, n, length) for n in (1 << 10, 1 << 12, 1 << 15) for length in (3, 7, 16, 65)]
        # dense a, where the copies of the block evaluation's column ranges
        # count, with and (at p = 2^31-1) without whole-residue products
        cases += [(65521, 1 << 12, 1 << 12), (65521, 1 << 14, 1 << 14), (2**31 - 1, 1 << 12, 1 << 12)]
        for p, n, length in cases:
            ac = np.zeros(n, dtype=np.int64)
            ac[1] = 1
            ac[2:length] = rng.integers(1, p, length - 2)
            a = TruncatedSeries(p, ac)
            b = TruncatedSeries(p, np.concatenate([[0], rng.integers(0, p, n - 1)]))
            assert not series._uses_bernstein(p, n, length)
            for run in (lambda: compose(a, b), lambda: reversion(a)):
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= series.compose_bytes(p, n, length)
        # 3 powers and 2 blocks where the dense series needs 33 and 32, and 3
        # copies of the blocks on the 1024 columns
        assert series.compose_bytes(65521, 1024, 3) == 8 * 1024 * 5 + 8 * 1024 * 2 * 3 + 256 * 1024
        assert series.compose_bytes(65521, 1024) == 8 * 1024 * 65 + 8 * 1024 * 32 * 3 + 256 * 1024

    def test_reversion_of_polynomials(self):
        # X + X^2 inverts to the signed Catalan numbers, here on the
        # Brent-Kung path for every p
        n = 300
        for p in (2, 3, 65521):
            assert not series._uses_bernstein(p, n, 3)
            v = reversion(series_of(p, [0, 1, 1], n))
            catalan = [0] + [(-1) ** k * math.comb(2 * k, k) // (k + 1) % p for k in range(n - 1)]
            assert v.coeffs.tolist() == catalan


class TestReversion:
    def test_identity(self):
        x = series_of(5, [0, 1], 16)
        assert reversion(x) == x

    def test_pd_series_prefix(self):
        u = reversion(catalog.generating_function("d", 41))
        expected = [int(c) for c in "01000101000001000100000100000101000001000"]
        assert list(u.coeffs) == expected

    def test_x_plus_x_squared(self):
        # oracle: iterate V <- X + V^2 to a fixed point, then compare
        n = 64
        x = series_of(2, [0, 1], n)
        v = x
        for _ in range(8):
            v = TruncatedSeries(2, x.coeffs + series._conv_mod(v.coeffs, v.coeffs, 2, n))
        got = reversion(series_of(2, [0, 1, 1], n))
        assert got == v
        ones = {i for i, c in enumerate(got.coeffs) if c}
        assert ones == {1, 2, 4, 8, 16, 32}

    def test_preconditions(self):
        with pytest.raises(ValueError, match="constant"):
            reversion(series_of(2, [1, 1], 8))
        with pytest.raises(ValueError, match="linear"):
            reversion(series_of(2, [0, 0, 1], 8))

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_precision_one(self, p):
        # mod X the inverse of any series without constant term is 0
        assert reversion(series_of(p, [0])) == series_of(p, [0])
        with pytest.raises(ValueError, match="constant"):
            reversion(series_of(p, [1]))

    @given(st.sampled_from([2, 3, 5, 65521, 2**31 - 1]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, p, data):
        # lengths on both sides of the Bernstein base, so both compose paths
        # run; for odd p the Newton steps' X^(m-1) correction is nonzero
        n = data.draw(st.integers(2, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        coeffs = rng.integers(0, p, n, dtype=np.int64)
        coeffs[0] = 0
        coeffs[1] = rng.integers(1, p)
        a = TruncatedSeries(p, coeffs)
        v = reversion(a)
        x = series_of(p, [0, 1], n)
        assert compose(a, v) == x
        assert compose(v, a) == x


class TestRelations:
    def test_pd_relation_residual_zero(self):
        d = catalog.generating_function("d", 1024)
        assert relation_residual(catalog.pd_gf_relation(), d).is_zero()

    def test_inverse_relations_residual_zero(self):
        u = reversion(catalog.generating_function("d", 1024))
        assert relation_residual(catalog.inverse_pd_relation_cubic(), u).is_zero()
        assert relation_residual(catalog.inverse_pd_relation_quartic(), u).is_zero()

    def test_generalized_tm_relation(self):
        t3 = catalog.generating_function("tp3", 729)
        assert relation_residual(catalog.generalized_tm_relation(3), t3).is_zero()

    @given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2, 64, 700]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_residual_against_integer_powers(self, p, n, data):
        pattern = st.one_of(st.tuples(st.just("pow"), st.integers(0, p + 1)), st.tuples(st.just("frob"), st.integers(0, 2)))
        patterns = data.draw(st.lists(pattern, min_size=1, max_size=4, unique=True))
        terms = tuple((tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))), pat) for pat in patterns)
        assume(any(any(c) for c, _ in terms))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ac = [int(x) for x in rng.integers(0, p, n)]
        # a^0 .. a^(p+1) by int_conv, and a(X^(p^i)) by spreading the coefficients
        powers = [[1] + [0] * (n - 1)]
        for _ in range(p + 1):
            powers.append(int_conv(powers[-1], ac, p, n))
        want = [0] * n
        for coeffs, (kind, e) in terms:
            if kind == "pow":
                term = powers[e]
            else:
                term = [0] * n
                term[:: p**e] = ac[: len(term[:: p**e])]
            want = [(w + x) % p for w, x in zip(want, int_conv(coeffs, term, p, n))]
        assert relation_residual(PolyRelation(p, terms), TruncatedSeries(p, ac)).coeffs.tolist() == want

    def test_nonzero_residual_detected(self):
        d = catalog.generating_function("d", 128)
        bogus = PolyRelation(2, (((1,), ("pow", 1)), ((0, 1), ("pow", 0))))
        assert not relation_residual(bogus, d).is_zero()

    def test_relation_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            PolyRelation(2, (((0, 0), ("pow", 1)),))
        with pytest.raises(ValueError, match="duplicate"):
            PolyRelation(2, (((1,), ("pow", 1)), ((1, 1), ("pow", 1))))

    def test_json_round_trip(self):
        # to_json carries every term: the relation rebuilds from its JSON
        rel = catalog.inverse_pd_relation_quartic()
        data = json.loads(rel.to_json())
        terms = tuple((tuple(t["coeffs"]), tuple(t["pattern"])) for t in data["terms"])
        assert PolyRelation(data["p"], terms) == rel
        s = catalog.generating_function("d", 32)
        assert TruncatedSeries.from_json(s.to_json()) == s


class TestPowerRelationSearch:
    def test_recovers_quartic_relation(self):
        u = reversion(catalog.generating_function("d", 512))
        rel = power_relation_search(u, 2, 3)
        assert rel is not None
        assert rel.terms == (
            ((1,), ("frob", 0)),
            ((0, 0, 0, 1), ("frob", 1)),
            ((0, 0, 0, 1), ("frob", 2)),
            ((0, 1), ("pow", 0)),
        )

    def test_identity_series_relation(self):
        x = series_of(3, [0, 1], 256)
        rel = power_relation_search(x, 1, 2)
        assert rel is not None
        assert relation_residual(rel, x).is_zero()
        terms = dict((pat, c) for c, pat in rel.terms)
        assert terms[("frob", 0)] == (1,)
        assert terms[("pow", 0)] == (0, 2)  # the difference term -X mod 3

    def test_base3_inverse_needs_degree_24(self):
        # depth 3 admits no relation below coefficient degree 24
        u3 = catalog.inverse_gtm_series(3, 2187)
        assert power_relation_search(u3, 3, 12) is None
        rel = power_relation_search(u3, 3, 24)
        assert rel is not None
        assert relation_residual(rel, u3).is_zero()

    def test_precision_guard(self):
        small = series_of(2, [0, 1], 32)
        with pytest.raises(ValueError, match="precision"):
            power_relation_search(small, 3, 8)
