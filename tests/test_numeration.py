"""Numeration systems: base-k, Zeckendorf greedy, genealogical rank/unrank."""

import pytest

from oracles import Ans, BaseK, Zeckendorf, accepts, all_words, evaluate, genealogical_words
from pdseq import catalog
from pdseq.catalog import fibonacci_numbers


class TestBaseK:
    def test_examples(self):
        b2 = BaseK(2)
        assert b2.rep(13) == (1, 1, 0, 1)
        assert b2.rep(0) == ()
        assert BaseK(3).rep(5) == (1, 2)

    def test_round_trip(self):
        # Python's int(text, base) reads the digits back
        for k in (2, 3, 10):
            s = BaseK(k)
            assert all(int("0" + "".join(map(str, s.rep(n))), k) == n for n in range(10_000))
            assert all(s.rep(n)[0] != 0 for n in range(1, 10_000))


class TestZeckendorf:
    def test_weights(self):
        assert fibonacci_numbers(limit=30)[1:] == [1, 2, 3, 5, 8, 13, 21]
        assert fibonacci_numbers(count=5) == [1, 1, 2, 3, 5]

    def test_examples(self):
        z = Zeckendorf()
        assert z.rep(0) == ()
        assert z.rep(1) == (1,)
        assert z.rep(4) == (1, 0, 1)

    def test_round_trip_and_shape(self):
        z = Zeckendorf()
        weights = fibonacci_numbers(count=30)[1:]
        for n in range(10_000):
            w = z.rep(n)
            assert sum(d * f for d, f in zip(reversed(w), weights)) == n
            assert "11" not in "".join(map(str, w))

    def test_greedy_matches_enumeration_oracle(self):
        # the n-th valid word in genealogical order is the greedy rep of n
        z = Zeckendorf()
        words = genealogical_words(catalog.zeckendorf_language_dfa(), 200)
        assert [z.rep(n) for n in range(200)] == words


class TestAns:
    def test_agrees_with_zeckendorf(self):
        ans = Ans(catalog.zeckendorf_language_dfa())
        z = Zeckendorf()
        assert all(ans.rep(n) == z.rep(n) for n in range(5_000))

    def test_genealogical_monotonicity(self):
        # rep(n) is the n-th word of the genealogical enumeration of the
        # whole language up to length 14
        for name in ("la", "lprime", "lf"):
            dfa = catalog.language(name)
            ans = Ans(dfa)
            words = [w for length in range(15) for w in all_words(length) if accepts(dfa, w)]
            assert [ans.rep(n) for n in range(len(words))] == words
            assert len(words) > 200

    def test_ones_positions_first_words(self):
        ans = Ans(catalog.ones_positions_language_dfa())
        got = ["".join(map(str, ans.rep(n))) for n in range(4)]
        assert got == ["1", "101", "111", "1101"]

    def test_finite_language_rejected(self):
        from pdseq.automata import Dfa

        finite = Dfa(("a", "dead"), 0, (0, 1), [[1, 1], [1, 1]], (True, False), "msd")
        with pytest.raises(ValueError, match="infinite"):
            Ans(finite)


class TestAutomaticEval:
    def test_fibonacci_indicator(self):
        z = Zeckendorf()
        m = catalog.fibonacci_indicator_dfao()
        got = [evaluate(m, n, z) for n in (4, 5, 6)]
        assert got == [0, 1, 0]
        assert evaluate(m, 0, z) == 0

    def test_base2_period_doubling(self):
        b2 = BaseK(2)
        m = catalog.period_doubling_dfao()
        want = catalog.sequence("d").prefix(21)
        assert [evaluate(m, n, b2) for n in range(21)] == [int(v) for v in want]
