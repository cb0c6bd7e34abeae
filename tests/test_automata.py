"""Automata: evaluation, product, minimization, counting, serialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import Ans, BaseK, accepts, all_words, brute_count, evaluate, from_state, output
from pdseq import automata, catalog
from pdseq.automata import (
    Dfa,
    Dfao,
    evaluate_range,
    genealogical_words,
    minimize,
    product,
    union,
    word_counts,
)
from pdseq.morphisms import fixed_point_prefix


def last_letter_dfao(k, read_order):
    """Outputs the last letter read, 0 on the empty word."""
    table = [list(range(k))] * (k + 1)
    return Dfao([f"q{i}" for i in range(k)] + ["start"], k, range(k), table, list(range(k)) + [0], read_order)


def digit_sum_dfao(k, read_order):
    """Outputs the digit sum mod k, which does not depend on the read order."""
    table = [[(s + d) % k for d in range(k)] for s in range(k)]
    return Dfao([f"q{i}" for i in range(k)], 0, range(k), table, range(k), read_order)


@st.composite
def automata_over(draw, cls, k, read_order):
    """A random automaton with 1-6 states over the alphabet 0..k-1."""
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    table = draw(st.lists(st.lists(state, min_size=k, max_size=k), min_size=n, max_size=n))
    outputs = draw(st.lists(st.booleans() if cls is Dfa else st.integers(0, 3), min_size=n, max_size=n))
    return cls([f"q{i}" for i in range(n)], draw(state), range(k), table, outputs, read_order)


class TestEvaluation:
    def test_pd_automaton_values(self):
        m = catalog.period_doubling_dfao()
        base2 = BaseK(2)
        assert evaluate(m, 9, base2) == 1
        d = catalog.sequence("d").prefix(64)
        assert [evaluate(m, n, base2) for n in range(64)] == [int(v) for v in d]

    def test_inverse_pd_automaton_values(self):
        m = catalog.inverse_pd_dfao()
        base2 = BaseK(2)
        assert evaluate(m, 9, base2) == 0
        u = catalog.sequence("u").prefix(64)
        assert [evaluate(m, n, base2) for n in range(64)] == [int(v) for v in u]

    def test_empty_representation_gives_initial_output(self):
        for m in (catalog.period_doubling_dfao(), catalog.inverse_pd_dfao(), catalog.fibonacci_indicator_dfao()):
            assert output(m, ()) == m.outputs[m.initial]

    def test_letter_outside_alphabet(self):
        m = catalog.period_doubling_dfao()
        with pytest.raises(ValueError, match="alphabet"):
            output(m, (0, 2))

    def test_vectorized_matches_scalar(self):
        base2 = BaseK(2)
        for m in (catalog.period_doubling_dfao(), catalog.inverse_pd_dfao()):
            got = evaluate_range(m, 300)
            want = [evaluate(m, n, base2) for n in range(300)]
            assert list(got) == want

    def test_empty_range(self):
        for m in (catalog.period_doubling_dfao(), catalog.inverse_pd_dfao()):
            assert len(evaluate_range(m, 0)) == 0
        assert len(evaluate_range(catalog.fibonacci_indicator_dfao(), 0, catalog.zeckendorf_language_dfa())) == 0

    @pytest.mark.parametrize(
        "outputs, dtype", [((0, 1), np.int8), ((-128, 127), np.int8), ((0, 128), np.int64), ((-129, 0), np.int64)]
    )
    def test_outputs_take_one_byte_where_they_fit(self, outputs, dtype):
        # the dtype follows the output alphabet, on the base-k path and the language path
        lf = catalog.zeckendorf_language_dfa()
        m = Dfao(("even", "odd"), 0, (0, 1), [[0, 1], [1, 0]], outputs, "msd")
        for got, numeration in ((evaluate_range(m, 300), BaseK(2)), (evaluate_range(m, 300, lf), Ans(lf))):
            assert got.dtype == dtype
            assert got.tolist() == [evaluate(m, n, numeration) for n in range(300)]

    @given(st.sampled_from([2, 3, 4]), st.sampled_from(["lsd", "msd"]), st.integers(0, 700), st.data())
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_scalar_on_random_automata(self, k, read_order, count, data):
        m = data.draw(automata_over(Dfao, k, read_order))
        base = BaseK(k)
        assert evaluate_range(m, count).tolist() == [evaluate(m, n, base) for n in range(count)]

    @given(st.sampled_from([2, 3]), st.integers(0, 700), st.sampled_from([1, 2, 7, automata._GATHER]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_enumeration_matches_unranking(self, k, count, gather, data):
        # each length's words are counted, extended and cut a slice of gather words at a time
        language = data.draw(automata_over(Dfa, k, "msd"))
        m = data.draw(automata_over(Dfao, k, "msd"))
        try:
            ans = Ans(language)
        except ValueError:
            assume(False)  # unranking is defined on infinite languages only
        words = [ans.rep(n) for n in range(count)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(automata, "_GATHER", gather)
            if words and k ** len(words[-1]) > 1 << 63:
                with pytest.raises(ValueError, match="overflow"):
                    genealogical_words(language, count)
                return
            values = genealogical_words(language, count)
            outputs = evaluate_range(m, count, language)
        assert values.tolist() == [sum(d * k**i for i, d in enumerate(reversed(w))) for w in words]
        assert outputs.tolist() == [evaluate(m, n, ans) for n in range(count)]

    @pytest.mark.parametrize("k, length", [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 5)])
    def test_counts_at_base_k_length_boundaries(self, k, length):
        # the n-digit numbers end at k^n - 1; a last letter read that is the
        # leading digit (LSD-first) or the last digit (MSD-first) shows the order
        base = BaseK(k)
        # the base-k representations: the empty word, or no leading zero
        table = [[2] + [1] * (k - 1), [1] * k, [2] * k]
        language = Dfa(("start", "digits", "dead"), 0, range(k), table, (True, True, False), "msd")
        for order in ("lsd", "msd"):
            for m in (last_letter_dfao(k, order), digit_sum_dfao(k, order)):
                for count in (k**length - 1, k**length, k**length + 1):
                    want = [evaluate(m, n, base) for n in range(count)]
                    assert evaluate_range(m, count).tolist() == want
                    if order == "msd":
                        assert genealogical_words(language, count).tolist() == list(range(count))

    @pytest.mark.parametrize("count", sorted({f + d for f in catalog.fibonacci_numbers(count=15)[2:] for d in (-1, 0, 1)}))
    def test_counts_at_fibonacci_boundaries(self, count):
        # the words of L_F up to a length, and the ones of u (the words of L_a)
        # below a power of two, number a Fibonacci number or one less
        lf, x = catalog.zeckendorf_language_dfa(), catalog.fibonacci_indicator_dfao()
        ans = Ans(lf)
        words = [ans.rep(n) for n in range(count)]
        values = genealogical_words(lf, count)
        assert values.tolist() == [int("".join(map(str, w)) or "0", 2) for w in words]
        assert evaluate_range(x, count, lf).tolist() == [evaluate(x, n, ans) for n in range(count)]
        la = catalog.ones_positions_language_dfa()
        ans = Ans(la)
        values = genealogical_words(la, count)
        words = [ans.rep(n) for n in range(count)]
        assert values.tolist() == [int("".join(map(str, w)), 2) for w in words]
        assert values.tolist() == catalog.inverse_pd_ones_below(values[-1] + 1).tolist()

    def test_memory_budget_of_an_enumeration(self):
        # the 2.4 MB result, the words of the two longest lengths and a slice's
        # temporaries; extending every word of the last length took 6 times the result
        count = 300_000
        tracemalloc.start()
        try:
            genealogical_words(catalog.ones_positions_language_dfa(), count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * count, f"peak {peak / 2**20:.1f} MB"

    def test_non_integer_outputs_refused(self):
        pairs = product(catalog.zeckendorf_language_dfa(), catalog.fibonacci_indicator_dfao())
        with pytest.raises(ValueError, match="integer outputs"):
            evaluate_range(pairs, 10)

    def test_enumeration_refusals(self):
        finite = Dfa(("a", "dead"), 0, (0, 1), [[1, 1], [1, 1]], (True, False), "msd")
        assert genealogical_words(finite, 1).tolist() == [0]
        with pytest.raises(ValueError, match="fewer than 2"):
            genealogical_words(finite, 2)
        # 0*1 has one word per length; the 64th is too long for int64 values
        sparse = Dfa(("zeros", "one", "dead"), 0, (0, 1), [[0, 1], [2, 2], [2, 2]], (False, True, False), "msd")
        assert genealogical_words(sparse, 63).tolist() == [1] * 63
        with pytest.raises(ValueError, match="overflow"):
            genealogical_words(sparse, 64)

    @pytest.mark.parametrize("m", [catalog.inverse_pd_dfao(), catalog.odd_ones_language_dfa()], ids=["lsd", "msd"])
    def test_memory_budget_of_a_range(self, m):
        # the result and the per-length state arrays, a byte a term each
        tracemalloc.start()
        try:
            evaluate_range(m, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MB"

    def test_pd_output_is_trailing_ones_parity(self):
        # the two-state machine computes nu_2(n+1) mod 2 for every index
        limit = 1 << 20
        got = evaluate_range(catalog.period_doubling_dfao(), limit)
        assert np.array_equal(got, fixed_point_prefix(catalog.period_doubling_morphism(), 0, limit))


class TestProduct:
    def test_reachable_pair_count(self):
        prod = product(catalog.zeckendorf_language_dfa(), catalog.fibonacci_indicator_dfao())
        assert prod.num_states == 8

    def test_one_state_identity(self):
        a = catalog.inverse_pd_dfao()
        one = Dfao(("only",), 0, (0, 1), [[0, 0]], ("*",), "lsd")
        prod = product(a, one)
        assert prod.num_states == a.num_states
        # outputs are pairs carrying a's outputs unchanged
        stripped = [o[0] for o in prod.outputs]
        assert stripped == list(a.canonical().outputs)

    def test_state_bound(self):
        a = catalog.zeckendorf_language_dfa()
        b = catalog.fibonacci_indicator_dfao()
        assert product(a, b).num_states <= a.num_states * b.num_states

    def test_read_order_mismatch(self):
        a = catalog.inverse_pd_dfao()  # lsd
        b = catalog.fibonacci_indicator_dfao()  # msd
        with pytest.raises(ValueError, match="read-order"):
            product(a, b)


class TestMinimize:
    def test_two_state_machine_already_minimal(self):
        m = minimize(catalog.period_doubling_dfao())
        assert m.num_states == 2

    def test_duplicate_states_merge(self):
        # two redundant copies of the sink state collapse
        m = Dfao(("s", "a", "b"), 0, (0, 1), [[1, 2], [1, 1], [2, 2]], (0, 1, 1), "lsd")
        assert minimize(m).num_states == 2

    def test_behaviour_preserved(self):
        for m in (catalog.inverse_pd_dfao(), catalog.period_doubling_dfao()):
            mini = minimize(m)
            limit = 1 << 16
            assert np.array_equal(evaluate_range(mini, limit), evaluate_range(m, limit))

    def test_same_up_to_renaming(self):
        m = catalog.inverse_pd_dfao()
        labels = [f"state-{i}" for i in range(m.num_states)]
        relabeled = Dfao(labels, m.initial, m.alphabet, m.table, m.outputs, m.read_order)
        assert m.same_up_to_renaming(relabeled)
        assert not m.same_up_to_renaming(catalog.period_doubling_dfao())

    @given(st.sampled_from([2, 3]), st.sampled_from(["lsd", "msd"]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_minimize_on_random_automata(self, k, read_order, data):
        m = data.draw(automata_over(Dfao, k, read_order))
        mini = minimize(m)
        words = [w for length in range(7) for w in all_words(length, k)]
        assert [output(mini, w) for w in words] == [output(m, w) for w in words]
        # minimal: some word shorter than the state count tells any two states apart
        short = [w for length in range(mini.num_states) for w in all_words(length, k)]
        behaviours = {tuple(output(from_state(mini, s), w) for w in short) for s in range(mini.num_states)}
        assert len(behaviours) == mini.num_states
        # canonical: a renumbered copy, its initial state moved with it, minimizes identically
        perm = np.array(data.draw(st.permutations(range(m.num_states))))
        old = np.argsort(perm)  # state perm[s] of the copy is state s of m
        shuffled = Dfao(
            [m.labels[s] for s in old],
            int(perm[m.initial]),
            m.alphabet,
            perm[m.table[old]],
            [m.outputs[s] for s in old],
            m.read_order,
        )
        again = minimize(shuffled)
        assert np.array_equal(again.table, mini.table)
        assert (again.outputs, again.labels) == (mini.outputs, mini.labels)


class TestConstruction:
    def test_table_of_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Dfao(("a", "b"), 0, (0, 1), [[0, 1]], (0, 1), "lsd")
        with pytest.raises(ValueError, match="shape"):
            Dfao(("a", "b"), 0, (0, 1, 2), [[0, 1], [1, 0]], (0, 1), "lsd")

    @pytest.mark.parametrize("target", [2, -1])
    def test_target_out_of_range(self, target):
        with pytest.raises(ValueError, match="out of range"):
            Dfao(("a", "b"), 0, (0, 1), [[0, 1], [target, 0]], (0, 1), "lsd")

    def test_wrong_output_count(self):
        with pytest.raises(ValueError, match="one output letter per state"):
            Dfao(("a", "b"), 0, (0, 1), [[0, 1], [1, 0]], (0,), "lsd")


class TestCounting:
    def test_blocks_language_counts_are_fibonacci(self):
        lprime = catalog.blocks_language_dfa()
        assert list(word_counts(lprime, 6)) == [1, 1, 2, 3, 5, 8, 13]

    def test_counts_match_brute_force(self):
        for dfa in (catalog.blocks_language_dfa(), catalog.ones_positions_language_dfa(), catalog.zeckendorf_language_dfa()):
            assert list(word_counts(dfa, 8)) == [brute_count(dfa, n) for n in range(9)]

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_counts_match_brute_force_from_every_state(self, k, data):
        dfa = data.draw(automata_over(Dfa, k, "msd"))
        for s in range(dfa.num_states):
            start = from_state(dfa, s)
            counts = list(word_counts(start, 8))
            assert len(counts) == 9
            n = data.draw(st.integers(0, 8))
            assert counts[n] == brute_count(start, n)

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="negative"):
            word_counts(catalog.blocks_language_dfa(), -1)

    def test_ones_positions_small_counts(self):
        la = catalog.ones_positions_language_dfa()
        assert list(word_counts(la, 5))[4:] == [1, 4]  # 1101; 11111, 11101, 10001, 10111
        accepted = [w for w in all_words(5) if accepts(la, w)]
        as_strings = {"".join(map(str, w)) for w in accepted}
        assert as_strings == {"11111", "11101", "10001", "10111"}

    def test_empty_language(self):
        dead = Dfa(("q",), 0, (0, 1), [[0, 0]], (False,), "msd")
        assert list(word_counts(dead, 9)) == [0] * 10

    def test_counts_grow_beyond_machine_words(self):
        lprime = catalog.blocks_language_dfa()
        big = list(word_counts(lprime, 400))[-1]
        assert big > 1 << 64  # exact big integers required

    def test_cumulative_count_equals_rank(self):
        # total accepted words of length <= n is the rank of the first
        # accepted word of length n+1 in genealogical order
        dfa = catalog.zeckendorf_language_dfa()
        ans = Ans(dfa)
        counts = list(word_counts(dfa, 11))
        for n in range(0, 12):
            total = sum(counts[: n + 1])
            first_longer = ans.rep(total)
            assert len(first_longer) == n + 1

    def test_zeckendorf_language_is_nonadjacent_ones(self):
        # acceptance on every word of length <= 20, vectorized per length
        dfa = catalog.zeckendorf_language_dfa()
        table = dfa.table
        acc = np.array([bool(o) for o in dfa.outputs])
        assert accepts(dfa, ())
        for length in range(1, 21):
            v = np.arange(1 << length, dtype=np.int64)
            states = np.full(len(v), dfa.initial, dtype=np.int64)
            has_adjacent = np.zeros(len(v), dtype=bool)
            prev = np.zeros(len(v), dtype=np.int64)
            for b in range(length - 1, -1, -1):
                bit = (v >> b) & 1
                states = table[states, bit]
                if b < length - 1:
                    has_adjacent |= (bit & prev) == 1
                prev = bit
            valid = ((v >> (length - 1)) & 1 == 1) & ~has_adjacent
            assert np.array_equal(acc[states], valid)


class TestSerialization:
    def test_dot_output(self):
        dot = catalog.period_doubling_dfao().to_dot("pd")
        assert dot.startswith("digraph pd {")
        assert 'label="even-run/0"' in dot
        assert 'label="0,1"' in dot

    def test_union_language(self):
        u = union(catalog.odd_ones_language_dfa(), catalog.marked_block_language_dfa())
        la = catalog.ones_positions_language_dfa()
        assert list(word_counts(u, 7)) == [brute_count(la, n) for n in range(8)]
