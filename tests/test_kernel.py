"""Kernel closure, DFAO synthesis, and rank profiles."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import output
from pdseq import catalog
from pdseq.automata import Dfao, evaluate_range, minimize
from pdseq.kernel import HorizonError, compute_kernel, rank_profile
from test_exact import primes_drawn


class TestComputeKernel:
    def test_inverse_pd_kernel_generators(self):
        machine = compute_kernel(catalog.sequence("u").prefix, 2, horizon=512)
        assert set(machine.labels) == {"(0,0)", "(1,0)", "(1,1)", "(2,1)", "(3,1)"}

    def test_pd_kernel_four_classes(self):
        machine = compute_kernel(catalog.sequence("d").prefix, 2, horizon=512)
        assert machine.num_states == 4

    def test_constant_sequence(self):
        machine = compute_kernel(lambda n: np.zeros(n, dtype=np.int64), 2, horizon=64)
        assert machine.num_states == 1
        assert machine.table.tolist() == [[0, 0]]

    def test_depth_cap_reports_open(self):
        assert compute_kernel(catalog.sequence("p").prefix, 2, max_depth=3, horizon=64) is None

    def test_closure_stable_under_doubled_horizon(self):
        # sequences with genuinely closing kernels merge identically at both
        # fingerprint horizons
        for name, k in (("u", 2), ("d", 2), ("t", 2), ("tp3", 3)):
            a = compute_kernel(catalog.sequence(name).prefix, k, horizon=512)
            b = compute_kernel(catalog.sequence(name).prefix, k, horizon=1024)
            assert a.labels == b.labels
            assert np.array_equal(a.table, b.table)

    def test_fingerprint_collision_raises(self):
        # the even subsequence agrees with the whole sequence on the first
        # H terms but differs inside the 4H verification window
        def tricky(n):
            s = np.zeros(n, dtype=np.int64)
            if n > 400:
                s[400] = 1
            return s

        with pytest.raises(HorizonError, match=r"classes \(0,0\) and \(1,0\) agree on 128 terms"):
            compute_kernel(tricky, 2, horizon=128)


class TestSynthesis:
    def test_inverse_pd_five_states(self):
        machine = minimize(compute_kernel(catalog.sequence("u").prefix, 2, horizon=512))
        assert machine.num_states == 5
        assert machine.same_up_to_renaming(catalog.inverse_pd_dfao())

    def test_pd_synthesis_is_minimal_lsd_machine(self):
        # reading least significant digit first, the trailing-run parity
        # needs four states (the two-state machine only works MSD-first)
        machine = minimize(compute_kernel(catalog.sequence("d").prefix, 2, horizon=512))
        assert machine.read_order == "lsd"
        assert machine.num_states == 4
        limit = 1 << 16
        assert np.array_equal(evaluate_range(machine, limit), catalog.sequence("d").prefix(limit))

    def test_constant_sequence_single_state(self):
        machine = compute_kernel(lambda n: np.full(n, 7, dtype=np.int64), 2, horizon=64)
        assert machine.num_states == 1
        assert output(machine, (0, 1, 1, 0)) == 7

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_regenerates_random_lsd_automata(self, data):
        n = data.draw(st.integers(1, 5))
        state = st.integers(0, n - 1)
        table = data.draw(st.lists(st.lists(state, min_size=2, max_size=2), min_size=n, max_size=n))
        outputs = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        m = Dfao([f"q{i}" for i in range(n)], data.draw(state), (0, 1), table, outputs, "lsd")
        try:
            machine = compute_kernel(lambda count: evaluate_range(m, count), 2, horizon=64)
        except HorizonError:
            assume(False)
        # each state outputs the first term of its subsequence (scale, residue)
        for label, out in zip(machine.labels, machine.outputs):
            scale, residue = map(int, label.strip("()").split(","))
            assert out == evaluate_range(m, residue + 1)[residue]
        assert np.array_equal(evaluate_range(minimize(machine), 1 << 12), evaluate_range(m, 1 << 12))

    def test_open_kernel_cannot_synthesize(self):
        # u's kernel has its last new class at scale 3 and closes once scale 4
        # adds none: a cap of 3 scales gives no automaton
        prefix = catalog.sequence("u").prefix
        assert compute_kernel(prefix, 2, max_depth=3, horizon=64) is None
        assert compute_kernel(prefix, 2, max_depth=4, horizon=64).num_states == 5


def column(report, key):
    """One entry of every depth row of a rank report."""
    return [row[key] for row in report["depths"]]


class TestRankProfile:
    def test_identity_sequence_rank_two(self):
        # every kernel row of the identity is an integer combination of
        # the index sequence and the all-ones sequence
        ranks = column(rank_profile(lambda n: np.arange(n, dtype=np.int64), 2, max_depth=6, horizon=128), "rank")
        assert ranks[0] == 1
        assert set(ranks[1:]) == {2}

    def test_inverse_pd_profile_stabilizes(self):
        report = rank_profile(catalog.sequence("u").prefix, 2, max_depth=8, horizon=512)
        assert column(report, "class_count") == [1, 3, 4, 5, 5, 5, 5, 5, 5]
        assert column(report, "rank") == [1, 2, 3, 4, 4, 4, 4, 4, 4]

    def test_positions_profile_is_full_rank(self):
        report = rank_profile(catalog.sequence("a").prefix, 2, max_depth=6, horizon=256)
        assert column(report, "rank") == [1, 3, 7, 15, 31, 63, 127]
        assert column(report, "class_count") == column(report, "rank")

    def test_json_report_shape(self):
        report = rank_profile(catalog.sequence("u").prefix, 2, max_depth=3, horizon=64)
        assert set(report) == {"k", "horizon", "depths"}
        assert report["k"] == 2 and report["horizon"] == 64
        assert column(report, "depth") == [0, 1, 2, 3]
        assert all(set(row) == {"depth", "class_count", "rank", "representatives"} for row in report["depths"])
        reps = report["depths"][0]["representatives"]
        assert reps[0]["scale"] == 0 and reps[0]["residue"] == 0
        assert len(reps[0]["fingerprint"]) == 32

    def test_one_fetch_for_every_depth(self):
        # a cache grown on demand is built once, at its longest length
        fetched = []

        def prefix(n):
            fetched.append(n)
            return catalog.sequence("u").prefix(n)

        rank_profile(prefix, 3, max_depth=4, horizon=50)
        assert fetched == [3**4 * 50]

    @pytest.mark.parametrize("fn", [rank_profile, compute_kernel])
    def test_arguments_checked(self, fn):
        prefix = catalog.sequence("u").prefix
        with pytest.raises(ValueError, match="base"):
            fn(prefix, 1, horizon=64)
        with pytest.raises(ValueError, match="horizon"):
            fn(prefix, 2, horizon=0)
        with pytest.raises(ValueError, match="depth"):
            fn(prefix, 2, max_depth=-1, horizon=64)

    def test_class_counts_nondecreasing_in_horizon(self):
        # a longer fingerprint can only split classes, never merge them
        for name in ("p", "z", "u"):
            seq = catalog.sequence(name).prefix
            small = column(rank_profile(seq, 2, max_depth=6, horizon=128), "class_count")
            large = column(rank_profile(seq, 2, max_depth=6, horizon=256), "class_count")
            assert all(s <= l for s, l in zip(small, large))


class TestRankGrowth:
    """The witness of non-regularity: at a fixed depth the rank grows with H.

    For a k-regular sequence the rank of the truncated kernel is bounded at
    every H by the rank of its kernel module (Allouche-Shallit, 1992).  The
    depth-8 ranks of z, o and p keep growing from H = 2^9 to 2^13.
    """

    @pytest.mark.parametrize(
        "name, ranks", [("z", [18, 20, 23, 25, 27]), ("o", [18, 20, 23, 25, 27]), ("p", [21, 23, 25, 27, 29])]
    )
    def test_depth_8_rank_grows_with_horizon(self, name, ranks):
        prefix = catalog.sequence(name).prefix
        got = [rank_profile(prefix, 2, max_depth=8, horizon=2**e)["depths"][-1]["rank"] for e in range(9, 14)]
        assert got == ranks
        assert all(a < b for a, b in zip(got, got[1:]))

    @pytest.mark.parametrize("name", ["z", "o", "p"])
    @pytest.mark.parametrize("horizon", [512, 1024])
    def test_check_ranks_certified_from_one_prime(self, name, horizon):
        # the rank check's profiles: one echelon, whose lift certifies it
        report, drawn = primes_drawn(lambda: rank_profile(catalog.sequence(name).prefix, 2, max_depth=8, horizon=horizon))
        assert drawn == 1
        assert column(report, "rank")[:4] == [1, 3, 7, 15]


class TestPositionsOfZeros:
    """b, the positions of the zeros of u (the paper's open problem): its
    dependencies need Y and L of well over a hundred bits, certified by one
    prime's lift."""

    @pytest.mark.parametrize(
        "k, depth, horizon, ranks, budget",
        [
            (2, 8, 512, [1, 3, 7, 15, 31, 63, 127, 255, 371], 1.0),
            (3, 6, 243, [1, 4, 13, 40, 121, 227, 243], 1.0),
            (3, 6, 729, [1, 4, 13, 40, 121, 340, 560], 3.0),
        ],
    )
    def test_b_ranks(self, k, depth, horizon, ranks, budget):
        prefix = catalog.sequence("b").prefix
        prefix(k**depth * horizon)  # built, or cached by an earlier test, outside the budget
        start = time.perf_counter()
        report, drawn = primes_drawn(lambda: rank_profile(prefix, k, max_depth=depth, horizon=horizon))
        assert time.perf_counter() - start < budget
        assert column(report, "rank") == ranks
        assert drawn == 1
