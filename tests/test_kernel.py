"""Kernel closure, DFAO synthesis, and rank profiles."""

from fractions import Fraction
from itertools import islice
from math import isqrt, lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pdseq import catalog, kernel
from pdseq.automata import Dfao, evaluate_range, minimize
from pdseq.kernel import (
    HorizonError,
    _ModularRank,
    _prime_sequence,
    compute_kernel,
    rank_profile,
    synthesize_dfao,
)


class TestComputeKernel:
    def test_inverse_pd_kernel_generators(self):
        analysis = compute_kernel(catalog.sequence("u").prefix, 2, horizon=512)
        assert analysis.closed
        pairs = {(c.scale, c.residue) for c in analysis.classes}
        assert pairs == {(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)}

    def test_pd_kernel_four_classes(self):
        analysis = compute_kernel(catalog.sequence("d").prefix, 2, horizon=512)
        assert analysis.closed
        assert analysis.class_count() == 4

    def test_constant_sequence(self):
        analysis = compute_kernel(lambda n: np.zeros(n, dtype=np.int64), 2, horizon=64)
        assert analysis.closed and analysis.class_count() == 1

    def test_depth_cap_reports_open(self):
        analysis = compute_kernel(catalog.sequence("p").prefix, 2, max_depth=3, horizon=64)
        assert not analysis.closed and analysis.closed_depth is None

    def test_closure_stable_under_doubled_horizon(self):
        # sequences with genuinely closing kernels merge identically at both
        # fingerprint horizons
        for name, k in (("u", 2), ("d", 2), ("t", 2), ("tp3", 3)):
            a = compute_kernel(catalog.sequence(name).prefix, k, horizon=512)
            b = compute_kernel(catalog.sequence(name).prefix, k, horizon=1024)
            assert a.closed and b.closed
            assert [(c.scale, c.residue) for c in a.classes] == [
                (c.scale, c.residue) for c in b.classes
            ]
            assert a.transitions == b.transitions

    def test_fingerprint_collision_raises(self):
        # the even subsequence agrees with the whole sequence on the first
        # H terms but differs inside the 4H verification window
        def tricky(n):
            s = np.zeros(n, dtype=np.int64)
            if n > 400:
                s[400] = 1
            return s

        with pytest.raises(HorizonError):
            compute_kernel(tricky, 2, horizon=128)


class TestSynthesis:
    def test_inverse_pd_five_states(self):
        analysis = compute_kernel(catalog.sequence("u").prefix, 2, horizon=512)
        machine = minimize(synthesize_dfao(analysis))
        assert machine.num_states == 5
        assert machine.same_up_to_renaming(catalog.inverse_pd_dfao())

    def test_pd_synthesis_is_minimal_lsd_machine(self):
        # reading least significant digit first, the trailing-run parity
        # needs four states (the two-state machine only works MSD-first)
        analysis = compute_kernel(catalog.sequence("d").prefix, 2, horizon=512)
        machine = minimize(synthesize_dfao(analysis))
        assert machine.read_order == "lsd"
        assert machine.num_states == 4
        limit = 1 << 16
        assert np.array_equal(evaluate_range(machine, limit), catalog.sequence("d").prefix(limit))

    def test_constant_sequence_single_state(self):
        analysis = compute_kernel(lambda n: np.full(n, 7, dtype=np.int64), 2, horizon=64)
        machine = synthesize_dfao(analysis)
        assert machine.num_states == 1
        assert machine.output((0, 1, 1, 0)) == 7

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_regenerates_random_lsd_automata(self, data):
        n = data.draw(st.integers(1, 5))
        state = st.integers(0, n - 1)
        table = data.draw(st.lists(st.lists(state, min_size=2, max_size=2), min_size=n, max_size=n))
        outputs = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        m = Dfao([f"q{i}" for i in range(n)], data.draw(state), (0, 1), table, outputs, "lsd")
        try:
            analysis = compute_kernel(lambda count: evaluate_range(m, count), 2, horizon=64)
        except HorizonError:
            assume(False)
        machine = minimize(synthesize_dfao(analysis))
        assert np.array_equal(evaluate_range(machine, 1 << 12), evaluate_range(m, 1 << 12))

    def test_open_kernel_cannot_synthesize(self):
        analysis = compute_kernel(catalog.sequence("p").prefix, 2, max_depth=3, horizon=64)
        with pytest.raises(ValueError, match="closed"):
            synthesize_dfao(analysis)


class TestRankProfile:
    def test_identity_sequence_rank_two(self):
        # every kernel row of the identity is an integer combination of
        # the index sequence and the all-ones sequence
        prof = rank_profile(lambda n: np.arange(n, dtype=np.int64), 2, max_depth=6, horizon=128)
        assert prof.ranks()[0] == 1
        assert set(prof.ranks()[1:]) == {2}

    def test_inverse_pd_profile_stabilizes(self):
        prof = rank_profile(catalog.sequence("u").prefix, 2, max_depth=8, horizon=512)
        assert prof.class_counts() == [1, 3, 4, 5, 5, 5, 5, 5, 5]
        assert prof.ranks() == [1, 2, 3, 4, 4, 4, 4, 4, 4]
        assert prof.stabilized("class_count") and prof.stabilized("rank")

    def test_positions_profile_is_full_rank(self):
        prof = rank_profile(catalog.sequence("a").prefix, 2, max_depth=6, horizon=256)
        assert prof.ranks() == [1, 3, 7, 15, 31, 63, 127]
        assert prof.class_counts() == prof.ranks()

    def test_json_report_shape(self):
        prof = rank_profile(catalog.sequence("u").prefix, 2, max_depth=3, horizon=64)
        report = prof.to_json_dict()
        assert report["k"] == 2 and report["horizon"] == 64
        assert [d["depth"] for d in report["depths"]] == [0, 1, 2, 3]
        reps = report["depths"][0]["representatives"]
        assert reps[0]["scale"] == 0 and reps[0]["residue"] == 0
        assert len(reps[0]["fingerprint"]) == 32

    @pytest.mark.parametrize("fn", [rank_profile, compute_kernel])
    def test_arguments_checked(self, fn):
        prefix = catalog.sequence("u").prefix
        with pytest.raises(ValueError, match="base"):
            fn(prefix, 1, horizon=64)
        with pytest.raises(ValueError, match="horizon"):
            fn(prefix, 2, horizon=0)

    def test_class_counts_nondecreasing_in_horizon(self):
        # a longer fingerprint can only split classes, never merge them
        for name in ("p", "z", "u"):
            seq = catalog.sequence(name).prefix
            small = rank_profile(seq, 2, max_depth=6, horizon=128).class_counts()
            large = rank_profile(seq, 2, max_depth=6, horizon=256).class_counts()
            assert all(s <= l for s, l in zip(small, large))


def rational_rank(rows):
    """Oracle: the rank over Q, by sympy."""
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[int(x) for x in row] for row in rows]).rank() if rows else 0


def feed(ncols, blocks, chunk=kernel._CHUNK):
    """Rank after each block, next to the oracle's rank of all rows so far.

    A small chunk makes a few rows take the path of large blocks: each
    prime receives a block in several slices, and a new prime replays the
    earlier blocks slice by slice.
    """
    with mock.patch.object(kernel, "_CHUNK", chunk):
        tracker = _ModularRank(ncols)
        seen = []
        for block in blocks:
            tracker.add_block(np.array(block, dtype=np.int64).reshape(len(block), ncols))
            seen += block
            yield tracker, rational_rank(seen)


entries = st.one_of(st.integers(-(2**40), 2**40), st.integers(-2, 2))


class TestModularRank:
    @pytest.mark.parametrize("chunk", [1, 2, kernel._CHUNK])
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_blocks_depth_by_depth(self, chunk, ncols, data):
        row = st.lists(entries, min_size=ncols, max_size=ncols)
        blocks = data.draw(st.lists(st.lists(row, max_size=5), min_size=1, max_size=5))
        for tracker, want in feed(ncols, blocks, chunk):
            assert tracker.rank == want

    @pytest.mark.parametrize("chunk", [1, 2, kernel._CHUNK])
    @given(st.integers(2, 6), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_planted_rational_dependencies(self, chunk, ncols, r, data):
        base = data.draw(
            st.lists(st.lists(st.integers(-(2**20), 2**20), min_size=ncols, max_size=ncols), min_size=r, max_size=r)
        )
        planted = []
        for _ in range(data.draw(st.integers(1, 4))):
            coeffs = [Fraction(data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 50))) for _ in base]
            scale = lcm(*(c.denominator for c in coeffs))
            planted.append([int(sum(c * b[j] for c, b in zip(coeffs, base)) * scale) for j in range(ncols)])
        rows = data.draw(st.permutations(base + planted))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
        blocks = [rows[i:j] for i, j in zip([0] + cuts, cuts + [len(rows)])]
        for tracker, want in feed(ncols, blocks, chunk):
            assert tracker.rank == want
        assert tracker.rank <= r

    @given(st.integers(1, 5), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_slices_match_sympy_rank(self, ncols, chunk, data):
        # each later row is an earlier one shifted by 0, q0 or q0*q1 in every
        # entry, so the first prime(s) can miss its rank and a further prime
        # replays the earlier rows in slices
        q0, q1 = islice(_prime_sequence(ncols), 2)
        base = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols), min_size=1, max_size=4))
        shifts = data.draw(st.lists(st.sampled_from([0, q0, q0 * q1]), min_size=len(base), max_size=len(base)))
        rows = base + [[x + c for x in row] for row, c in zip(base, shifts)]
        for tracker, want in feed(ncols, [rows[: len(base)], rows[len(base) :]], chunk):
            assert tracker.rank == want

    def test_diagonal_singular_mod_first_prime(self):
        q0, q1 = islice(_prime_sequence(2), 2)
        tracker = _ModularRank(2)
        tracker.add_block(np.array([[1, 0], [0, q0]]))
        assert tracker.rank == 2
        assert [e.q for e in tracker.echelons] == [q0, q1]
        assert [len(e.pivots) for e in tracker.echelons] == [1, 2]

    @pytest.mark.parametrize("nprimes", [1, 2])
    def test_determinant_a_product_of_first_primes(self, nprimes):
        # entries near sqrt(det): the rank over Q is 2, the rank modulo
        # each of the first primes is 1, and the product of those primes
        # alone is below the Hadamard bound 2 X^2
        primes = list(islice(_prime_sequence(2), nprimes + 1))
        det = int(np.prod(primes[:nprimes], dtype=object))
        a = isqrt(det)
        matrix = np.array([[a, 1], [a * (a + 1) - det, a + 1]])
        tracker = _ModularRank(2)
        tracker.add_block(matrix)
        assert tracker.rank == rational_rank(matrix.tolist()) == 2
        assert [len(e.pivots) for e in tracker.echelons] == [1] * nprimes + [2]

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_differing_by_prime_multiples(self, ncols, data):
        # w - v is a multiple of q0*q1 (or of q0 alone): the rows are
        # dependent modulo the first prime(s) but independent over Q
        q0, q1 = islice(_prime_sequence(ncols), 2)
        v = data.draw(st.lists(st.integers(-1000, 1000), min_size=ncols, max_size=ncols))
        j = data.draw(st.integers(0, ncols - 1))
        multiple = data.draw(st.sampled_from([q0, q0 * q1]))
        w = list(v)
        w[j] += data.draw(st.sampled_from([-1, 1])) * multiple
        together = data.draw(st.booleans())
        blocks = [[v, w]] if together else [[v], [w]]
        for tracker, want in feed(ncols, blocks):
            assert tracker.rank == want
        independent = any(x for i, x in enumerate(v) if i != j)
        assert tracker.rank == (2 if independent else 1)
        assert len(tracker.echelons) >= (3 if multiple == q0 * q1 and independent else 1)

    def test_full_column_rank_needs_one_prime(self):
        tracker = _ModularRank(2)
        tracker.add_block(np.array([[1, 0], [0, 2**40], [5, 7]]))
        assert tracker.rank == 2 and len(tracker.echelons) == 1

    def test_zero_rows_and_empty_blocks(self):
        tracker = _ModularRank(3)
        tracker.add_block(np.zeros((0, 3), dtype=np.int64))
        tracker.add_block(np.zeros((2, 3), dtype=np.int64))
        assert tracker.rank == 0
        tracker.add_block(np.array([[0, 0, 5], [0, 0, -10]]))
        assert tracker.rank == 1

    def test_prime_sequence_bound(self):
        sympy = pytest.importorskip("sympy")
        for ncols in (1, 2, 512, 1024, 3000):
            primes = list(islice(_prime_sequence(ncols), 3))
            want = [sympy.prevprime(isqrt((2**53 - 1) // ncols) + 1)]
            while len(want) < 3:
                want.append(sympy.prevprime(want[-1]))
            assert primes == want
            assert all(ncols * (q - 1) ** 2 < 2**53 for q in primes)
        with pytest.raises(ValueError, match="too few primes"):
            next(_prime_sequence(2**52))
