"""Kernel closure, DFAO synthesis, and rank profiles."""

from fractions import Fraction
from itertools import islice
from math import isqrt, lcm
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pdseq import catalog, kernel
from pdseq.automata import Dfao, evaluate_range, minimize
from pdseq.kernel import (
    HorizonError,
    _exact_ranks,
    _PrimeEchelon,
    _prime_sequence,
    compute_kernel,
    rank_profile,
)


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


def rational_rank(rows):
    """Oracle: the rank over Q, by sympy."""
    pytest.importorskip("sympy")
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix

    rows = [[ZZ(int(x)) for x in row] for row in rows]
    return DomainMatrix(rows, (len(rows), len(rows[0])), ZZ).convert_to(QQ).rank() if rows else 0


def feed(ncols, blocks, chunk=kernel._CHUNK):
    """_exact_ranks of the blocks, the oracle's rank of the rows up to each
    block, and the primes' echelons as _exact_ranks left them.

    A small chunk makes a few rows take the path of large blocks: each
    prime receives every block in several slices.
    """
    echelons = []

    def spy(q, n):
        echelons.append(_PrimeEchelon(q, n))
        return echelons[-1]

    arrays = [np.array(block, dtype=np.int64).reshape(len(block), ncols) for block in blocks]
    with mock.patch.object(kernel, "_CHUNK", chunk), mock.patch.object(kernel, "_PrimeEchelon", spy):
        ranks = _exact_ranks(arrays, ncols)
    wants = [rational_rank([row for block in blocks[: d + 1] for row in block]) for d in range(len(blocks))]
    return ranks, wants, echelons


entries = st.one_of(st.integers(-(2**40), 2**40), st.integers(-2, 2))


class TestModularRank:
    @pytest.mark.parametrize("chunk", [1, 2, kernel._CHUNK])
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_blocks_depth_by_depth(self, chunk, ncols, data):
        row = st.lists(entries, min_size=ncols, max_size=ncols)
        blocks = data.draw(st.lists(st.lists(row, max_size=5), min_size=1, max_size=5))
        ranks, wants, _ = feed(ncols, blocks, chunk)
        assert ranks == wants

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
        ranks, wants, _ = feed(ncols, blocks, chunk)
        assert ranks == wants
        assert ranks[-1] <= r

    @given(st.integers(1, 5), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_slices_match_sympy_rank(self, ncols, chunk, data):
        # each later row is an earlier one shifted by 0, q0 or q0*q1 in every
        # entry, so the first prime(s) can miss its rank and a further prime
        # takes every row again, in slices
        q0, q1 = islice(_prime_sequence(ncols), 2)
        base = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols), min_size=1, max_size=4))
        shifts = data.draw(st.lists(st.sampled_from([0, q0, q0 * q1]), min_size=len(base), max_size=len(base)))
        rows = base + [[x + c for x in row] for row, c in zip(base, shifts)]
        ranks, wants, _ = feed(ncols, [rows[: len(base)], rows[len(base) :]], chunk)
        assert ranks == wants

    def test_diagonal_singular_mod_first_prime(self):
        q0, q1 = islice(_prime_sequence(2), 2)
        ranks, _, echelons = feed(2, [[[1, 0], [0, q0]]])
        assert ranks == [2]
        assert [e.q for e in echelons] == [q0, q1]
        assert [len(e.pivots) for e in echelons] == [1, 2]

    @pytest.mark.parametrize("nprimes", [1, 2])
    def test_determinant_a_product_of_first_primes(self, nprimes):
        # entries near sqrt(det): the rank over Q is 2, the rank modulo
        # each of the first primes is 1, and the product of those primes
        # alone is below the Hadamard bound 2 X^2
        primes = list(islice(_prime_sequence(2), nprimes + 1))
        det = int(np.prod(primes[:nprimes], dtype=object))
        a = isqrt(det)
        ranks, wants, echelons = feed(2, [[[a, 1], [a * (a + 1) - det, a + 1]]])
        assert ranks == wants == [2]
        assert [len(e.pivots) for e in echelons] == [1] * nprimes + [2]

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
        ranks, wants, echelons = feed(ncols, blocks)
        assert ranks == wants
        independent = any(x for i, x in enumerate(v) if i != j)
        assert ranks[-1] == (2 if independent else 1)
        assert len(echelons) >= (3 if multiple == q0 * q1 and independent else 1)

    def test_full_column_rank_needs_one_prime(self):
        ranks, _, echelons = feed(2, [[[1, 0], [0, 2**40], [5, 7]]])
        assert ranks == [2] and len(echelons) == 1

    def test_zero_rows_and_empty_blocks(self):
        ranks, _, echelons = feed(3, [[], [[0, 0, 0], [0, 0, 0]], [[0, 0, 5], [0, 0, -10]]])
        assert ranks == [0, 0, 1]
        assert [len(e.pivots) for e in echelons] == [1]
        # all-zero rows need no prime at all
        assert feed(3, [[], [[0, 0, 0]]])[:2] == ([0, 0], [0, 0])

    def test_many_primes_hold_one_echelon(self):
        # 48 independent rows with entries near 2^40 and 16 integer
        # combinations of them: the rank is certified by the Hadamard bound
        # only, after about 100 primes, yet one prime's echelon is alive at
        # a time
        rng = np.random.default_rng(5)
        ncols, r = 64, 48
        base = rng.integers(-(2**40), 2**40, size=(r, ncols))
        rows = np.concatenate([base, rng.integers(-3, 4, size=(16, r)) @ base])
        rows = rows[rng.permutation(len(rows))]
        primes = []

        def spy(q, n):  # unlike feed's spy, keeps no echelon alive
            primes.append(q)
            return _PrimeEchelon(q, n)

        with mock.patch.object(kernel, "_PrimeEchelon", spy):
            tracemalloc.start()
            try:
                ranks = _exact_ranks([rows[:40], rows[40:]], ncols)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(primes) >= 10
        assert ranks == [rational_rank(rows[:40]), rational_rank(rows)] == [40, r]
        echelon = r * ncols * 8  # float64 basis rows of one prime
        assert peak < 8 * echelon

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
