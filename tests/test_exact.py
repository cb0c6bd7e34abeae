"""Exact linear algebra: primality, row reduction modulo a prime, ranks over Q."""

import ast
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, isqrt, lcm
from pathlib import Path
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pdseq
from pdseq import exact
from pdseq.exact import _prime_sequence, rational_ranks


class TestPrimality:
    @given(st.integers(0, 3_037_000_500))
    @settings(max_examples=500, deadline=None)
    def test_against_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert exact._is_prime(n) == sympy.isprime(n)

    def test_small_numbers_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert [n for n in range(-3, 5000) if exact._is_prime(n)] == list(sympy.primerange(5000))

    def test_strong_pseudoprime_to_2_3_5(self):
        # 25,326,001 = 2251 * 11251 passes Miller-Rabin to the bases 2, 3 and 5; base 7 rejects it
        assert not exact._is_prime(25_326_001)

    def test_size_test_comes_first(self):
        # 3,215,031,751 = 151 * 751 * 28351 is a strong pseudoprime to 2, 3, 5 and 7
        with pytest.raises(ValueError, match="too large"):
            exact.check_modulus(3_215_031_751)


class TestRowReduction:
    def test_huge_modulus_refused(self):
        with pytest.raises(ValueError, match="too large"):
            exact._rref_mod_p(np.zeros((2, 2), dtype=np.int64), 2**61 - 1)

    @given(st.sampled_from([2, 3, 65521, 2**31 - 1, 3_037_000_493]), st.integers(1, 12), st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rref_against_sympy(self, p, nrows, ncols, data):
        # at the two largest primes the whole block is reduced every 2
        # pivots and every pivot
        entry = st.one_of(st.integers(-2, 2), st.integers(-(2**40), 2**40))
        mat = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
        assert_rref_matches_sympy(np.array(mat, dtype=np.int64), p)

    @pytest.mark.parametrize("p", [2**31 - 1, 3_037_000_493])
    @pytest.mark.parametrize("seed", range(8))
    def test_rref_uniform_residues(self, p, seed):
        # uniform residues make the products of lazy elimination near
        # (p-1)^2, so one pivot more between full reductions would wrap int64
        # in the rows that become pivot rows late, past the last pivot column
        assert_rref_matches_sympy(np.random.default_rng(seed).integers(0, p, size=(12, 24)), p)

    @given(st.sampled_from([2, 3, 65521]), st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_against_sympy_rank(self, p, nrows, ncols, data):
        # cols - rank vectors, each annihilated by every row in Python ints,
        # and independent over GF(p)
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        entry = st.one_of(st.integers(-2, 2), st.integers(0, p - 1))
        mat = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
        basis = exact.nullspace_mod_p(np.array(mat, dtype=np.int64), p)
        field = sympy.GF(p)

        def rank(rows):
            return DomainMatrix([[field(int(x)) for x in row] for row in rows], (len(rows), ncols), field).rank()

        assert len(basis) == ncols - rank(mat)
        assert all(sum(a * int(x) for a, x in zip(row, v)) % p == 0 for v in basis for row in mat)
        assert not basis or rank(basis) == len(basis)



def assert_rref_matches_sympy(mat, p):
    """Oracle: sympy's reduced row-echelon form over GF(p); ours holds the
    same nonzero rows in the order their pivots were found."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.GF(p)
    want, want_pivots = DomainMatrix([[field(int(x)) for x in row] for row in mat], mat.shape, field).rref()
    rows, pivots, found = exact._rref_mod_p(mat, p)
    order = np.argsort(pivots)
    assert [pivots[i] for i in order] == list(want_pivots)
    assert rows[order].tolist() == [[int(x) % p for x in row] for row in want.to_Matrix().tolist()[: len(pivots)]]
    # the rows that raised the rank span it on their own, in the order found
    assert found == sorted(found)
    assert exact._rref_mod_p(mat[found], p)[2] == list(range(len(found)))


def primes_drawn(run):
    """run() and the number of primes it drew from exact._prime_sequence."""
    drawn = []
    sequence = exact._prime_sequence

    def counting(ncols):
        for q in sequence(ncols):
            drawn.append(q)
            yield q

    with mock.patch.object(exact, "_prime_sequence", counting):
        return run(), len(drawn)


@contextmanager
def recorded(name, keep=lambda args, result: result, leading=False):
    """exact.<name> patched to append keep(args, result) of each call to the
    yielded list; of _echelon_ranks only the full passes that ran to the end
    (one that the leading columns certify returns None), or with leading
    only the leading-column passes (independent=True)."""
    calls, real = [], getattr(exact, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("independent", False) == leading and (leading or result is not None):
            calls.append(keep(args, result))
        return result

    with mock.patch.object(exact, name, wrapper):
        yield calls


def moduli():
    """exact._reconstruct recording its moduli q^j: j lifts were taken."""
    return recorded("_reconstruct", lambda args, _: args[1])


def rational_rank(rows):
    """Oracle: the rank over Q, by sympy."""
    pytest.importorskip("sympy")
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix

    rows = [[ZZ(int(x)) for x in row] for row in rows]
    return DomainMatrix(rows, (len(rows), len(rows[0])), ZZ).convert_to(QQ).rank() if rows else 0


def feed(ncols, blocks, chunk=exact._CHUNK):
    """rational_ranks of the blocks, the oracle's rank of the rows up to each
    block, and (q, rank mod q) for each prime's echelon that rational_ranks took.

    A small chunk makes a few rows take the path of large blocks: each
    prime receives every block in several slices.
    """
    arrays = [np.array(block, dtype=np.int64).reshape(len(block), ncols) for block in blocks]
    echelon = recorded("_echelon_ranks", lambda args, result: (args[1], len(result[2])))
    with mock.patch.object(exact, "_CHUNK", chunk), echelon as echelons:
        ranks = rational_ranks(arrays, ncols)
    wants = [rational_rank([row for block in blocks[: d + 1] for row in block]) for d in range(len(blocks))]
    return ranks, wants, echelons


entries = st.one_of(st.integers(-(2**40), 2**40), st.integers(-2, 2))


class TestModularRank:
    @pytest.mark.parametrize("chunk", [1, 2, exact._CHUNK])
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_blocks_depth_by_depth(self, chunk, ncols, data):
        row = st.lists(entries, min_size=ncols, max_size=ncols)
        blocks = data.draw(st.lists(st.lists(row, max_size=5), min_size=1, max_size=5))
        ranks, wants, _ = feed(ncols, blocks, chunk)
        assert ranks == wants

    @pytest.mark.parametrize("chunk", [1, 2, exact._CHUNK])
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
        assert [q for q, _ in echelons] == [q0, q1]
        assert [rank for _, rank in echelons] == [1, 2]

    @pytest.mark.parametrize("nprimes", [1, 2])
    def test_determinant_a_product_of_first_primes(self, nprimes):
        # entries near sqrt(det): the rank over Q is 2 and the rank modulo
        # each of the first primes is 1, so each of their lifts fails and
        # the next prime's echelon is taken
        primes = list(islice(_prime_sequence(2), nprimes + 1))
        det = int(np.prod(primes[:nprimes], dtype=object))
        a = isqrt(det)
        ranks, wants, echelons = feed(2, [[[a, 1], [a * (a + 1) - det, a + 1]]])
        assert ranks == wants == [2]
        assert [rank for _, rank in echelons] == [1] * nprimes + [2]

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

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_entries_past_2_62_are_not_differenced(self, ncols, data):
        # first differences could overflow int64 here, so the rows are fed
        # as they are
        huge = st.integers(-(2**63) + 1, 2**63 - 1)
        rows = data.draw(st.lists(st.lists(huge, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
        rows.append([2**62] + [0] * (ncols - 1))
        rows.append(list(rows[0]))
        ranks, wants, _ = feed(ncols, [rows[:2], rows[2:]])
        assert ranks == wants
        # 2v's second difference is -2^63 - 2^61: wrapped in int64 it would
        # no longer be twice v's
        v = [2**61, -(2**61) - 2**60]
        assert feed(2, [[v, [2 * x for x in v]]])[:2] == ([1], [1])

    def test_full_column_rank_needs_one_prime(self):
        ranks, _, echelons = feed(2, [[[1, 0], [0, 2**40], [5, 7]]])
        assert ranks == [2] and len(echelons) == 1

    def test_zero_rows_and_empty_blocks(self):
        ranks, _, echelons = feed(3, [[], [[0, 0, 0], [0, 0, 0]], [[0, 0, 5], [0, 0, -10]]])
        assert ranks == [0, 0, 1]
        assert [rank for _, rank in echelons] == [1]
        # all-zero rows need no prime at all
        assert feed(3, [[], [[0, 0, 0]]])[:2] == ([0, 0], [0, 0])

    def test_deep_dependencies_hold_one_echelon(self):
        # 48 independent rows with entries near 2^20, after 16 combinations
        # of them with coefficients near 2^20: the base rows that follow the
        # first 48 rows are rational combinations of them whose
        # denominators are 16x16 minors of the coefficients, about 2^350,
        # so the lift runs on Python ints to q^32.  One echelon certifies
        # the rank, in the memory of a few echelons
        rng = np.random.default_rng(5)
        ncols, r = 64, 48
        base = rng.integers(-(2**20), 2**20, size=(r, ncols))
        rows = np.concatenate([rng.integers(-(2**20), 2**20, size=(16, r)) @ base, base])
        blocks = [rows[:40].copy(), rows[40:].copy()]  # rational_ranks overwrites its blocks
        with recorded("_echelon_ranks", lambda args, _: args[1]) as primes, moduli() as reached:
            tracemalloc.start()
            try:
                ranks = rational_ranks(blocks, ncols)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert primes == [next(_prime_sequence(ncols))]
        assert max(reached) > primes[0] ** 2
        assert ranks == [rational_rank(rows[:40]), rational_rank(rows)] == [40, r]
        echelon = r * ncols * 8  # float64 basis rows of one prime
        assert peak < 8 * echelon

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_integer_dependencies_certified_by_one_echelon(self, ncols, data):
        # r rows [I | B] with entries of B up to 2^32, then integer
        # combinations of them with coefficients up to 2^12: one echelon
        # certifies every depth
        r = data.draw(st.integers(1, min(4, ncols - 1)))
        big = st.integers(-(2**32), 2**32)
        base = [[int(i == j) for j in range(r)] + data.draw(st.lists(big, min_size=ncols - r, max_size=ncols - r)) for i in range(r)]
        coeffs = data.draw(st.lists(st.lists(st.integers(-(2**12), 2**12), min_size=r, max_size=r), min_size=1, max_size=6))
        planted = [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(ncols)] for cs in coeffs]
        cut = data.draw(st.integers(r, r + len(planted)))
        rows = base + planted
        ranks, wants, echelons = feed(ncols, [rows[:cut], rows[cut:]])
        assert ranks == wants
        assert len(echelons) == 1

    @given(st.integers(5, 7), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_denominators_past_q0_squared(self, r, extra, seed, data):
        # r combinations C B of r random rows B in more than r columns, then
        # B itself: B = C^-1 (C B), whose rows' denominators, divisors of
        # det C, pass q0^2, so the chosen rows C B certify the rank only
        # after more than two lifts
        pytest.importorskip("sympy")
        from sympy import QQ, ZZ
        from sympy.polys.matrices import DomainMatrix

        ncols = r + extra
        rng = np.random.default_rng(seed)
        base = rng.integers(-16, 17, size=(r, ncols))
        coeffs = rng.integers(-(2**14), 2**14 + 1, size=(r, r))
        q0 = next(_prime_sequence(ncols))
        c = DomainMatrix([[ZZ(int(x)) for x in row] for row in coeffs], (r, r), ZZ).convert_to(QQ)
        assume(c.det() != 0)
        assume(max(lcm(*(int(x.denominator) for x in row)) for row in c.inv().to_list()) > q0**2)
        rows = (coeffs @ base).tolist() + base.tolist()
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        blocks = [rows[i:j] for i, j in zip([0] + cuts, cuts + [len(rows)])]
        with moduli() as reached:
            ranks, wants, echelons = feed(ncols, blocks)
        assert ranks == wants
        assert len(echelons) == 1
        assert max(reached) > q0**2

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_unlucky_at_an_earlier_depth_only(self, ncols, data):
        # w = t v + q0 u with u in the next block: modulo q0 the first
        # block has rank 1, below its rank 2 over Q, yet w lies in the span
        # of the chosen rows v and u, so every division is exact; only Y's
        # coefficient q0 on u, a row of a later block, proves q0 unlucky
        q0 = next(_prime_sequence(ncols))
        row = st.lists(st.integers(-1000, 1000), min_size=ncols, max_size=ncols)
        v, u = data.draw(row), data.draw(row)
        assume(any(v[i] * u[j] != v[j] * u[i] for i in range(ncols) for j in range(i)))
        t = data.draw(st.integers(-50, 50))
        w = [t * a + q0 * b for a, b in zip(v, u)]
        with recorded("_lifted") as verdicts:
            ranks, wants, echelons = feed(ncols, [[v, w], [u]])
        assert ranks == wants == [2, 2]
        # the next prime's rank 2 is full in two columns, and lifted past them
        assert verdicts == [False] + [True] * (ncols > 2)
        assert len(echelons) == 2

    def test_rows_singular_modulo_the_second_prime(self):
        # the chosen rows' differences [1, -1, 0] and [0, q1, -q1] are
        # singular modulo the second prime q1; the first prime's echelon
        # alone certifies rank 2
        q1 = list(islice(_prime_sequence(3), 2))[1]
        ranks, wants, echelons = feed(3, [[[1, 0, 0], [0, q1, 0], [1, q1, 0]]])
        assert ranks == wants == [2]
        assert len(echelons) == 1

    def test_dependency_past_int64_lifts_on_python_ints(self):
        # w = 2^25 v: L w = Y v holds with Y = 2^25, L = 1, but the proof
        # needs q^j > (2^25 + 1) times w's differences near 2^61, past
        # int64: the lift runs on Python ints, and one echelon certifies
        # rank 1 after four lifts
        v = [2**36, 3]
        with recorded("_lifted") as verdicts, moduli() as reached:
            ranks, wants, echelons = feed(2, [[v, [2**25 * x for x in v]]])
        assert ranks == wants == [1]
        assert verdicts == [True]
        assert [q for q, _ in echelons] == [next(_prime_sequence(2))]
        assert max(reached) == echelons[0][0] ** 4

    def test_entry_minus_2_63_lifts(self):
        # -2^63 has no int64 magnitude: the lift's limbs of S still hold it
        # exactly, and the first prime certifies the repeated row
        with recorded("_lifted") as verdicts:
            ranks, wants, echelons = feed(2, [[[1, -(2**63)]], [[1, -(2**63)]]])
        assert ranks == wants == [1, 1]
        assert verdicts == [True] and len(echelons) == 1

    def test_lift_that_never_proves_raises(self):
        # a reconstruction that never succeeds, as a defect would: the lift
        # raises once q^j passes 2 H^2, H the Hadamard bound, instead of
        # lifting forever
        def never(x, m, start):
            return np.zeros_like(x), np.zeros(len(x), dtype=object)

        with mock.patch.object(exact, "_reconstruct", never), pytest.raises(ArithmeticError, match="after 2 lifts"):
            feed(2, [[[1, 2], [2, 4]]])

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_large_denominators_need_more_lifts(self, ncols, data):
        # k v comes first, so v = (1/k) (k v) with k of 30 to 40 bits: the
        # proof needs q^j > (k + 1) X with X >= k, past q0^2, and one
        # echelon certifies the rank after more than two lifts
        r = data.draw(st.integers(1, ncols - 1))
        small = st.lists(st.integers(-(2**20), 2**20), min_size=ncols, max_size=ncols)
        base = data.draw(st.lists(small, min_size=r, max_size=r))
        assume(any(base[0]))
        k = data.draw(st.integers(2**30, 2**40))
        rows = [[k * x for x in base[0]]] + data.draw(st.permutations(base))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        blocks = [rows[i:j] for i, j in zip([0] + cuts, cuts + [len(rows)])]
        with moduli() as reached:
            ranks, wants, echelons = feed(ncols, blocks)
        assert ranks == wants
        assert len(echelons) == 1
        assert max(reached) > echelons[0][0] ** 2

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_off_by_q0_column_fails_the_lift(self, ncols, data):
        # w = t v + s q0 e_j, j >= 1: modulo q0, and at the pivot column 0
        # over Q, w is t v, but the lift's second division by q0 leaves
        # s e_j's differences, which q0 does not divide: q0 is unlucky, and
        # the next prime's echelon gives rank 2
        q0 = next(_prime_sequence(ncols))
        v = data.draw(st.lists(st.integers(-1000, 1000), min_size=ncols, max_size=ncols))
        assume(v[0] % q0)
        t = data.draw(st.integers(-50, 50))
        w = [t * x for x in v]
        w[data.draw(st.integers(1, ncols - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2])) * q0
        with recorded("_lifted") as verdicts:
            ranks, wants, echelons = feed(ncols, data.draw(st.sampled_from([[[v, w]], [[v], [w]]])))
        assert ranks == wants and ranks[-1] == 2
        assert verdicts == [False]
        assert [rank for _, rank in echelons] == [1, 2]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rational_reconstruction(self, data):
        q0, q1 = islice(_prime_sequence(data.draw(st.integers(1, 4096))), 2)
        m = q0 * q1
        bound = isqrt(m // 2)
        den = data.draw(st.integers(1, bound))
        num = data.draw(st.integers(-bound, bound))
        assume(gcd(num, den) == 1 and gcd(den, m) == 1)
        got = exact._rational_reconstruction(np.array([num * pow(den, -1, m) % m, 0]), m)
        assert [x.tolist() for x in got] == [[num, 0], [den, 1]]

    @pytest.mark.parametrize("m", [3 * 5, 11 * 13, 97 * 101])
    def test_rational_reconstruction_every_residue(self, m):
        # every residue mod a small product of two primes: the fraction
        # under the bound is found when there is one, and a result is
        # always a congruent fraction under the bound
        bound = isqrt(m // 2)
        fractions = {n * pow(d, -1, m) % m: (n, d) for d in range(1, bound + 1) if gcd(d, m) == 1 for n in range(-bound, bound + 1) if gcd(n, d) == 1}
        nums, dens = exact._rational_reconstruction(np.arange(m), m)
        for a, (num, den) in enumerate(zip(nums.tolist(), dens.tolist())):
            if a in fractions:
                assert (num, den) == fractions[a]
            elif den:
                assert abs(num) <= bound and den <= bound and (num - den * a) % m == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_mod_against_python(self, data):
        # every x with |x| + q <= 2^53, the precondition of _mod, at the
        # echelon's primes: the ends of the range, multiples of q and their
        # neighbours, multiples of q - 1, and values in between.  Quotients
        # near the top are drawn apart, since hypothesis favours small
        # integers and the rounding that the corrections undo grows with them
        q = next(_prime_sequence(data.draw(st.integers(1, 4096))))
        bound = 2**53 - q

        def multiples(d):
            top = bound // d
            near_top = st.integers(top - 2**12, top)
            return st.one_of(st.integers(-top, top), near_top, near_top.map(lambda j: -j)).map(lambda j: j * d)

        x = st.one_of(
            st.sampled_from([-bound, bound, 0, 1, -1, q - 1, q, 1 - q, -q]),
            st.tuples(multiples(q), st.sampled_from([-1, 0, 1, q - 1])).map(sum).filter(lambda v: abs(v) <= bound),
            multiples(q - 1),
            st.integers(-bound, bound),
        )
        xs = data.draw(st.lists(x, min_size=1, max_size=50))
        got = exact._mod(np.array(xs, dtype=np.float64), q)
        assert got.tolist() == [v % q for v in xs]

    @pytest.mark.parametrize("side", ["float64", "Python ints"])
    @pytest.mark.parametrize("error", [0, -1, 1])
    def test_lift_on_either_side_of_the_float64_bound(self, side, error):
        # rows with differences v = [1, a] and w = [1, a + error q0], a just
        # below or just past the float64 bound (X + 1) q0 (|S| + 1) < 2^52
        # of the lift.  Modulo q0 they agree, so the first prime's lift
        # runs: w = v is certified by it, and a planted error of 1 in the
        # second q0-adic digit of w's non-pivot entry fails it, leaving
        # rank 2 to the next prime
        q0 = next(_prime_sequence(2))
        a = 2**51 // q0 + (-q0 - 3 if side == "float64" else 1)
        v, w = [1, a], [1, a + error * q0]
        assert ((max(a, a + error * q0) + 1) * q0 * 2 < 2**52) == (side == "float64")
        with recorded("_lifted") as verdicts:
            ranks, wants, echelons = feed(2, [[list(accumulate(v)), list(accumulate(w))]])
        assert ranks == wants == [1 if error == 0 else 2]
        assert verdicts == [error == 0]
        assert len(echelons) == (1 if error == 0 else 2)

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


def greedy_chosen(blocks, q):
    """Oracle: per block, the rows that raise the rank mod q of every row
    before them, by sympy over GF(q)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.GF(q)
    kept, chosen = [], []
    for block in blocks:
        chosen.append([])
        for i, row in enumerate(block.tolist()):
            rows = kept + [row]
            if DomainMatrix([[field(x) for x in r] for r in rows], (len(rows), len(row)), field).rank() == len(rows):
                kept.append(row)
                chosen[-1].append(i)
    return chosen


def assert_echelon_matches_greedy(blocks, ncols, chunk):
    """_echelon_ranks at the first prime, in slices of chunk rows: the
    greedy rows, their running counts as the ranks, and pivots P with
    S[:, P] invertible mod q; the leading-column pass, independent=True,
    gives None exactly when some row is not chosen."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    q = next(_prime_sequence(ncols))
    blocks = [np.array(block, dtype=np.int64).reshape(len(block), ncols) for block in blocks]
    with mock.patch.object(exact, "_CHUNK", chunk):
        ranks, chosen, pivots = exact._echelon_ranks(blocks, q, ncols)
        stopped = exact._echelon_ranks(blocks, q, ncols, independent=True)
    assert chosen == greedy_chosen(blocks, q)
    assert ranks == list(accumulate(map(len, chosen)))
    assert stopped == (None if ranks[-1] < sum(map(len, blocks)) else (ranks, chosen, pivots))
    square = np.concatenate([block[rows] for block, rows in zip(blocks, chosen)])[:, pivots] % q
    field = sympy.GF(q)
    assert DomainMatrix([[field(int(x)) for x in row] for row in square], square.shape, field).rank() == len(pivots)


def cut(rows, data):
    """rows cut into at most four consecutive blocks, the last one nonempty."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)))
    return [rows[i:j] for i, j in zip([0] + cuts, cuts + [len(rows)])]


def tries_leading(blocks, ncols, chunk):
    """Oracle: whether the first prime's pass tries the leading columns: R
    rows in more than R columns, and a block that follows at least chunk
    rows, each of which raised the rank."""
    rows = [row for block in blocks for row in block]
    taken = next((n for n in accumulate(map(len, blocks[:-1])) if n >= chunk), None)
    return len(rows) < ncols and taken is not None and rational_rank(rows[:taken]) == taken


class TestLeadingColumns:
    """R rows in more than R columns: once the first prime's pass has taken a
    slice of rows that each raised the rank, the leading R columns certify
    full row rank, or the full pass goes on and answers."""

    @pytest.mark.parametrize("chunk", [1, 2, exact._CHUNK])
    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_planted_full_row_rank(self, chunk, r, extra, data):
        # [L | B] with L lower unitriangular: its first differences keep a
        # unitriangular leading block, invertible modulo every prime, so the
        # leading-column pass, when it is tried, certifies rank R and the
        # full pass stops there; otherwise the full pass finds rank R
        ncols = r + extra
        low = [[int(i == j) if j >= i else data.draw(st.integers(-9, 9)) for j in range(r)] for i in range(r)]
        rows = [row + data.draw(st.lists(entries, min_size=extra, max_size=extra)) for row in low]
        blocks = cut(rows, data)
        with recorded("_echelon_ranks", leading=True) as leading:
            ranks, wants, echelons = feed(ncols, blocks, chunk)
        assert ranks == wants == list(accumulate(map(len, blocks)))
        if tries_leading(blocks, ncols, chunk):
            assert len(leading) == 1 and leading[0] is not None and echelons == []
        else:
            assert leading == [] and [rank for _, rank in echelons] == [r]
        assert_echelon_matches_greedy(blocks, ncols, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, exact._CHUNK])
    @given(st.integers(2, 5), st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_dependency_in_the_last_block(self, chunk, r, extra, data):
        # a rational combination of the earlier rows comes last: the
        # leading-column pass, taking the last block first, stops there, and
        # the full pass answers
        ncols = r + extra
        base = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=r - 1, max_size=r - 1))
        coeffs = [Fraction(data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 50))) for _ in base]
        scale = lcm(*(c.denominator for c in coeffs))
        planted = [int(sum(c * b[j] for c, b in zip(coeffs, base)) * scale) for j in range(ncols)]
        blocks = cut(base, data) + [[planted]]
        with recorded("_echelon_ranks", leading=True) as leading:
            ranks, wants, echelons = feed(ncols, blocks, chunk)
        assert ranks == wants
        assert leading == [None] * tries_leading(blocks, ncols, chunk) and echelons
        assert_echelon_matches_greedy(blocks, ncols, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, exact._CHUNK])
    @given(st.integers(2, 5), st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_independent_only_through_trailing_columns(self, chunk, r, extra, data):
        # the leading r columns hold rank below r (a repeated row there), the
        # trailing ones complete it: the leading-column pass fails, and the
        # full pass must find the rank
        ncols = r + extra
        lead = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=r, max_size=r), min_size=r - 1, max_size=r - 1))
        lead.append(list(lead[data.draw(st.integers(0, r - 2))]))
        rows = [row + data.draw(st.lists(entries, min_size=extra, max_size=extra)) for row in data.draw(st.permutations(lead))]
        blocks = cut(rows, data)
        with recorded("_echelon_ranks", leading=True) as leading:
            ranks, wants, echelons = feed(ncols, blocks, chunk)
        assert ranks == wants
        assert leading == [None] * tries_leading(blocks, ncols, chunk) and echelons
        assert_echelon_matches_greedy(blocks, ncols, chunk)

    @pytest.mark.parametrize("chunk", [1, 2])
    @given(st.integers(2, 5), st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_leading_pass_after_a_dependency(self, chunk, r, extra, data):
        # a repeated row among the first rows: the full pass sees the
        # dependency before it has taken a slice of independent rows, and
        # never tries the leading columns
        ncols = r + extra
        base = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=r, max_size=r))
        blocks = [[base[0], list(base[0])], base[1:]]
        with recorded("_echelon_ranks", leading=True) as leading:
            ranks, wants, _ = feed(ncols, blocks, chunk)
        assert ranks == wants
        assert leading == []


class TestCertificate:
    """rank_certificate: the rows S_d that raised the rank span blocks[0..d]
    over Q, and S_d holds full row rank on its first widths[d] columns."""

    @pytest.mark.parametrize("chunk", [1, 2, exact._CHUNK])
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_and_widths(self, chunk, ncols, data):
        # small chunks let a few rows take the leading-column path, whose width is the row count
        row = st.lists(st.one_of(entries, st.integers(0, 1)), min_size=ncols, max_size=ncols)
        blocks = data.draw(st.lists(st.lists(row, max_size=5), min_size=1, max_size=5))
        arrays = [np.array(block, dtype=np.int64).reshape(len(block), ncols) for block in blocks]
        with mock.patch.object(exact, "_CHUNK", chunk):
            chosen, widths = exact.rank_certificate(arrays, ncols)
        for d, width in enumerate(widths):
            rows = [row for block in blocks[: d + 1] for row in block]
            basis = [block[i] for block, picked in zip(blocks, chosen[: d + 1]) for i in picked]
            assert rational_rank(basis) == len(basis) == rational_rank(rows)
            assert width <= ncols
            assert not basis or rational_rank([row[:width] for row in basis]) == len(basis)

    @given(st.integers(2, 6), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_lift_reads_the_peak_of_the_differences(self, ncols, huge, data):
        # a repeated row makes the first prime's pass lift; its X is the
        # largest |entry| of the rows as lifted: their first differences when
        # every entry is below 2^62, which the entries' own peak is not
        value = st.integers(-(2**63), 2**63 - 1) if huge else st.integers(-(2**61), 2**61)
        row = data.draw(st.lists(value, min_size=ncols, max_size=ncols))
        lifted = row if max(map(abs, row)) >= 2**62 else row[:1] + [b - a for a, b in zip(row, row[1:])]
        with recorded("_lifted", lambda args, _: args[4]) as peaks:
            ranks, wants, _ = feed(ncols, [[row], [row]])
        assert ranks == wants
        assert peaks == [max(map(abs, lifted))]


def test_no_private_names_across_modules():
    # a module's underscored names are its own: no other package module
    # imports or reads them, and exact depends on no package module
    package = Path(pdseq.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pdseq")):
                if path.stem == "exact":
                    found.append(f"exact imports from {'.' * node.level}{node.module or ''}")
                found += [f"{path.stem} imports {a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Import) and path.stem == "exact":
                found += [f"exact imports {a.name}" for a in node.names if a.name.partition(".")[0] == "pdseq"]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                if node.value.id != path.stem and node.attr.startswith("_") and not node.attr.startswith("__"):
                    found.append(f"{path.stem} reads {node.value.id}.{node.attr}")
    assert found == []
