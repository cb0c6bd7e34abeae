"""Morphism algebra: fixed points, erasure removal, spectra, renamings."""

import ast
import inspect
import itertools
import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pdseq import catalog, checks, morphisms, series
from pdseq.automata import Dfa, Dfao, evaluate_range, word_counts
from pdseq.morphisms import (
    ExactEigenvalue,
    Morphism,
    ans_presentation,
    apply,
    image_table,
    equivalent_up_to_renaming,
    fixed_point_prefix,
    morphic_word_prefix,
    multiplicatively_independent,
    pf_eigenvalue,
    remove_erasure,
    run_lengths,
    trim_to_prolongable,
)

PRIMES = (2, 3, 5, 7, 2**61 - 1)


def queue_fixed_point(m, seed, n):
    """Reference: the fixed point from a work queue, one letter image at a time."""
    word, expand_at = list(m.rules[seed]), 1
    while len(word) < n:
        word.extend(m.rules[word[expand_at]])
        expand_at += 1
    return word[:n]


@st.composite
def prolongable_morphisms(draw):
    """A random morphism on 2-5 int or str letters, prolongable on its first letter."""
    size = draw(st.integers(2, 5))
    letters = draw(st.sampled_from([list(range(3, 3 + size)), [f"s{i}" for i in range(size)]]))
    image = st.lists(st.sampled_from(letters), min_size=1, max_size=4).map(tuple)
    rules = {a: draw(image) for a in letters}
    rules[letters[0]] = (letters[0],) + draw(image)
    return Morphism(rules), letters[0]


@st.composite
def numeration_systems(draw):
    """An MSD-first DFA and DFAO on 1-5 states each, over the digits 0..k-1, k = 2 or 3.

    Half the time no transition of the DFA re-enters its initial state.
    """
    k = draw(st.integers(2, 3))

    def automaton(output):
        n = draw(st.integers(1, 5))
        first = int(n > 1 and draw(st.booleans()))
        table = [[draw(st.integers(first, n - 1)) for _ in range(k)] for _ in range(n)]
        return range(n), 0, range(k), table, [draw(output) for _ in range(n)], "msd"

    return Dfa(*automaton(st.booleans())), Dfao(*automaton(st.integers(0, 3)))


def fib_presentation():
    """x's Zeckendorf automaton as a morphism and an erasing coding."""
    return ans_presentation(catalog.zeckendorf_language_dfa(), catalog.fibonacci_indicator_dfao())


def iterate(m, word):
    return [b for a in word for b in m.rules[a]]


@st.composite
def renamed_systems(draw):
    """A prolongable morphism on 2-6 letters reaching every letter from its seed
    0, a coding, and their copy renamed by a random permutation.

    Returns (f, g, renamed f, renamed g, the permutation as a dict).  Coding
    outputs are distinct: with two letters coded alike, swapping them could
    undo a one-letter change of an image.
    """
    n = draw(st.integers(2, 6))
    letter = st.integers(0, n - 1)
    images = [draw(st.lists(letter, min_size=1, max_size=3)) for _ in range(n)]
    images[0].insert(0, 0)
    for b in range(1, n):
        # b occurs in the image of an earlier letter, so the seed reaches it
        a = draw(st.integers(0, b - 1))
        images[a].insert(draw(st.integers(int(a == 0), len(images[a]))), b)
    outputs = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True))
    perm = dict(enumerate(draw(st.permutations(range(n)))))
    f = Morphism({a: w for a, w in enumerate(images)})
    g = Morphism({a: (o,) for a, o in enumerate(outputs)})
    renamed_f = Morphism({perm[a]: [perm[c] for c in w] for a, w in enumerate(images)})
    renamed_g = Morphism({perm[a]: (o,) for a, o in enumerate(outputs)})
    return f, g, renamed_f, renamed_g, perm


class TestFixedPoints:
    def test_period_doubling_prefix(self):
        h = catalog.period_doubling_morphism()
        got = fixed_point_prefix(h, 0, 21).tolist()
        assert got == [int(c) for c in "010001010100010001000"]

    def test_run_length_prefix(self):
        f = catalog.run_length_morphism()
        assert fixed_point_prefix(f, 1, 8).tolist() == [1, 2, 1, 1, 2, 2, 2, 1]

    def test_slow_growth_morphism(self):
        # one pass per letter: each expands the single b not yet expanded
        m = Morphism({"a": ("a", "b"), "b": ("b",)})
        for n in (4, 2000):
            assert fixed_point_prefix(m, "a", n).tolist() == ["a"] + ["b"] * (n - 1)

    def test_not_prolongable(self):
        m = Morphism({"a": ("b", "a"), "b": ("a",)})
        with pytest.raises(ValueError, match="prolongable"):
            fixed_point_prefix(m, "a", 4)

    def test_image_letter_outside_the_alphabet(self):
        m = Morphism({"a": ("a", "c"), "b": ("b",)})
        with pytest.raises(ValueError, match="'c' outside the alphabet"):
            fixed_point_prefix(m, "a", 4)

    def test_long_prefix_matches_formula(self):
        h = catalog.period_doubling_morphism()
        n = 1 << 18
        got = fixed_point_prefix(h, 0, n)
        assert np.array_equal(got, catalog.sequence("d").build(n))

    @given(prolongable_morphisms(), st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_work_queue(self, morphism_and_seed, n):
        m, seed = morphism_and_seed
        assert fixed_point_prefix(m, seed, n).tolist() == queue_fixed_point(m, seed, n)

    @given(prolongable_morphisms(), st.integers(0, 2000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_coding_matches_the_work_queue(self, morphism_and_seed, n, data):
        f, seed = morphism_and_seed
        out = data.draw(st.sampled_from([[0, 1, 2], ["x", "y"]]))
        g = Morphism({a: data.draw(st.lists(st.sampled_from(out), max_size=2)) for a in f.alphabet})
        # a coding may erase all but finitely many letters; those words are skipped
        coded = [b for a in queue_fixed_point(f, seed, 4 * n + 8) for b in g.rules[a]]
        assume(len(coded) >= n)
        assert morphic_word_prefix(f, g, seed, n).tolist() == coded[:n]

    def test_coding_that_keeps_finitely_many_letters(self):
        # a -> ab, b -> b has fixed point abbb...; coding b to nothing leaves
        # one letter, and a longer request is refused rather than searched for
        f = Morphism({"a": ("a", "b"), "b": ("b",)})
        g = Morphism({"a": (0,), "b": ()})
        assert morphic_word_prefix(f, g, "a", 1).tolist() == [0]
        with pytest.raises(ValueError, match="keeps 1 letters of the fixed point, fewer than 2"):
            morphic_word_prefix(f, g, "a", 2)
        # the kept letters can sit behind a chain of letters that recur once
        f = Morphism({"a": ("a", "b"), "b": ("c",), "c": ("d",), "d": ("e",), "e": ("e", "e")})
        g = Morphism({"a": (), "b": (), "c": (), "d": (1, 2), "e": ()})
        assert morphic_word_prefix(f, g, "a", 2).tolist() == [1, 2]
        with pytest.raises(ValueError, match="keeps 2 letters"):
            morphic_word_prefix(f, g, "a", 3)

    def test_thinning_coding_refused_past_physical_memory(self, monkeypatch):
        # 0 -> 012, 1 -> 1, 2 -> 22 has the fixed point 0 1 2 1 2^2 1 2^4 ...:
        # keeping only 1, n letters need a prefix of about 2^n letters
        f = Morphism({0: (0, 1, 2), 1: (1,), 2: (2, 2)})
        g = Morphism({0: (), 1: (1,), 2: ()})
        memory = 16 << 20
        monkeypatch.setattr(series, "physical_memory", lambda: memory)
        assert morphic_word_prefix(f, g, 0, 16).tolist() == [1] * 16
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="24 letters need a fixed-point prefix of .* physical memory"):
                morphic_word_prefix(f, g, 0, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < memory

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_coding_against_the_iterates(self, data):
        # f on up to 4 letters, prolongable on 0, and a coding that may erase:
        # the coding of each f^j(0), j <= 10, is a prefix of the coded word
        k = data.draw(st.integers(1, 4))
        letter = st.integers(0, k - 1)
        rules = {a: tuple(data.draw(st.lists(letter, min_size=1, max_size=3))) for a in range(k)}
        rules[0] = (0, *data.draw(st.lists(letter, min_size=1, max_size=2)))
        f = Morphism(rules)
        g = Morphism({a: tuple(data.draw(st.lists(st.sampled_from("xy"), max_size=2))) for a in range(k)})
        n = data.draw(st.integers(0, 40))
        iterates = [[0]]
        for _ in range(10):
            iterates.append([b for a in iterates[-1] for b in f.rules[a]])
        coded = [[b for a in w for b in g.rules[a]] for w in iterates]
        # the doubling reaches n letters below twice |f^10(0)| if f^10(0) codes them;
        # a coding that keeps too few letters for n only there is not followed further
        bound, fixed_point = 2 * len(iterates[-1]), morphisms._fixed_point

        def bounded(m, seed, size):
            if size > bound:
                raise OverflowError
            return fixed_point(m, seed, size)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(morphisms, "_fixed_point", bounded)
            try:
                got = morphic_word_prefix(f, g, 0, n).tolist()
            except ValueError as exc:
                # the kept letters all lie in f^|A|(0), so f^10(0) holds every one
                assert all(len(c) < n for c in coded)
                assert str(exc) == f"the coding keeps {len(coded[-1])} letters of the fixed point, fewer than {n}"
                return
            except OverflowError:
                assert len(coded[-1]) < n
                return
        for c in coded:
            assert got[: len(c)] == c[:n]

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_homomorphism_property(self, data):
        m = data.draw(
            st.sampled_from(
                [
                    catalog.period_doubling_morphism(),
                    catalog.generalized_tm_morphism(2),
                    catalog.run_length_morphism(),
                    catalog.golden_morphism(),
                ]
            )
        )
        # the one-gather image of a word of letter indices is the
        # concatenation of the letters' images, and so a homomorphism
        letters = m.alphabet
        table = image_table(m, letters, letters)
        word = np.array(data.draw(st.lists(st.integers(0, len(letters) - 1), max_size=50)), dtype=np.int64)
        cut = data.draw(st.integers(0, len(word)))
        image = apply(table, word)
        assert [letters[i] for i in image] == [b for i in word for b in m.rules[letters[i]]]
        assert image.tolist() == apply(table, word[:cut]).tolist() + apply(table, word[cut:]).tolist()


class TestPresentation:
    @given(numeration_systems(), st.integers(0, 1 << 10))
    @settings(max_examples=200, deadline=None)
    def test_word_is_the_dfao_in_the_numeration_system(self, system, n):
        language, m = system
        f, g = ans_presentation(language, m)
        # the words of at most 12 binary or 7 ternary digits lie in a fixed-point prefix of 2^13 letters
        short = 12 if len(language.alphabet) == 2 else 7
        counts = [int(c) for c in word_counts(language, short)]
        # an s-state DFA accepting a word of length s..2s-1 accepts infinitely many
        s = language.num_states
        if not any(counts[s : 2 * s]) and n > sum(counts):
            with pytest.raises(ValueError, match="fewer than"):
                evaluate_range(m, n, language)
            with pytest.raises(ValueError, match=f"fewer than {n}"):
                morphic_word_prefix(f, g, "z", n)
            return
        n = min(n, sum(counts))
        assert morphic_word_prefix(f, g, "z", n).tolist() == evaluate_range(m, n, language).tolist()

    def test_positions_of_ones_mod_3(self):
        value_mod_3 = Dfao(range(3), 0, (0, 1), [[2 * r % 3, (2 * r + 1) % 3] for r in range(3)], range(3), "msd")
        f, g = ans_presentation(catalog.ones_positions_language_dfa(), value_mod_3)
        assert len(f.alphabet) == 15
        want = catalog.sequence("a").prefix(10**4) % 3
        assert morphic_word_prefix(f, g, "z", 10**4).tolist() == want.tolist()

    def test_lsd_first_refused(self):
        with pytest.raises(ValueError, match="MSD-first"):
            ans_presentation(Dfa(["all"], 0, (0, 1), [[0, 0]], [True], "lsd"), catalog.inverse_pd_dfao())


class TestErasureRemoval:
    def test_coding_that_erases_nothing_is_identity(self):
        f, g = catalog.golden_morphism(), catalog.golden_coding()
        f2, g2 = remove_erasure(f, g)
        assert f2.rules == f.rules and g2.rules == g.rules

    def test_word_preserved(self):
        f, g = fib_presentation()
        fe, ge = remove_erasure(f, g)
        assert sorted(set(f.alphabet) - set(fe.alphabet)) == ["q1", "q3", "q5"]
        before = morphic_word_prefix(f, g, "z", 200)
        after = morphic_word_prefix(fe, ge, "z", 200)
        assert before.tolist() == after.tolist()

    @given(prolongable_morphisms(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_coded_iterates_preserved(self, morphism_and_seed, data):
        # with p the projection that erases the dropped letters, g f^j = g_E f_E^j p
        f, seed = morphism_and_seed
        g = Morphism({a: data.draw(st.lists(st.sampled_from("xy"), max_size=2)) for a in f.alphabet})
        fe, ge = remove_erasure(f, g)
        assert all(not g.rules[a] for a in f.alphabet if a not in fe.rules)
        word, kept = [seed], [seed] if seed in fe.rules else []
        for _ in range(5):
            assert iterate(g, word) == iterate(ge, kept)
            word, kept = iterate(f, word), iterate(fe, kept)
        # the dropped set is the largest one: a second pass drops nothing
        assert remove_erasure(fe, ge)[0].rules == fe.rules

    def test_trim_requires_erased_seed(self):
        phi = catalog.golden_morphism()
        mu = catalog.golden_coding()
        with pytest.raises(ValueError, match="erased"):
            trim_to_prolongable(phi, mu, "a")

    def test_trim_preserves_word(self):
        fe, ge = remove_erasure(*fib_presentation())
        fp, gp, seed = trim_to_prolongable(fe, ge, "z")
        assert seed == "q0"
        assert morphic_word_prefix(fp, gp, seed, 200).tolist() == morphic_word_prefix(fe, ge, "z", 200).tolist()

    @given(numeration_systems())
    @settings(max_examples=200, deadline=None)
    def test_trim_drops_only_the_seed(self, system):
        fe, ge = remove_erasure(*ans_presentation(*system))
        if "z" not in fe.rules or any("q0" in w for a, w in fe.rules.items() if a != "z"):
            with pytest.raises(ValueError):
                trim_to_prolongable(fe, ge, "z")
            return
        fp, gp, seed = trim_to_prolongable(fe, ge, "z")
        assert seed == "q0" and gp.rules == {a: w for a, w in ge.rules.items() if a != "z"}
        # f_E^(j+1)(z) = z f'^j(q0), letter for letter
        word, trimmed = ["z", "q0"], ["q0"]
        for _ in range(7):
            assert word == ["z", *trimmed]
            word, trimmed = iterate(fe, word), iterate(fp, trimmed)


class TestSpectra:
    def test_golden_ratio(self):
        tag = pf_eigenvalue(catalog.golden_morphism().incidence_matrix())
        assert tag == ExactEigenvalue.quadratic(-1, -1)
        assert str(tag) == "x^2 - x - 1"
        # the same shape with a root near 1000
        tag = pf_eigenvalue([[0, 1], [1, 1000]])
        assert tag == ExactEigenvalue.quadratic(-1, -1000)
        assert str(tag) == "x^2 - 1000x - 1"

    def test_uniform_morphisms_give_the_arity(self):
        assert pf_eigenvalue(catalog.period_doubling_morphism().incidence_matrix()) == ExactEigenvalue.integer(2)
        assert pf_eigenvalue(catalog.generalized_tm_morphism(2).incidence_matrix()) == ExactEigenvalue.integer(2)
        assert pf_eigenvalue(catalog.generalized_tm_morphism(3).incidence_matrix()) == ExactEigenvalue.integer(3)
        assert pf_eigenvalue(catalog.generalized_tm_morphism(5).incidence_matrix()) == ExactEigenvalue.integer(5)

    def test_zero_matrix(self):
        assert pf_eigenvalue(np.zeros((3, 3), dtype=np.int64)) == ExactEigenvalue.integer(0)

    def test_run_length_morphism_spectrum(self):
        # (x - 1)(x - 4): the letters grow by a factor of four per step
        assert pf_eigenvalue(catalog.run_length_morphism().incidence_matrix()) == ExactEigenvalue.integer(4)
        # (x - 2)^2: the repeated root is isolated on the squarefree part
        assert pf_eigenvalue([[2, 1], [0, 2]]) == ExactEigenvalue.integer(2)

    def test_block_triangular_takes_component_max(self):
        m = np.array([[1, 5, 5], [0, 0, 2], [0, 1, 0]], dtype=np.int64)
        # components {0} and {1,2}; radii 1 and sqrt(2)
        assert pf_eigenvalue(m) == ExactEigenvalue.quadratic(-2, 0)

    def test_cubic_radius_has_no_tag(self):
        # the plastic number, the real root of x^3 - x - 1
        assert pf_eigenvalue([[0, 0, 1], [1, 0, 1], [0, 1, 0]]) is None
        # x^2 - x - 1 divides the polynomial, but the largest root, about 1.879, is x^3 - 3x - 1's
        m = np.zeros((5, 5), dtype=np.int64)
        m[:3, :3] = [[0, 0, 1], [1, 0, 3], [0, 1, 0]]
        m[3:, 3:] = [[1, 1], [1, 0]]
        assert morphisms._char_poly(m) == [1, 4, 2, -4, -1, 1]
        assert pf_eigenvalue(m) is None

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_char_poly_matches_sympy(self, n, data):
        sympy = pytest.importorskip("sympy")
        m = data.draw(st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=n, max_size=n))
        want = sympy.Matrix(m).charpoly(sympy.Symbol("x")).all_coeffs()
        assert morphisms._char_poly(m) == [int(c) for c in reversed(want)]

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_tag_is_the_minimal_polynomial(self, n, data):
        # oracle: sympy's minimal polynomial of the largest real eigenvalue
        sympy = pytest.importorskip("sympy")
        m = data.draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=n, max_size=n))
        x = sympy.Symbol("x")
        root = sympy.Matrix(m).charpoly(x).real_roots()[-1]
        coeffs = sympy.Poly(sympy.minimal_polynomial(root, x), x).all_coeffs()
        assert coeffs[0] == 1
        if len(coeffs) == 2:
            want = ExactEigenvalue.integer(-coeffs[1])
        elif len(coeffs) == 3:
            want = ExactEigenvalue.quadratic(coeffs[2], coeffs[1])
        else:
            want = None
        assert pf_eigenvalue(m) == want

    def test_spectral_code_has_no_floats(self):
        # exact throughout: no float literal or float() call in morphisms or in check 12
        trees = [ast.parse(inspect.getsource(morphisms)), ast.parse(inspect.getsource(checks.check_eigenvalues))]
        found = [
            ast.unparse(node)
            for tree in trees
            for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and isinstance(node.value, float))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
        ]
        assert found == []


class TestMultiplicativeIndependence:
    def test_integer_pairs(self):
        assert not multiplicatively_independent(2, 8)
        assert not multiplicatively_independent(4, 8)
        assert multiplicatively_independent(2, 3)
        assert multiplicatively_independent(6, 12)
        assert not multiplicatively_independent(6, 36)
        assert multiplicatively_independent(2**61 - 1, 3)

    def test_golden_vs_integers(self):
        tag = ExactEigenvalue.quadratic(-1, -1)
        for k in range(2, 11):
            assert multiplicatively_independent(k, tag)
            assert multiplicatively_independent(tag, k)

    def test_square_root_reduces_to_integer_case(self):
        sqrt2 = ExactEigenvalue.quadratic(-2, 0)
        assert not multiplicatively_independent(sqrt2, 2)
        assert multiplicatively_independent(sqrt2, 3)

    def test_same_field_quadratics(self):
        # Two quadratics are refused even when they share a field and are dependent.
        golden = ExactEigenvalue.quadratic(-1, -1)
        golden_sq = ExactEigenvalue.quadratic(1, -3)  # x^2-3x+1: larger root phi^2
        lucas = [2, 1]
        while len(lucas) <= 70:
            lucas.append(lucas[-1] + lucas[-2])
        # phi^n is the larger root of x^2 - L_n x + (-1)^n, and (phi^3)^70 = (phi^70)^3
        phi3, phi70 = (ExactEigenvalue.quadratic((-1) ** n, -lucas[n]) for n in (3, 70))
        for alpha, beta in ((golden, golden_sq), (phi3, phi70)):
            with pytest.raises(ValueError, match="two quadratic"):
                multiplicatively_independent(alpha, beta)

    def test_different_fields_rejected(self):
        golden = ExactEigenvalue.quadratic(-1, -1)
        sqrt2 = ExactEigenvalue.quadratic(-2, 0)
        with pytest.raises(ValueError, match="two quadratic"):
            multiplicatively_independent(golden, sqrt2)

    @given(
        st.dictionaries(st.sampled_from(PRIMES), st.integers(1, 4), max_size=3),
        st.dictionaries(st.sampled_from(PRIMES), st.integers(1, 4), max_size=3),
        st.integers(1, 4),
        st.integers(1, 4),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_integers_against_factorizations(self, base, other, i, j, related):
        # dependent exactly when the exponent vectors are proportional
        sympy = pytest.importorskip("sympy")
        n = prod(q**e for q, e in base.items())
        a, b = n**i, n**j if related else prod(q**e for q, e in other.items())
        fa, fb = sympy.factorint(a), sympy.factorint(b)
        dependent = not fa or not fb or (fa.keys() == fb.keys() and len({Fraction(fa[q], fb[q]) for q in fa}) == 1)
        assert multiplicatively_independent(a, b) == (not dependent)


class TestWordUtilities:
    def test_thue_morse_run_lengths(self):
        t = catalog.sequence("t").prefix(64)
        assert run_lengths(t)[:8].tolist() == [1, 2, 1, 1, 2, 2, 2, 1]

    def test_staircase(self):
        word = [0] * 1 + [1] * 2 + [0] * 3 + [1] * 4 + [0] * 5
        assert run_lengths(word).tolist() == [1, 2, 3, 4, 5]

    def test_unterminated_block(self):
        # the block that the end of the input cuts off is reported as it stands
        assert run_lengths([7, 7, 7, 7]).tolist() == [4]
        assert run_lengths([1, 7, 7]).tolist() == [1, 2]

    @given(st.lists(st.integers(-2, 2), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_groupby(self, values):
        want = [len(list(group)) for _, group in itertools.groupby(values)]
        assert run_lengths(values).tolist() == want

    def test_empty_input(self):
        assert run_lengths([]).tolist() == []


class TestRenaming:
    def test_identity_on_self(self):
        f = catalog.golden_morphism()
        g = catalog.golden_coding()
        bij = equivalent_up_to_renaming(f, g, "a", f, g, "a")
        assert bij == {letter: letter for letter in f.alphabet}

    def test_distinct_morphisms_fail(self):
        h = catalog.period_doubling_morphism()
        tau = catalog.generalized_tm_morphism(2)
        ident = Morphism({0: (0,), 1: (1,)})
        assert equivalent_up_to_renaming(h, ident, 0, tau, ident, 0) is None

    def test_pipeline_bijection(self):
        fp, gp, seed = trim_to_prolongable(*remove_erasure(*fib_presentation()), "z")
        bij = equivalent_up_to_renaming(
            fp, gp, seed, catalog.golden_morphism(), catalog.golden_coding(), "a"
        )
        assert bij == {"q0": "a", "q2": "b", "q4": "c", "q7": "d", "q6": "e"}

    @given(renamed_systems(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_renaming_is_found(self, system, data):
        f, g, f2, g2, perm = system
        seed2 = perm[0]
        assert equivalent_up_to_renaming(f, g, 0, f2, g2, seed2) == perm
        # one image letter changed
        b = data.draw(st.sampled_from(f2.alphabet))
        i = data.draw(st.integers(0, len(f2.rules[b]) - 1))
        other = data.draw(st.sampled_from([c for c in f2.alphabet if c != f2.rules[b][i]]))
        changed = Morphism(f2.rules | {b: f2.rules[b][:i] + (other,) + f2.rules[b][i + 1 :]})
        assert equivalent_up_to_renaming(f, g, 0, changed, g2, seed2) is None
        # one coding output changed
        recoded = Morphism(g2.rules | {b: (10,)})
        assert equivalent_up_to_renaming(f, g, 0, f2, recoded, seed2) is None
        # one more letter on each side, reached from neither seed
        extra = len(perm)
        f_more, g_more = Morphism(f.rules | {extra: (0,)}), Morphism(g.rules | {extra: (10,)})
        f2_more, g2_more = Morphism(f2.rules | {extra: (seed2,)}), Morphism(g2.rules | {extra: (10,)})
        assert equivalent_up_to_renaming(f_more, g_more, 0, f2_more, g2_more, seed2) is None
