"""Slow references that the vectorized code in pdseq is tested against.

Each works one word or one index at a time, in plain Python: an automaton
reads a word letter by letter, a numeration system writes one index as a
word (most significant digit first; rep(0) is the empty word), and words
are enumerated by brute force.  The package computes all of this in bulk
(automata.evaluate_range, automata.genealogical_words, automata.word_counts)
and never calls these.
"""

from __future__ import annotations

import itertools

from pdseq.automata import LSD_FIRST, word_counts
from pdseq.catalog import fibonacci_numbers

# -- automata, one letter at a time ------------------------------------------


def step(m, state, letter):
    """m's successor of state on letter."""
    try:
        j = m.alphabet.index(letter)
    except ValueError:
        raise ValueError(f"letter {letter!r} outside the input alphabet") from None
    return int(m.table[state, j])


def output(m, word):
    """m's output letter after reading word in m's own order."""
    s = m.initial
    for c in word:
        s = step(m, s, c)
    return m.outputs[s]


def from_state(m, s):
    """Copy of m that starts in state s."""
    return type(m)(m.labels, s, m.alphabet, m.table, m.outputs, m.read_order)


def accepts(dfa, word):
    return bool(output(dfa, word))


def evaluate(m, n, numeration):
    """Value of the automatic sequence generated by m at index n.

    The numeration system writes n most-significant digit first; the word
    is reversed when m reads LSD-first.
    """
    word = numeration.rep(n)
    if m.read_order == LSD_FIRST:
        word = tuple(reversed(word))
    return output(m, word)


# -- words by brute force -------------------------------------------------------


def all_words(length, k=2):
    """Every word of the given length over the letters 0..k-1, in lexicographic order."""
    return itertools.product(range(k), repeat=length)


def brute_count(dfa, length):
    """The number of words of the given length that dfa accepts."""
    return sum(1 for w in all_words(length, len(dfa.alphabet)) if accepts(dfa, w))


def genealogical_words(dfa, count):
    """The first count words that a dfa over 0..k-1 accepts, length by length, each length in lexicographic order."""
    k = len(dfa.alphabet)
    words = (w for length in itertools.count() for w in all_words(length, k) if accepts(dfa, w))
    return list(itertools.islice(words, count))


# -- numeration systems, one index at a time --------------------------------


class BaseK:
    """Standard positional base-k system; digits are ints 0..k-1."""

    def __init__(self, k):
        if k < 2:
            raise ValueError("base must be at least 2")
        self.k = k

    def rep(self, n):
        if n < 0:
            raise ValueError("negative index")
        digits = []
        while n:
            n, r = divmod(n, self.k)
            digits.append(r)
        return tuple(reversed(digits))


class Zeckendorf:
    """Greedy sums of non-adjacent Fibonacci weights 1, 2, 3, 5, 8, ..."""

    def rep(self, n):
        if n < 0:
            raise ValueError("negative index")
        if n == 0:
            return ()
        digits = []
        rest = n
        for w in reversed(fibonacci_numbers(limit=n)[1:]):
            if w <= rest:
                digits.append(1)
                rest -= w
            else:
                digits.append(0)
        assert rest == 0
        return tuple(digits)


class Ans:
    """Abstract numeration system over the language of an MSD-first DFA.

    rep(n) unranks n in genealogical order by counting accepted words.  The
    counts of accepted suffixes by remaining length from each state come
    from automata.word_counts of the DFA started there, rebuilt at twice the
    length whenever a longer one is asked for.
    """

    def __init__(self, dfa):
        if dfa.read_order != "msd":
            raise ValueError("numeration DFAs read words as written (MSD first)")
        self.dfa = dfa
        self._counts = {}  # state s -> word_counts(from_state(dfa, s), L) for the largest L built so far
        # infinite iff some accepted word has length between |Q| and 2|Q|-1 (such a word pumps)
        n = dfa.num_states
        if not any(self._count_from(length, dfa.initial) for length in range(n, 2 * n)):
            raise ValueError("abstract numeration needs an infinite language")

    def _count_from(self, length, state):
        counts = self._counts.get(state, [])
        if length >= len(counts):
            counts = self._counts[state] = list(word_counts(from_state(self.dfa, state), 2 * length))
        return counts[length]

    def rep(self, n):
        if n < 0:
            raise ValueError("negative index")
        d = self.dfa
        length = 0
        remaining = n
        while remaining >= (c := self._count_from(length, d.initial)):
            remaining -= c
            length += 1
        word = []
        state = d.initial
        for rest in range(length - 1, -1, -1):
            for letter in d.alphabet:
                nxt = step(d, state, letter)
                c = self._count_from(rest, nxt)
                if remaining < c:
                    word.append(letter)
                    state = nxt
                    break
                remaining -= c
            else:
                raise AssertionError("unrank ran out of letters")
        return tuple(word)
