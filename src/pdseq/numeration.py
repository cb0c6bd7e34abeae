"""Numeration systems: base-k, Zeckendorf, and abstract numeration systems.

A numeration system maps n to its representation word (most significant
digit first; rep(0) is the empty word).  Abstract numeration systems
enumerate an infinite regular language in genealogical order (length
first, then lexicographically by the declared alphabet order) and unrank
by counting accepted words, with exact big-integer counts.  These per-index
unrankers are the references that the vectorized enumeration
(automata.genealogical_words) is tested against.
"""

from __future__ import annotations

from .automata import word_counts

__all__ = ["BaseK", "Zeckendorf", "Ans", "fibonacci_numbers"]


def fibonacci_numbers(limit=None, count=None):
    """The sequence 1, 1, 2, 3, 5, ... as Python ints."""
    fs = [1, 1]
    while (limit is not None and fs[-1] <= limit) or (count is not None and len(fs) < count):
        fs.append(fs[-1] + fs[-2])
    if limit is not None:
        while fs and fs[-1] > limit:
            fs.pop()
    if count is not None:
        fs = fs[:count]
    return fs


class BaseK:
    """Standard positional base-k system; digits are ints 0..k-1."""

    def __init__(self, k):
        if k < 2:
            raise ValueError("base must be at least 2")
        self.k = k
        self.alphabet = tuple(range(k))

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

    alphabet = (0, 1)

    def rep(self, n):
        if n < 0:
            raise ValueError("negative index")
        if n == 0:
            return ()
        ws = fibonacci_numbers(limit=n)[1:]
        digits = []
        rest = n
        for w in reversed(ws):
            if w <= rest:
                digits.append(1)
                rest -= w
            else:
                digits.append(0)
        assert rest == 0
        return tuple(digits)


class Ans:
    """Abstract numeration system over the language of a DFA.

    rep(n) unranks n in genealogical order.  The per-state counts of
    accepted suffixes by remaining length come from automata.word_counts,
    rebuilt at twice the length whenever a longer one is asked for.
    """

    def __init__(self, dfa):
        if dfa.read_order != "msd":
            raise ValueError("numeration DFAs read words as written (MSD first)")
        self.dfa = dfa
        self.alphabet = dfa.alphabet
        self._counts = []  # word_counts(dfa, L) for the largest L built so far
        if not self._language_is_infinite():
            raise ValueError("abstract numeration needs an infinite language")

    def _language_is_infinite(self):
        # textbook criterion: infinite iff some accepted word has length
        # between |Q| and 2|Q|-1 (such a word pumps)
        d = self.dfa
        n = d.num_states
        return any(self._count_from(length, d.initial) > 0 for length in range(n, 2 * n))

    def _count_from(self, length, state):
        if length >= len(self._counts):
            self._counts = list(word_counts(self.dfa, 2 * length))
        return self._counts[length][state]

    def rep(self, n):
        if n < 0:
            raise ValueError("negative index")
        d = self.dfa
        length = 0
        remaining = n
        while True:
            c = self._count_from(length, d.initial)
            if remaining < c:
                break
            remaining -= c
            length += 1
        word = []
        state = d.initial
        for pos in range(length):
            rest = length - pos - 1
            for letter in d.alphabet:
                nxt = d.step(state, letter)
                c = self._count_from(rest, nxt)
                if remaining < c:
                    word.append(letter)
                    state = nxt
                    break
                remaining -= c
            else:
                raise AssertionError("unrank ran out of letters")
        return tuple(word)
