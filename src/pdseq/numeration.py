"""Numeration systems: base-k, Zeckendorf, and abstract numeration systems.

A numeration system maps n to its representation word (most significant
digit first; rep(0) is the empty word) and back.  Abstract numeration
systems enumerate an infinite regular language in genealogical order
(length first, then lexicographically by the declared alphabet order) and
rank/unrank by counting accepted words, with exact big-integer counts.
"""

from __future__ import annotations

__all__ = ["BaseK", "Zeckendorf", "Ans", "fibonacci_weights"]


def fibonacci_weights(limit):
    """Zeckendorf weights 1, 2, 3, 5, 8, ... up to and including limit."""
    ws = [1, 2]
    while ws[-1] <= limit:
        ws.append(ws[-1] + ws[-2])
    while ws and ws[-1] > limit:
        ws.pop()
    return ws


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

    def val(self, word):
        n = 0
        for d in word:
            if not (isinstance(d, int) and 0 <= d < self.k):
                raise ValueError(f"digit {d!r} invalid in base {self.k}")
            n = n * self.k + d
        if word and word[0] == 0:
            raise ValueError("base-k representations have no leading zeros")
        return n


class Zeckendorf:
    """Greedy sums of non-adjacent Fibonacci weights 1, 2, 3, 5, 8, ..."""

    alphabet = (0, 1)

    def rep(self, n):
        if n < 0:
            raise ValueError("negative index")
        if n == 0:
            return ()
        ws = fibonacci_weights(n)
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

    def val(self, word):
        if not word:
            return 0
        if word[0] != 1:
            raise ValueError("Zeckendorf words start with digit 1")
        ws = [1, 2]
        while len(ws) < len(word):
            ws.append(ws[-1] + ws[-2])
        total = 0
        prev = 0
        for d, w in zip(word, reversed(ws[: len(word)])):
            if d not in (0, 1):
                raise ValueError(f"digit {d!r} invalid")
            if d and prev:
                raise ValueError("adjacent ones are not a Zeckendorf word")
            total += d * w
            prev = d
        return total


class Ans:
    """Abstract numeration system over the language of a DFA.

    rep(n) unranks n in genealogical order; val(w) ranks an accepted word.
    Per-state accepted-suffix counts by remaining length are computed once
    per requested length and cached append-only.
    """

    def __init__(self, dfa):
        if dfa.read_order != "msd":
            raise ValueError("numeration DFAs read words as written (MSD first)")
        self.dfa = dfa
        self.alphabet = dfa.alphabet
        # counts[length][state] = accepted words of that length from state
        self._counts = [[1 if acc else 0 for acc in dfa.outputs]]
        if not self._language_is_infinite():
            raise ValueError("abstract numeration needs an infinite language")

    def _language_is_infinite(self):
        # textbook criterion: infinite iff some accepted word has length
        # between |Q| and 2|Q|-1 (such a word pumps)
        d = self.dfa
        n = d.num_states
        return any(self._count_from(length, d.initial) > 0 for length in range(n, 2 * n))

    def _ensure_counts(self, length):
        d = self.dfa
        while len(self._counts) <= length:
            prev = self._counts[-1]
            cur = [0] * d.num_states
            for s in range(d.num_states):
                cur[s] = sum(prev[d.step(s, c)] for c in d.alphabet)
            self._counts.append(cur)

    def _count_from(self, length, state):
        self._ensure_counts(length)
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

    def val(self, word):
        d = self.dfa
        word = tuple(word)
        state = d.initial
        for c in word:
            state = d.step(state, c)
        if not d.outputs[state]:
            raise ValueError(f"word {word!r} not in the language")
        rank = sum(self._count_from(length, d.initial) for length in range(len(word)))
        state = d.initial
        for pos, c in enumerate(word):
            rest = len(word) - pos - 1
            for letter in d.alphabet:
                if letter == c:
                    break
                rank += self._count_from(rest, d.step(state, letter))
            state = d.step(state, c)
        return rank
