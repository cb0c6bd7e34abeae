"""Deterministic finite automata with output (DFAOs) and acceptors (DFAs).

Automata are immutable after construction.  States are indexed 0..n-1 with
optional labels; the input alphabet is an ordered tuple of letters (digits
are plain ints).  A DFAO carries one output letter per state; a DFA is the
special case of boolean outputs.  Every automaton declares whether input
words are fed least-significant-digit first or most-significant first, so a
convention mismatch is a type-level error instead of a silent bug.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "Dfao",
    "Dfa",
    "evaluate",
    "evaluate_range",
    "genealogical_words",
    "product",
    "union",
    "minimize",
    "word_counts",
]

LSD_FIRST = "lsd"
MSD_FIRST = "msd"


class Dfao:
    """Deterministic finite automaton with an output letter on each state."""

    __slots__ = ("labels", "initial", "alphabet", "transitions", "outputs", "read_order", "_letter_index", "_table")

    def __init__(self, labels, initial, alphabet, transitions, outputs, read_order):
        labels = tuple(labels)
        alphabet = tuple(alphabet)
        n = len(labels)
        if not 0 <= initial < n:
            raise ValueError("initial state out of range")
        if read_order not in (LSD_FIRST, MSD_FIRST):
            raise ValueError(f"read_order must be {LSD_FIRST!r} or {MSD_FIRST!r}")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        trans = {}
        for (s, c), t in transitions.items():
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"transition ({s},{c!r})->{t} out of range")
            if c not in alphabet:
                raise ValueError(f"transition letter {c!r} not in alphabet")
            trans[(s, c)] = t
        for s in range(n):
            for c in alphabet:
                if (s, c) not in trans:
                    raise ValueError(f"transition missing for state {s} on {c!r}")
        outputs = tuple(outputs)
        if len(outputs) != n:
            raise ValueError("one output letter per state required")
        self.labels = labels
        self.initial = initial
        self.alphabet = alphabet
        self.transitions = trans
        self.outputs = outputs
        self.read_order = read_order
        self._letter_index = {c: i for i, c in enumerate(alphabet)}
        table = np.empty((n, len(alphabet)), dtype=np.int64)
        for (s, c), t in trans.items():
            table[s, self._letter_index[c]] = t
        table.setflags(write=False)
        self._table = table

    @property
    def num_states(self):
        return len(self.labels)

    def step(self, state, letter):
        try:
            j = self._letter_index[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} outside the input alphabet") from None
        return int(self._table[state, j])

    def final_state(self, word):
        s = self.initial
        for c in word:
            s = self.step(s, c)
        return s

    def output(self, word):
        """Output letter after feeding word in the automaton's own order."""
        return self.outputs[self.final_state(word)]

    def transition_table(self):
        """Dense (state, letter index) -> state array; read-only view."""
        return self._table

    # -- serialization --------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "states": list(self.labels),
                "initial": self.initial,
                "alphabet": list(self.alphabet),
                "transitions": [[s, c, t] for (s, c), t in sorted(self.transitions.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
                "outputs": list(self.outputs),
                "read_order": self.read_order,
            }
        )

    def to_dot(self, name="dfao"):
        """GraphViz source; parallel edges are merged into one labelled edge."""
        lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point];']
        for i, lab in enumerate(self.labels):
            lines.append(f'  q{i} [shape=circle, label="{lab}/{self.outputs[i]}"];')
        lines.append(f"  __start -> q{self.initial};")
        merged = {}
        for (s, c), t in self.transitions.items():
            merged.setdefault((s, t), []).append(c)
        for (s, t), letters in sorted(merged.items()):
            lab = ",".join(str(c) for c in sorted(letters, key=str))
            lines.append(f'  q{s} -> q{t} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)

    # -- canonical form --------------------------------------------------

    def canonical(self):
        """Isomorphic copy with states renumbered in BFS order from the start.

        Two automata are identical up to state renaming exactly when their
        canonical forms compare equal.  Unreachable states are dropped.
        """
        order = [self.initial]
        seen = {self.initial}
        i = 0
        while i < len(order):
            s = order[i]
            i += 1
            for c in self.alphabet:
                t = self.step(s, c)
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        renum = {old: new for new, old in enumerate(order)}
        trans = {}
        for old in order:
            for c in self.alphabet:
                trans[(renum[old], c)] = renum[self.step(old, c)]
        return type(self)(
            [self.labels[old] for old in order],
            0,
            self.alphabet,
            trans,
            [self.outputs[old] for old in order],
            self.read_order,
        )

    def same_up_to_renaming(self, other):
        """True when the automata differ only by state names/numbering."""
        if (self.alphabet, self.read_order) != (other.alphabet, other.read_order):
            return False
        a, b = self.canonical(), other.canonical()
        return (
            a.num_states == b.num_states
            and a.outputs == b.outputs
            and all(a.transitions[k] == b.transitions[k] for k in a.transitions)
        )



class Dfa(Dfao):
    """Acceptor: outputs are booleans (True on accepting states)."""

    def __init__(self, labels, initial, alphabet, transitions, accepting, read_order):
        outputs = tuple(bool(x) for x in accepting)
        super().__init__(labels, initial, alphabet, transitions, outputs, read_order)

    def accepts(self, word):
        return bool(self.output(word))


def evaluate(m, n, numeration):
    """Value of the automatic sequence generated by m at index n.

    The numeration system supplies the representation of n most-significant
    digit first; it is reversed here when the automaton reads LSD-first.
    """
    word = numeration.rep(n)
    if m.read_order == LSD_FIRST:
        word = tuple(reversed(word))
    return m.output(word)


def genealogical_words(language, count, m=None):
    """The first count words of a language in genealogical order, as arrays.

    language is an MSD-first DFA; its words are taken length by length and,
    within a length, lexicographically by the alphabet order (the order of
    an abstract numeration system, so the n-th word represents n).  Returns
    two int64 arrays: the base-k value of each word, where k is the alphabet
    size and a letter's digit is its index in the alphabet, and the state
    that m (an MSD-first DFAO over the same alphabet; default the language
    DFA itself) reaches on it.  Raises ValueError when the language has
    fewer than count words or one longer than int64 values allow.
    """
    if m is None:
        m = language
    if (language.read_order, m.read_order) != (MSD_FIRST, MSD_FIRST):
        raise ValueError("genealogical enumeration reads words MSD-first")
    if m.alphabet != language.alphabet:
        raise ValueError("alphabet mismatch between the language and the automaton")
    k, nm = len(language.alphabet), m.num_states
    # pair state s = (language state) * nm + (m state): one gather per length
    table = (language.transition_table()[:, None, :] * nm + m.transition_table()[None, :, :]).reshape(-1, k)
    accepting = np.repeat(np.array(language.outputs, dtype=bool), nm)
    live = np.repeat(_coaccessible(language), nm)
    states = np.array([language.initial * nm + m.initial], dtype=np.int64)
    values = np.zeros(1, dtype=np.int64)
    found_values, found_states = [], []
    found = length = 0
    while True:
        acc = accepting[states]
        found_values.append(values[acc])
        found_states.append(states[acc])
        found += len(found_states[-1])
        if found >= count:
            break
        length += 1
        if k**length > 1 << 63:
            raise ValueError(f"words of length {length} overflow int64 values")
        # every live word extended by each letter, still in lexicographic order
        states = table[states].ravel()
        values = (values[:, None] * k + np.arange(k)).ravel()
        keep = live[states]
        states, values = states[keep], values[keep]
        if not len(states):
            raise ValueError(f"the language has only {found} words, fewer than {count}")
    return np.concatenate(found_values)[:count], np.concatenate(found_states)[:count] % nm


def _coaccessible(dfa):
    """Boolean mask of the states from which some accepting state is reachable."""
    table = dfa.transition_table()
    live = np.array(dfa.outputs, dtype=bool)
    while True:
        grown = live | live[table].any(axis=1)
        if np.array_equal(grown, live):
            return live
        live = grown


def _base_k_language(k):
    """MSD-first acceptor of the base-k representations: empty or no leading zero."""
    trans = {(s, d): 2 if s == 2 or (s, d) == (0, 0) else 1 for s in range(3) for d in range(k)}
    return Dfa(("start", "digits", "dead"), 0, range(k), trans, (True, True, False), MSD_FIRST)


def evaluate_range(m, count, language=None):
    """Outputs of m at indices 0..count-1, as an int64 array.

    Index n is represented by the n-th word of language in genealogical
    order (see genealogical_words).  With no language, n is written in base
    k = len(m.alphabet) over digits 0..k-1, without leading zeros, and fed
    in m's own read order.
    """
    outputs = np.array(m.outputs)
    if outputs.ndim != 1 or outputs.dtype.kind not in "biu":
        raise ValueError("vectorized evaluation needs integer outputs")
    outputs = outputs.astype(np.int64)
    if language is not None:
        return outputs[genealogical_words(language, count, m)[1]]
    k = len(m.alphabet)
    if m.alphabet != tuple(range(k)):
        raise ValueError("base-k evaluation needs alphabet (0, ..., k-1)")
    if m.read_order == MSD_FIRST:
        return outputs[genealogical_words(_base_k_language(k), count, m)[1]]
    table = m.transition_table()
    # states[v] is the state after reading the length-L digit string v
    # LSD-first; a new leading digit d is read last and gives v' = d*k^L + v
    states = np.array([m.initial], dtype=np.int64)
    pieces = [states]
    while k ** (len(pieces) - 1) < count:
        lower = len(states)
        states = table[states].T.ravel()
        pieces.append(states[lower:])  # the strings without a leading zero
    return outputs[np.concatenate(pieces)[:count]]


def product(a, b):
    """Reachable product automaton; outputs are (output_a, output_b) pairs."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch in product")
    if a.read_order != b.read_order:
        raise ValueError("read-order mismatch in product")
    start = (a.initial, b.initial)
    order = [start]
    index = {start: 0}
    trans = {}
    i = 0
    while i < len(order):
        sa, sb = order[i]
        for c in a.alphabet:
            t = (a.step(sa, c), b.step(sb, c))
            if t not in index:
                index[t] = len(order)
                order.append(t)
            trans[(i, c)] = index[t]
        i += 1
    labels = [f"({a.labels[sa]},{b.labels[sb]})" for sa, sb in order]
    outputs = [(a.outputs[sa], b.outputs[sb]) for sa, sb in order]
    return Dfao(labels, 0, a.alphabet, trans, outputs, a.read_order)


def map_outputs(m, fn, as_dfa=False):
    """Copy of m with each state output replaced by fn(output)."""
    outs = [fn(o) for o in m.outputs]
    cls = Dfa if as_dfa else Dfao
    return cls(m.labels, m.initial, m.alphabet, m.transitions, outs, m.read_order)


def union(a, b):
    """DFA accepting the union of two languages over the same alphabet."""
    prod = product(a, b)
    return map_outputs(prod, lambda pair: bool(pair[0]) or bool(pair[1]), as_dfa=True)


def minimize(m):
    """Moore minimization: merge states with equal behaviour.

    Partition refinement seeded by output letters; unreachable states are
    dropped first and the result is renumbered canonically (BFS order), so
    minimizing two behaviour-equal automata yields identical tables.
    """
    m = m.canonical()
    n = m.num_states
    # block id per state, seeded by outputs
    outs = {}
    block = [0] * n
    for s in range(n):
        block[s] = outs.setdefault(m.outputs[s], len(outs))
    while True:
        signatures = {}
        new_block = [0] * n
        for s in range(n):
            sig = (block[s],) + tuple(block[m.step(s, c)] for c in m.alphabet)
            new_block[s] = signatures.setdefault(sig, len(signatures))
        if len(signatures) == len(set(block)):
            block = new_block
            break
        block = new_block
    nblocks = len(set(block))
    rep = {}
    for s in range(n):
        rep.setdefault(block[s], s)
    trans = {}
    outputs = [None] * nblocks
    labels = [None] * nblocks
    for b, s in rep.items():
        outputs[b] = m.outputs[s]
        labels[b] = m.labels[s]
        for c in m.alphabet:
            trans[(b, c)] = block[m.step(s, c)]
    reduced = type(m)(labels, block[m.initial], m.alphabet, trans, outputs, m.read_order)
    return reduced.canonical()


def word_counts(dfa, max_length):
    """counts[n][s]: the number of words of length n that dfa accepts read from state s.

    One backward pass over the transition table, n = 0..max_length, in exact
    big integers: a word of length n from s is a letter c followed by a word
    of length n-1 from step(s, c).  The language's own count at length n is
    counts[n][dfa.initial].
    """
    if max_length < 0:
        raise ValueError(f"word length {max_length} is negative")
    table = dfa.transition_table()
    row = np.array([int(bool(o)) for o in dfa.outputs], dtype=object)
    counts = [row.tolist()]
    for _ in range(max_length):
        row = row[table].sum(axis=1)
        counts.append(row.tolist())
    return counts
