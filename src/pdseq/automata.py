"""Deterministic finite automata with output (DFAOs) and acceptors (DFAs).

Automata are immutable after construction.  States are indexed 0..n-1 with
optional labels; the input alphabet is an ordered tuple of letters (digits
are plain ints).  The transitions are one int64 table, table[s, j] the
successor of state s on alphabet[j]; canonical form, minimization, product,
union, counting and vectorized evaluation all work on it.  A DFAO carries
one output letter per state; a DFA is the special case of boolean outputs.
Every automaton declares whether input words are fed least-significant-digit
first or most-significant first, so a convention mismatch is a type-level
error instead of a silent bug.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

__all__ = [
    "Dfao",
    "Dfa",
    "evaluate_range",
    "genealogical_words",
    "product",
    "union",
    "minimize",
    "word_counts",
    "letter_dtype",
]

LSD_FIRST = "lsd"
MSD_FIRST = "msd"


class Dfao:
    """Deterministic finite automaton with an output letter on each state.

    table[s, j] is the successor of state s on alphabet[j]: one read-only
    int64 array, validated once here, that every operation works on.
    """

    __slots__ = ("labels", "initial", "alphabet", "table", "outputs", "read_order")

    def __init__(self, labels, initial, alphabet, table, outputs, read_order):
        labels = tuple(labels)
        alphabet = tuple(alphabet)
        n = len(labels)
        if not 0 <= initial < n:
            raise ValueError("initial state out of range")
        if read_order not in (LSD_FIRST, MSD_FIRST):
            raise ValueError(f"read_order must be {LSD_FIRST!r} or {MSD_FIRST!r}")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        table = np.array(table, dtype=np.int64)
        if table.shape != (n, len(alphabet)):
            raise ValueError(f"transition table of shape {table.shape}, expected {(n, len(alphabet))}")
        if table.size and not (table.min() >= 0 and table.max() < n):
            raise ValueError("transition target out of range")
        outputs = tuple(outputs)
        if len(outputs) != n:
            raise ValueError("one output letter per state required")
        table.setflags(write=False)
        self.labels = labels
        self.initial = initial
        self.alphabet = alphabet
        self.table = table
        self.outputs = outputs
        self.read_order = read_order

    @property
    def num_states(self):
        return len(self.labels)

    # -- serialization --------------------------------------------------

    def to_json(self):
        letters = sorted(range(len(self.alphabet)), key=lambda j: str(self.alphabet[j]))
        rows = self.table.tolist()
        return json.dumps(
            {
                "states": list(self.labels),
                "initial": self.initial,
                "alphabet": list(self.alphabet),
                "transitions": [[s, self.alphabet[j], row[j]] for s, row in enumerate(rows) for j in letters],
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
        for s, row in enumerate(self.table.tolist()):
            for c, t in zip(self.alphabet, row):
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
        order = breadth_first(self.initial, self.table.tolist())
        renumber = np.zeros(self.num_states, dtype=np.int64)
        renumber[order] = np.arange(len(order))
        return type(self)(
            [self.labels[old] for old in order],
            0,
            self.alphabet,
            renumber[self.table[order]],
            [self.outputs[old] for old in order],
            self.read_order,
        )

    def same_up_to_renaming(self, other):
        """True when the automata differ only by state names/numbering."""
        if (self.alphabet, self.read_order) != (other.alphabet, other.read_order):
            return False
        a, b = self.canonical(), other.canonical()
        return a.outputs == b.outputs and np.array_equal(a.table, b.table)


class Dfa(Dfao):
    """Acceptor: outputs are booleans (True on accepting states)."""

    def __init__(self, labels, initial, alphabet, table, accepting, read_order):
        outputs = tuple(bool(x) for x in accepting)
        super().__init__(labels, initial, alphabet, table, outputs, read_order)


def breadth_first(start, successors):
    """The nodes reached from start in breadth-first order; successors[v] lists v's in order."""
    order = [start]
    seen = {start}
    for v in order:
        for w in successors[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def genealogical_words(language, count):
    """The first count words of a language in genealogical order, as an array.

    language is an MSD-first DFA; its words are taken length by length and,
    within a length, lexicographically by the alphabet order (the order of
    an abstract numeration system, so the n-th word represents n).  Returns
    the int64 base-k value of each word, where k is the alphabet size and a
    letter's digit is its index in the alphabet.  Raises ValueError when the
    language has fewer than count words or one longer than int64 values
    allow.
    """
    return _enumerate(language, np.array(language.outputs, dtype=bool), count)


def _enumerate(m, accepting, count, letters=None):
    """The first count words of the MSD-first automaton m that end in an
    accepting state, in genealogical order, as an array.

    Returns each word's base-k value as int64, or with letters (an array,
    one per state) the letter at the state each word ends in, in letters'
    dtype.  States are held in the smallest unsigned dtype of the table, and
    a length keeps no more words than count still asks.
    """
    if m.read_order != MSD_FIRST:
        raise ValueError("genealogical enumeration reads words MSD-first")
    k = len(m.alphabet)
    table = m.table.astype(np.min_scalar_type(m.num_states - 1))
    live = _coaccessible(table, accepting)
    # per state, its accepted and its live one-letter extensions
    accepted_next, live_next = accepting[table].sum(axis=1), live[table].sum(axis=1)
    states = np.array([m.initial], dtype=table.dtype)
    values = np.zeros(1, dtype=np.int64) if letters is None else None
    out = np.empty(count, dtype=np.int64 if letters is None else letters.dtype)
    found = length = 0
    while True:
        acc = _gather(accepting, states)
        hits = out[found : min(found + int(np.count_nonzero(acc)), count)]
        if letters is None:
            hits[:] = values[acc][: len(hits)]
        else:
            _gather(letters, states[acc][: len(hits)], hits)
        found += len(hits)
        if found == count:
            return out
        length += 1
        if k**length > 1 << 63:
            raise ValueError(f"words of length {length} overflow int64 values")
        # every live word extended by each letter, still in lexicographic order,
        # a slice of words at a time into arrays of the exact size.  At the last
        # length only the accepted extensions of the words that hold the
        # count - found still asked for: the rest would be cut from its hits.
        stop, size, last = _extension_size(accepted_next, live_next, states, count - found)
        if not size:
            raise ValueError(f"the language has only {found} words, fewer than {count}")
        wanted = accepting if last else live
        grown = np.empty(size, dtype=states.dtype)
        grown_values = np.empty(size, dtype=np.int64) if letters is None else None
        end = 0
        for lo in range(0, stop, _GATHER):
            hi = min(lo + _GATHER, stop)
            extended = _gather(table, states[lo:hi]).ravel()
            keep = _gather(wanted, extended)
            n = np.count_nonzero(keep)
            np.compress(keep, extended, out=grown[end : end + n])
            if letters is None:
                np.compress(keep, (values[lo:hi, None] * k + np.arange(k)).ravel(), out=grown_values[end : end + n])
            end += n
        states, values = grown, grown_values


def _extension_size(accepted_next, live_next, states, need):
    """(stop, size, last): whether the one-letter extensions of states hold need
    accepted words; if so, the fewest leading states that do and their accepted
    extensions, else all states and their live extensions."""
    accepted = live = 0
    for lo in range(0, len(states), _GATHER):
        part = states[lo : lo + _GATHER]
        counts = np.bincount(part, minlength=len(live_next))
        if accepted + counts @ accepted_next >= need:
            ends = np.cumsum(_gather(accepted_next, part)) + accepted
            stop = int(np.searchsorted(ends, need)) + 1
            return lo + stop, int(ends[stop - 1]), True
        accepted += int(counts @ accepted_next)
        live += int(counts @ live_next)
    return len(states), live, False


def _coaccessible(table, accepting):
    """Boolean mask of the states from which some accepting state is reachable."""
    live = accepting
    while True:
        grown = live | live[table].any(axis=1)
        if np.array_equal(grown, live):
            return live
        live = grown


def letter_dtype(letters):
    """np.int8 when every letter (an int) fits in one signed byte, else np.int64.

    An array of letters from an alphabet fixed before it is built takes this
    dtype from the alphabet, never from the letters a prefix happens to hold.
    """
    return np.int8 if all(-128 <= int(c) <= 127 for c in letters) else np.int64


def evaluate_range(m, count, language=None):
    """Outputs of m at indices 0..count-1, as an array of letter_dtype(m.outputs).

    Index n is represented by the n-th word of language in genealogical
    order (see genealogical_words).  With no language, n is written in base
    k = len(m.alphabet) over digits 0..k-1, without leading zeros, and fed
    in m's own read order (see _base_k_states).  No word values are
    computed.
    """
    outputs = np.array(m.outputs)
    if outputs.ndim != 1 or outputs.dtype.kind not in "biu":
        raise ValueError("vectorized evaluation needs integer outputs")
    outputs = outputs.astype(letter_dtype(m.outputs))
    if language is None:
        if m.alphabet != tuple(range(len(m.alphabet))):
            raise ValueError("base-k evaluation needs alphabet (0, ..., k-1)")
        return _gather(outputs, _base_k_states(m, count))
    # the words of language are the accepted words of the pair automaton
    pairs = product(language, m)
    accepting, letters = np.array(pairs.outputs, dtype=np.int64).T
    return _enumerate(pairs, accepting.astype(bool), count, letters.astype(outputs.dtype))


_GATHER = 1 << 16  # indices gathered per call of np.take


def _gather(source, index, out=None):
    """source[index] along the first axis, written into out (new by default).

    np.take, several times faster than fancy indexing on a 2-D table, runs
    on slices: it converts a narrow index to intp first, and a slice at a
    time that copy stays small.  The indices are valid, so mode "clip" only
    spares take a buffered copy of out.
    """
    if out is None:
        out = np.empty(index.shape + source.shape[1:], dtype=source.dtype)
    for lo in range(0, len(index), _GATHER):
        np.take(source, index[lo : lo + _GATHER], axis=0, out=out[lo : lo + _GATHER], mode="clip")
    return out


def _base_k_states(m, count):
    """m's state after reading n in base k, for n < count, each from a parent state.

    MSD-first, n's digits are those of n // k followed by n % k, and 0 is
    the empty word: state(n) = table[state(n // k), n % k].  LSD-first, the
    parents are the level of all L-digit strings v < k^L, leading zeros
    included; a new leading digit d, read last, gives n = d * k^L + v, a
    word without leading zero exactly when d > 0.  No level is longer than
    count.
    """
    k = len(m.alphabet)
    table = m.table.astype(np.min_scalar_type(m.num_states - 1))
    states = np.empty(count, dtype=table.dtype)
    states[:1] = m.initial
    if m.read_order == MSD_FIRST:
        states[1:k] = table[m.initial, 1:count]
        lo = 1  # the children of parents [lo, hi) are n in [lo * k, hi * k)
        while lo * k < count:
            hi = min(lo * k, -(-count // k))
            states[lo * k : hi * k] = _gather(table, states[lo:hi]).ravel()[: count - lo * k]
            lo = hi
        return states
    level, width = states[:1], 1
    while width < count:
        n = min(width * k, count)
        grown = np.empty(n, dtype=table.dtype)
        for d, lo in enumerate(range(0, n, width)):
            _gather(table[:, d], level[: n - lo], grown[lo : lo + width])
        states[width:n] = grown[width:]
        level, width = grown, width * k
    return states


def product(a, b):
    """Reachable product automaton; outputs are (output_a, output_b) pairs."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch in product")
    if a.read_order != b.read_order:
        raise ValueError("read-order mismatch in product")
    # state (sa, sb) is numbered sa * |b| + sb
    pairs = [(sa, sb) for sa in range(a.num_states) for sb in range(b.num_states)]
    labels = [f"({a.labels[sa]},{b.labels[sb]})" for sa, sb in pairs]
    outputs = [(a.outputs[sa], b.outputs[sb]) for sa, sb in pairs]
    start = a.initial * b.num_states + b.initial
    table = (a.table[:, None, :] * b.num_states + b.table[None, :, :]).reshape(-1, len(a.alphabet))
    return Dfao(labels, start, a.alphabet, table, outputs, a.read_order).canonical()


def union(a, b):
    """DFA accepting the union of two languages over the same alphabet."""
    prod = product(a, b)
    accepting = [bool(x) or bool(y) for x, y in prod.outputs]
    return Dfa(prod.labels, prod.initial, prod.alphabet, prod.table, accepting, prod.read_order)


def minimize(m):
    """Moore minimization: merge states with equal behaviour.

    Partition refinement seeded by output letters; unreachable states are
    dropped first, each block keeps the label of its first state, and the
    result is renumbered canonically (BFS order), so minimizing two
    behaviour-equal automata yields identical tables.
    """
    m = m.canonical()
    seeds = {}
    block = np.array([seeds.setdefault(o, len(seeds)) for o in m.outputs], dtype=np.int64)
    count = len(seeds)
    while True:
        # a state's new block is its old block and the old blocks of its successors
        _, first, inverse = np.unique(
            np.column_stack([block, block[m.table]]), axis=0, return_index=True, return_inverse=True
        )
        block = inverse.reshape(-1)  # its shape differs between numpy versions
        if len(first) == count:
            break
        count = len(first)
    return type(m)(
        [m.labels[s] for s in first],
        int(block[m.initial]),
        m.alphabet,
        block[m.table[first]],
        [m.outputs[s] for s in first],
        m.read_order,
    ).canonical()


def word_counts(dfa, max_length):
    """The numbers of words of length n = 0..max_length that dfa accepts.

    One backward pass over the transition table in exact big integers: row n
    counts the words of length n accepted from each state s, a letter c then
    a word of length n-1 from step(s, c), and yields its entry at
    dfa.initial.  A negative length is refused at the call.
    """
    if max_length < 0:
        raise ValueError(f"word length {max_length} is negative")
    accepting = np.array([int(bool(o)) for o in dfa.outputs], dtype=object)
    rows = itertools.accumulate(range(max_length), lambda row, _: row[dfa.table].sum(axis=1), initial=accepting)
    return (row[dfa.initial] for row in rows)
