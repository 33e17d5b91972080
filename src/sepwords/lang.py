"""Builders for the block languages and their closures.

The generator family here lives over {1,2} but every automaton is carried
over the full alphabet {0,1,2}: symbol 0 leads straight to the dead state,
so products and concatenations with 0-runs never need an alphabet
conversion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .dfa import (
    Dfa,
    _reachable,
    combine,
    complement,
    determinize,
    minimize,
)

ALPHABET = 3

# Default cap on subset states during determinization; the starred block
# languages blow up exponentially, which is the point.
DEFAULT_DETERMINIZE_BUDGET = 200_000


def universe_12() -> Dfa:
    """All words over {1,2}, embedded over the full alphabet."""
    return Dfa(ALPHABET, ((1, 0, 0), (1, 1, 1)), frozenset({0}))


def is_zero_free(d: Dfa) -> bool:
    """True when no accepted word contains symbol 0.

    Linear in the size of d: an accepted word contains a 0 exactly when
    some reachable state moves on 0 into a live state.  Raises ValueError
    unless d is over the full alphabet {0,1,2}.
    """
    if d.alphabet_size != ALPHABET:
        raise ValueError(f"is_zero_free needs a DFA over {ALPHABET} symbols, "
                         f"got {d.alphabet_size}")
    live = _live_states(d)
    return all(d.transitions[q][0] not in live for q in _reachable(d))


def words_of_L_k(k: int) -> list[str]:
    """The finite generator set for level k, in shortlex order.

    Two shapes: 1^{2i}2 for 1 <= i <= k, and block words
    1^{i_1}2...1^{i_s}2 whose exponents sum to 2k+1 with every exponent
    before the last even.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    words = {"1" * (2 * i) + "2" for i in range(1, k + 1)}

    def compositions(total: int, prefix: list[int]):
        # remaining parts: all but the last must be even
        if total >= 1:
            yield prefix + [total]
        for part in range(2, total, 2):
            yield from compositions(total - part, prefix + [part])

    for parts in compositions(2 * k + 1, []):
        words.add("".join("1" * p + "2" for p in parts))
    return sorted(words, key=lambda w: (len(w), w))


def _trie_nfa(words: list[str]) -> tuple[list[list[set[int]]], set[int]]:
    """Deterministic trie over {1,2} as an NFA table; returns (table, accepting)."""
    table: list[list[set[int]]] = [[set() for _ in range(ALPHABET)]]
    accepting: set[int] = set()
    for w in words:
        cur = 0
        for c in w:
            s = ord(c) - 48
            nxt = table[cur][s]
            if nxt:
                cur = next(iter(nxt))
            else:
                table.append([set() for _ in range(ALPHABET)])
                table[cur][s].add(len(table) - 1)
                cur = len(table) - 1
        accepting.add(cur)
    return table, accepting


def build_L_k(k: int) -> tuple[list[str], Dfa]:
    """The finite generator language: its words and its minimal DFA."""
    words = words_of_L_k(k)
    return words, finite_language(words)


@lru_cache(maxsize=None)
def build_G_k(k: int) -> Dfa:
    """Kleene star of the level-k generator set, as a minimal DFA.

    Star of the generator trie: accepting trie states inherit the root's
    outgoing moves, and the root accepts.  Exponential subset growth is
    expected; exceeding DEFAULT_DETERMINIZE_BUDGET raises BudgetError.
    Memoized per process, like build_H_k: a Dfa is immutable.
    """
    words = words_of_L_k(k)
    table, acc = _trie_nfa(words)
    for q in acc:
        for s in range(ALPHABET):
            table[q][s] |= table[0][s]
    return minimize(determinize(table, {0}, acc | {0}, ALPHABET,
                                max_states=DEFAULT_DETERMINIZE_BUDGET))


@lru_cache(maxsize=None)
def build_H_k(k: int) -> Dfa:
    """The complement of the starred language within {1,2}*."""
    return minimize(combine(complement(build_G_k(k)), universe_12(), "and"))


def finite_language(words: list[str]) -> Dfa:
    """Minimal DFA of a finite set of {1,2}-words (trie then minimize)."""
    for w in words:
        if "0" in w:
            raise ValueError("finite_language expects {1,2}-only words")
    table, acc = _trie_nfa(words)
    return minimize(determinize(table, {0}, acc, ALPHABET))


def segmented_closure(r: Dfa) -> Dfa:
    """The closure R (0^+ R)* of a 0-free language R.

    Built as an NFA over the R automaton plus one gap state: finishing an
    R block allows a 0-run, and the run hands control back to R's start.
    """
    if not is_zero_free(r):
        raise ValueError("segmented_closure requires a 0-free language")
    return segclo_of_dfa(r)


def segclo_of_dfa(d: Dfa) -> Dfa:
    """L (0^+ L)* for an arbitrary language; no 0-freeness demanded.

    The public operator restricts to 0-free inputs; invariants about the
    closure of an already-closed language need the unchecked form.
    """
    n = d.state_count
    gap = n
    table: list[list[set[int]]] = [
        [set() for _ in range(ALPHABET)] for _ in range(n + 1)
    ]
    for q in range(n):
        for s in range(ALPHABET):
            table[q][s].add(d.transitions[q][s])
        if q in d.accepting:
            table[q][0].add(gap)
    table[gap][0].add(gap)
    for s in (1, 2):
        table[gap][s].add(d.transitions[0][s])
    acc = set(d.accepting)
    if 0 in d.accepting:  # a trailing block may be empty when R accepts the empty word
        acc.add(gap)
    return minimize(determinize(table, {0}, acc, ALPHABET,
                                max_states=DEFAULT_DETERMINIZE_BUDGET))


def state_complexity(l: Dfa) -> int:
    """States of the minimal complete DFA (dead state counted)."""
    return minimize(l).state_count


def iter_words(d: Dfa, max_len: int) -> Iterator[str]:
    """Accepted words in shortlex order, up to max_len.

    Frontier size is exponential in length for rich languages; callers cap
    max_len accordingly.
    """
    live = _live_states(d)
    frontier: list[tuple[int, str]] = [(0, "")]
    if 0 in d.accepting:
        yield ""
    for _ in range(max_len):
        # prune states that can never accept again to keep frontiers sane
        frontier = [(t, w + chr(48 + s)) for q, w in frontier
                    for s, t in enumerate(d.transitions[q]) if t in live]
        for q, w in frontier:
            if q in d.accepting:
                yield w


def _live_states(d: Dfa) -> set[int]:
    """States from which some accepting state is reachable (backward search)."""
    preds: list[list[int]] = [[] for _ in range(d.state_count)]
    for q, row in enumerate(d.transitions):
        for t in row:
            preds[t].append(q)
    live = set(d.accepting)
    stack = list(live)
    while stack:
        for q in preds[stack.pop()]:
            if q not in live:
                live.add(q)
                stack.append(q)
    return live
