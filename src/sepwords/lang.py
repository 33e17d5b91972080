"""Builders for the block languages and their closures.

One builder per block language: build_L_k (the generator set, from its
block rule), build_G_k (its star) and build_H_k (the complement of the
star within {1,2}*); finite_language builds any finite word set.

G_k and H_k have one source each, the small minimal DFA of their
reversal: _reversed_G_k and _reversed_H_k, 5k + 2 and 5k + 3 states,
where G_k has 2^(k+2) - 1.  build_G_k and build_H_k reverse the source in
full; the hard-word search reads the sources themselves, G_k's words
through _reversed_words and H_k as the reversed language that
solver.lsep_lower_check takes.

The family lives over {1,2} but every automaton is carried over the full
alphabet {0,1,2}: symbol 0 leads straight to the dead state, so products
and concatenations with 0-runs never need an alphabet conversion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import Iterator

from .dfa import (
    Dfa,
    _explore,
    _reachable,
    canonicalize,
    determinize,
    minimize,
    reverse,
)

ALPHABET = 3


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


def build_L_k(k: int) -> Dfa:
    """Minimal DFA of the generator set L_k, built from its block rule.

    A word of L_k is a sequence of blocks 1^i 2: either one even block
    with 2 <= i <= 2k, or blocks whose lengths sum to 2k+1, each but the
    last even (so at least 2).  A state is t, the 1s read so far, and one
    of: inside a block, flagged while it is the first block; between
    blocks, with the count of ended blocks capped at 2 (exactly one ended
    block accepts: it was even and at most 2k); after the last block,
    accepting; dead.  Every ended block is even, so the current block's
    parity is t's.  Inside a block, t = 2k+1 leaves the residual {2}
    whether or not the block is the first, so those two share a state; the
    6k+1 states left are pairwise inequivalent, and dfa._explore numbers
    them in canonical order: the result equals finite_language of the
    word list of L_k.  Past dfa.DEFAULT_DETERMINIZE_BUDGET states, from
    k = 33 334 on, _explore raises BudgetError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    top = 2 * k + 1
    dead, end = ("dead", 0, 0), ("end", top, 0)

    def moves(state):  # its targets on 0, 1 and 2
        kind, t, flag = state
        if kind == "gap":  # flag: the blocks ended so far, capped at 2
            return dead, ("run", t + 1, flag == 0), dead
        if kind != "run":
            return dead, dead, dead
        # flag: no block has ended yet
        one = ("run", t + 1, flag and t + 1 < top) if t < top else dead
        if t == top:
            two = end
        elif t % 2 == 0:
            two = ("gap", t, 1 if flag else 2)
        else:
            two = dead
        return dead, one, two

    order, rows = _explore(("gap", 0, 0), moves, "L_k construction exceeded {} states")
    acc = frozenset(i for i, (kind, _, flag) in enumerate(order)
                    if kind == "end" or (kind == "gap" and flag == 1))
    return Dfa(ALPHABET, rows, acc)


@lru_cache(maxsize=None)
def _reversed_G_k(k: int) -> Dfa:
    """Minimal DFA of the reversal of G_k, that is of (L_k^R)*, built with
    no minimize() pass.

    The star of the reversed generator DFA D = reverse(build_L_k(k)) by
    subset construction: accepting states of D also take the moves of D's
    start, and D's dead state is left out of the subsets.  The construction
    starts at {end}, where end is D's one accepting state whose moves all
    go to the dead state: in the star {end} moves as D's start does and
    accepts, so both have the residual (L_k^R)*, and D's start has no
    incoming move (a move into the start of the minimal DFA of a nonempty
    finite language would close a cycle through a live state), so no
    subset holds it.  The subsets left are pairwise inequivalent, 52 at
    k = 10, and numbered in canonical order: the result equals its own
    minimize() and reverse(build_G_k(k)), as tests/test_lang.py checks.
    """
    d = reverse(build_L_k(k))
    dead = next(q for q, row in enumerate(d.transitions)
                if q not in d.accepting and all(t == q for t in row))
    end = next(q for q in d.accepting if all(t == dead for t in d.transitions[q]))
    table = [[{t} - {dead} for t in row] for row in d.transitions]
    for q in d.accepting:
        for s in range(ALPHABET):
            table[q][s] |= table[0][s]
    return determinize(table, {end}, d.accepting, ALPHABET)


@lru_cache(maxsize=None)
def build_G_k(k: int) -> Dfa:
    """Kleene star of the level-k generator set, as a minimal DFA.

    The reversal of the small minimal DFA of G_k^R (_reversed_G_k).  By
    Brzozowski's theorem reverse() returns the minimal DFA in canonical
    order, so no minimize() follows; its subset count is the size of G_k,
    2^(k+2) - 1 states, and exceeding dfa.DEFAULT_DETERMINIZE_BUDGET
    raises BudgetError (k = 15 builds, k = 16 does not).  Memoized per process,
    like build_H_k: a Dfa is immutable.
    """
    return reverse(_reversed_G_k(k))


def _reversed_H_k(k: int) -> Dfa:
    """DFA of the reversal of H_k: the complement of _reversed_G_k(k)
    within {1,2}*, since reversal commutes with complement there.

    Its accepting set complemented and every 0-move sent to one new dead
    state, in canonical order.  It is minimal, one state more than
    _reversed_G_k(k): two old states are told apart only by 0-free words,
    on which the complement answers the opposite, and every old state
    accepts the word 22 (no word of G_k holds two 2s in a row), so none is
    equivalent to the new dead state.
    """
    d = _reversed_G_k(k)
    dead = d.state_count
    rows = tuple((dead, t1, t2) for _, t1, t2 in d.transitions) + ((dead,) * ALPHABET,)
    return canonicalize(Dfa(ALPHABET, rows, frozenset(range(dead)) - d.accepting))


@lru_cache(maxsize=None)
def build_H_k(k: int) -> Dfa:
    """The complement of the starred language within {1,2}*, as a minimal
    DFA: the reversal of _reversed_H_k(k), as build_G_k is of G_k's."""
    return reverse(_reversed_H_k(k))


def finite_language(words: list[str]) -> Dfa:
    """Minimal DFA of a finite set of {1,2}-words.

    The trie of the words, made complete by one dead state that takes
    every missing move (each 0-move among them), then minimize().
    """
    for w in words:
        if not set(w) <= {"1", "2"}:
            raise ValueError("finite_language expects {1,2}-only words")
    rows = [[-1] * ALPHABET]
    accepting = set()
    for w in words:
        cur = 0
        for c in w:
            s = ord(c) - 48
            if rows[cur][s] < 0:
                rows[cur][s] = len(rows)
                rows.append([-1] * ALPHABET)
            cur = rows[cur][s]
        accepting.add(cur)
    dead = len(rows)
    table = tuple(tuple(dead if t < 0 else t for t in row) for row in rows)
    return minimize(Dfa(ALPHABET, table + ((dead,) * ALPHABET,), frozenset(accepting)))


def segmented_closure(r: Dfa) -> Dfa:
    """The closure R (0^+ R)* of a 0-free language R.

    Built as an NFA over the R automaton plus one gap state: finishing an
    R block allows a 0-run, and the run hands control back to R's start.
    """
    if not is_zero_free(r):
        raise ValueError("segmented_closure requires a 0-free language")
    return _segclo_of_dfa(r)


def _segclo_of_dfa(d: Dfa) -> Dfa:
    """L (0^+ L)* for an arbitrary language; no 0-freeness demanded.

    segmented_closure restricts to 0-free inputs; invariants about the
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
    return minimize(determinize(table, {0}, acc, ALPHABET))


def state_complexity(l: Dfa) -> int:
    """States of the minimal complete DFA (dead state counted), by
    minimize(): for automata of unknown shape.  The builders here return
    minimal DFAs, whose size is their state_count."""
    return minimize(l).state_count


def iter_words(d: Dfa, max_len: int) -> Iterator[str]:
    """Accepted words in shortlex order, up to max_len.

    Frontier size is exponential in length for rich languages; callers
    cap max_len accordingly.
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


def _reversed_words(r: Dfa, max_len: int) -> Iterator[str]:
    """The words of the reversal of L(r) in shortlex order, up to max_len:
    r's words of each length, reversed and sorted."""
    for _, words in groupby(iter_words(r, max_len), len):
        yield from sorted(w[::-1] for w in words)


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
