"""Word-level constructions: the canonical unary triple, the binary
encodings, the certified existential searches, the reversal-side
separator machine, and the end-to-end witness pipeline.

Each search returns the word that its own solver call vetted, with no
second call: search_C_n the word that separating_structure found no
separator for at 2n + 1 states, search_z_k the word that
lsep_lower_check accepted.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from typing import Iterator, Optional

from .dfa import (
    BudgetError,
    Dfa,
    _FrozenValue,
    _Value,
    _shortest_word,
    _zero_walk,
    accepts,
    dfa_to_text,
    run,
    word_symbols,
)
from .lang import (
    _reversed_G_k,
    _reversed_H_k,
    _reversed_words,
    build_H_k,
    is_zero_free,
    segmented_closure,
)
from .solver import (
    DEFAULT_BUDGET,
    SearchBudget,
    SearchCounters,
    Table,
    check_separates,
    lsep_lower_check,
    no_separator_up_to,
    run_table,
    separating_structure,
)

MAX_TRIPLE_N = 4

# Largest state count exhausted for the witness pair: verify_witness's
# lower check (no_separator_up_to), and search_z_k's vetting of z_k for
# k >= 3 (lsep_lower_check).  3 is comfortable at any word length.
EXHAUSTIVE_STATE_CAP = 3

# Longest G_k word search_z_k tries as a hard-word candidate.
Z_K_MAX_LEN = 40


class CanonicalTriple(_FrozenValue):
    """The unary words 0^n, 0^{n+(2n+1)!} and 0^{(2n+1)!}."""

    __slots__ = ("n", "f", "g", "h")

    def __init__(self, n: int, f: str, g: str, h: str):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)


def canonical_triple(n: int) -> CanonicalTriple:
    if not 1 <= n <= MAX_TRIPLE_N:
        raise ValueError(f"n must be in 1..{MAX_TRIPLE_N}; (2n+1)! grows fast")
    m = math.factorial(2 * n + 1)
    return CanonicalTriple(n=n, f="0" * n, g="0" * (n + m), h="0" * m)


_ENCODINGS = {
    "left": {"0": "0", "1": "11", "2": "01"},
    "right": {"0": "0", "1": "11", "2": "10"},
}


def encode(w: str, side: str) -> str:
    """Homomorphic binary encoding: 1 -> 11 and 2 -> 01 (left) or 10 (right)."""
    try:
        table = _ENCODINGS[side]
    except KeyError:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    try:
        return "".join(table[c] for c in w)
    except KeyError:
        raise ValueError(f"encode expects a word over {{0,1,2}}, got {w!r}")


class CnResult(_FrozenValue):
    """A certified pick for the blueberry word of a base block."""

    __slots__ = ("n", "w0", "word", "lower_checked", "candidates",
                 "exhaustive_searches", "nodes")

    def __init__(
        self,
        n: int,
        w0: str,
        word: str,
        lower_checked: int,  # states exhausted without finding a separator
        candidates: int,  # candidates examined, the returned word included
        exhaustive_searches: int,  # candidates that needed a full search
        nodes: int,  # search nodes spent over the whole call
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "lower_checked", lower_checked)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "exhaustive_searches", exhaustive_searches)
        object.__setattr__(self, "nodes", nodes)


def _cn_candidates(
    w0: str, max_run: int, forbid_run: Optional[int], max_len: int
) -> Iterator[tuple[int, ...]]:
    """Words w0 (0^a w0)* in length order, run lengths capped and filtered,
    each as the lengths of its 0-runs in order (`_cn_word` spells it)."""
    allowed = [r for r in range(1, max_run + 1) if r != forbid_run]
    base = len(w0)
    sums = [1]  # bit s of sums[j] is set iff s is a sum of j allowed terms
    for total in range(base, max_len + 1):
        blocks_max = (total + 1) // (base + 1) + 1
        for m in range(1, blocks_max + 1):
            rest = total - m * base
            if m == 1:
                if rest == 0:
                    yield ()
                continue
            while len(sums) < m:
                mask = 0
                for r in allowed:
                    mask |= sums[-1] << r
                sums.append(mask)
            if rest > 0 and sums[m - 1] >> rest & 1:
                yield from _compositions(rest, m - 1, allowed, sums)


def _cn_word(w0: str, runs: tuple[int, ...]) -> str:
    """The candidate word of a run tuple of _cn_candidates."""
    return w0 + "".join("0" * r + w0 for r in runs)


def _compositions(total: int, parts: int, allowed: list[int],
                  sums: list[int]) -> Iterator[tuple[int, ...]]:
    """Ordered sums of `parts` terms from the ascending list `allowed`, in
    lexicographic order.  Bit s of sums[j] is set iff s is a sum of j
    terms, for j < parts, and total is a sum of `parts` terms.

    Iterative: each term takes the least value that leaves a sum the
    later terms can make, the last two terms run in one loop, and a dead
    end backs up to the nearest term that can still grow.  So every
    descent yields, and no tuple is built but the ones yielded.
    """
    if parts == 1:
        yield (total,)
        return
    runs = [0] * parts
    left = [total] * parts  # left[i]: the sum of terms i and later
    pick = [0] * parts  # pick[i]: the index of term i in allowed
    last_two, pairs, count = parts - 2, sums[1], len(allowed)
    i = k = 0
    while True:
        r = left[i]
        if i == last_two:
            for a in allowed:
                if a >= r:
                    break
                if pairs >> (r - a) & 1:
                    runs[i], runs[-1] = a, r - a
                    yield tuple(runs)
        else:
            later = sums[parts - i - 1]
            while k < count:
                a = allowed[k]
                if a >= r:
                    k = count
                elif later >> (r - a) & 1:
                    break
                else:
                    k += 1
            if k < count:
                runs[i], pick[i], left[i + 1] = a, k, r - a
                i, k = i + 1, 0
                continue
        i -= 1
        if i < 0:
            return
        k = pick[i] + 1


def _zero_power(table: Table, count: int) -> list[int]:
    """The state 0^count leads each state of the table to, by its 0-tail
    and 0-cycle: O(p) per state, whatever count is."""
    out = []
    for q in range(len(table)):
        path, tail = _zero_walk(table, q)
        out.append(path[count] if count < len(path)
                   else path[tail + (count - tail) % (len(path) - tail)])
    return out


# Most states the refuter pool of search_C_n holds: its maps are
# bytes.translate tables, which name a state by one byte.
_POOL_STATES = 256
_IDENTITY = bytes(range(256))


class _RefuterPool:
    """The tables of search_C_n's refuted candidates, run as one automaton,
    their disjoint union, from every one of its states at once.

    Each map sends every union state to the state a word leads it to, as a
    bytes.translate table: blocks[r] for the block 0^r w0 (blocks[0] for
    w0 itself), f for 0^n and g for 0^{n+(2n+1)!}.  States past the union
    map to themselves.  A table that would take the union past
    _POOL_STATES states is left out.
    """

    __slots__ = ("states", "blocks", "f", "g", "_w0", "_f_len", "_g_len")

    def __init__(self, w0: list[int], max_run: int, f_len: int, g_len: int):
        self.states = 0
        self.blocks = [bytearray(_IDENTITY) for _ in range(max_run + 1)]
        self.f, self.g = bytearray(_IDENTITY), bytearray(_IDENTITY)
        self._w0, self._f_len, self._g_len = w0, f_len, g_len

    def add(self, table: Table) -> None:
        """Pool the table if it fits; its state q is union state o + q."""
        o, p = self.states, len(table)
        if o + p > _POOL_STATES:
            return
        ends = [run_table(table, self._w0, q) for q in range(p)]
        zeros = list(range(p))  # the state 0^r leads each state to
        for block in self.blocks:
            block[o:o + p] = bytes(o + ends[q] for q in zeros)
            zeros = [table[q][0] for q in zeros]
        self.f[o:o + p] = bytes(o + q for q in _zero_power(table, self._f_len))
        self.g[o:o + p] = bytes(o + q for q in _zero_power(table, self._g_len))
        self.states = o + p

    def refutes(self, runs: tuple[int, ...]) -> bool:
        """Does some pooled table, from some state, send C 0^n C and
        C 0^{n+(2n+1)!} C to different end states, for C = _cn_word(w0, runs)?

        The map of C composes the maps of its blocks, and the end vectors
        of the two words are those of C, then f or g, then C again.
        """
        blocks = self.blocks
        c = blocks[0]
        for r in runs:
            c = c.translate(blocks[r])
        return c.translate(self.f).translate(c) != c.translate(self.g).translate(c)


def search_C_n(
    n: int,
    w0: str,
    budget: SearchBudget = DEFAULT_BUDGET,
    forbid_run_length: Optional[int] = None,
) -> CnResult:
    """Shortest certified w in w0 (0^+ w0)* with sep(w f_n w, w g_n w) >= 2n+2.

    Certification is the exhaustive no-separator check at 2n+1 states;
    internal 0-runs are capped at 2n+2 and candidates at length
    12|w0| + 24 (completeness caps on the search, not on the underlying
    statement).  forbid_run_length additionally excludes one run length;
    the witness assembly uses it to keep runs of length n out of the word.

    Candidates are tried in length order, and each one that a search
    refutes leaves its separating transition table in a refuter pool
    (`_RefuterPool`).  A later candidate C is first run through the pool,
    every pooled table from every one of its states at once: table T
    started at state s is a DFA with at most 2n+1 states, so if it sends
    C f_n C and C g_n C to different end states (accept the end state of
    the first word), C is refuted with no search.  A candidate is its
    tuple of run lengths, and its word is spelled only for a search.  The
    pool only ever refutes: the word returned has passed a full
    exhaustive search, and the candidate order is unchanged, so the
    result is the same word a search of every candidate would return.
    One budget (one node pool, one deadline) covers the whole call; the
    deadline is checked once per candidate as well as inside each search.
    """
    if not w0:
        raise ValueError("w0 must be nonempty")
    if "0" in w0:
        raise ValueError("base block must be 0-free so the closure is well formed")
    trip = canonical_triple(n)
    max_len = 12 * len(w0) + 24
    p = 2 * n + 1
    counters = SearchCounters(budget)
    # symbol ids do not depend on the alphabet size, so one conversion
    # serves tables over two or three symbols alike
    pool = _RefuterPool(word_symbols(w0, 3), 2 * n + 2, len(trip.f), len(trip.g))
    candidates = searches = 0
    for runs in _cn_candidates(w0, 2 * n + 2, forbid_run_length, max_len):
        counters.check_deadline()
        candidates += 1
        if pool.refutes(runs):
            continue
        cand = _cn_word(w0, runs)
        searches += 1
        table = separating_structure(cand + trip.f + cand, cand + trip.g + cand, p,
                                     counters=counters)
        if table is None:
            return CnResult(
                n=n, w0=w0, word=cand, lower_checked=p, candidates=candidates,
                exhaustive_searches=searches, nodes=counters.nodes,
            )
        pool.add(table)
    raise BudgetError(
        f"no certified word up to length {max_len} for n={n}, w0={w0!r}"
    )


class ZkResult(_FrozenValue):
    """A hard-to-accept word of the starred language."""

    __slots__ = ("k", "word", "certified", "checked_states")

    def __init__(self, k: int, word: str, certified: bool,
                 checked_states: int):  # lsep lower bound verified through this many states
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "checked_states", checked_states)


def search_z_k(k: int, budget: SearchBudget = DEFAULT_BUDGET) -> ZkResult:
    """Shortest z in G_k - {eps} with no (2^k - 1)-state acceptor avoiding H_k.

    Fully certified for k <= 2, where 2^k - 1 states are exhaustible.  For
    larger k the exhaustive bound is out of reach; the candidate is vetted
    at the exhaustible cap and flagged uncertified.  One budget (one node
    pool, one deadline) covers every candidate's check.

    G_k and H_k are read only through their small reversed sources: the
    words of _reversed_G_k(k), reversed and sorted one length at a time,
    are G_k's in shortlex order, and each is vetted against the reversed
    H_k, _reversed_H_k(k).  Neither language's 2^(k+2) - 1 states are
    built; only the 6k + 1 states of build_L_k(k), inside _reversed_G_k,
    meet DEFAULT_DETERMINIZE_BUDGET, from k = 33 334 on.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    certified = k <= 2  # 2^k - 1 <= EXHAUSTIVE_STATE_CAP, without building 2^k
    p = 2**k - 1 if certified else EXHAUSTIVE_STATE_CAP
    h = _reversed_H_k(k)
    counters = SearchCounters(budget)
    for z in _reversed_words(_reversed_G_k(k), Z_K_MAX_LEN):
        if not z:
            continue
        counters.check_deadline()
        if lsep_lower_check(z, h, p, counters=counters):
            return ZkResult(k=k, word=z, certified=certified, checked_states=p)
    raise BudgetError(f"no candidate up to length {Z_K_MAX_LEN} for k={k}")


def state_limit_for_pairs(k: int) -> int:
    """The per-automaton state cap 2^{k/2} - 1 from the small-pair lemmas,
    rounded down: integer arithmetic, exact at every k."""
    return math.isqrt(2**k) - 1


@lru_cache(maxsize=None)
def _h_closure(k: int) -> Dfa:
    """The segmented closure H_k (0^+ H_k)* that free_word searches.

    Keyed on k, not on a Dfa, so a hit hashes no automaton.
    """
    return segmented_closure(build_H_k(k))


def free_word(
    k: int,
    d: Dfa,
    d2: Dfa,
    w: str,
    z_k: str,
) -> str:
    """A word of H_k (0^+ H_k)* that neither d nor d2 distinguishes from w.

    dfa._shortest_word over (d-state, d2-state, closure-state) triples of
    d, d2 and the closure of H_k, built as they are reached.  It stops at
    the first triple that pairs the end states of d and d2 on w with an
    accepting closure state, so it returns the shortest such word, first
    in symbol order: the word an emptiness search over the full product
    automaton would return.

    w must lie in the closure of H_k + {z_k}, for z_k a nonempty {1,2}
    word.  Every block of that closure is 0-free and nonempty, so w does
    exactly when each part of w split at its 0-runs is z_k or a word of
    H_k; no automaton of the union is built.
    """
    limit = state_limit_for_pairs(k)
    if d.state_count > limit or d2.state_count > limit:
        raise ValueError(
            f"automata must have at most {limit} states for k={k} "
            f"(got {d.state_count} and {d2.state_count})"
        )
    if d.alphabet_size != 3 or d2.alphabet_size != 3:
        raise ValueError("free_word expects full-alphabet automata")
    h = build_H_k(k)
    if not all(part == z_k or accepts(h, part) for part in re.split("0+", w)):
        raise ValueError("w is not in the closure of H'_k")
    closure = _h_closure(k)
    rows, rows2, crows = d.transitions, d2.transitions, closure.transitions
    end, end2, accepting = run(d, 0, w), run(d2, 0, w), closure.accepting
    word = _shortest_word(
        (0, 0, 0), lambda t: zip(rows[t[0]], rows2[t[1]], crows[t[2]]),
        lambda t: t[0] == end and t[1] == end2 and t[2] in accepting)
    if word is None:
        # the small-pair lemma rules this out when the preconditions hold
        raise ValueError(
            "no indistinguishable closure word exists; a precondition is violated"
        )
    return word


def farmand_dfa(r: Dfa, n: int) -> Dfa:
    """Binary separator for encoded words around the unary middle block.

    The machine decodes right-encoded symbols in (1-prefixed) pairs and
    simulates r's automaton on them.  A 0 read at a pair boundary ends the
    current segment: if the segment is in R the machine counts the 0-run
    and, on the next 1, accepts exactly when the count is n; otherwise it
    skips the run and restarts r.  A wrong count also rejoins decoding at
    r's start, so R segments may occur before the middle block too.  The
    empty segment never counts as an R block, which is what the R - {eps}
    precondition requires.  For r of t states the machine has
    2t + n + 3 states.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_zero_free(r):
        raise ValueError("R must be a {1,2}-language")
    t = r.state_count
    SKIP = 0
    MID = lambda q: 1 + q
    COMP = lambda q: 1 + t + q
    CNT = lambda c: 1 + 2 * t + (c - 1)  # c in 1..n
    OVF = 1 + 2 * t + n
    ACC = 2 + 2 * t + n
    rows = [[0, 0] for _ in range(ACC + 1)]
    rows[SKIP] = [SKIP, MID(0)]
    for q in range(t):
        rows[MID(q)] = [COMP(r.transitions[q][2]), COMP(r.transitions[q][1])]
        rows[COMP(q)] = [CNT(1) if q in r.accepting else SKIP, MID(q)]
    for c in range(1, n + 1):
        rows[CNT(c)] = [CNT(c + 1) if c < n else OVF, ACC if c == n else MID(0)]
    rows[OVF] = [OVF, MID(0)]
    rows[ACC] = [ACC, ACC]
    return Dfa(2, tuple(tuple(row) for row in rows), frozenset({ACC}))


class WitnessReport(_Value):
    """A (k, n) witness pair with its claimed and certified bounds.

    A new report has verified nothing: lower_verified_to 0, no
    upper_witness, and both statuses "pending" until verify_witness fills
    them in.
    """

    __slots__ = ("k", "n", "w_prime", "x_prime", "lower_claim", "upper_claim",
                 "z_word", "c_word", "z_certified", "lower_verified_to",
                 "upper_witness", "statuses")

    def __init__(
        self,
        k: int,
        n: int,
        w_prime: str,
        x_prime: str,
        lower_claim: int,
        upper_claim: int,
        z_word: str,
        c_word: str,
        z_certified: bool,
    ):
        self.k = k
        self.n = n
        self.w_prime = w_prime
        self.x_prime = x_prime
        self.lower_claim = lower_claim
        self.upper_claim = upper_claim
        self.z_word = z_word
        self.c_word = c_word
        self.z_certified = z_certified
        self.lower_verified_to = 0
        self.upper_witness = None
        self.statuses = {"lower": "pending", "upper": "pending"}

    def to_json(self) -> str:
        obj = self.as_dict()
        if self.upper_witness is not None:
            obj["upper_witness"] = dfa_to_text(self.upper_witness)
        return json.dumps(obj, sort_keys=True)


def lower_claim_value(k: int, n: int) -> int:
    """min(2n + 2, 2^{k/2} rounded up), in integer arithmetic: exact at every k."""
    return min(2 * n + 2, 1 + math.isqrt(2**k - 1))


def upper_claim_value(k: int, n: int) -> int:
    return n + 10 * k + 10


def witness_pair(k: int, n: int, budget: SearchBudget = DEFAULT_BUDGET) -> WitnessReport:
    """Assemble the binary witness pair for the (k, n) instance.

    Over the full alphabet, w = C f_n C and x = C g_n C for C the certified
    blueberry word of z_k; both are then left-encoded.  Runs of length
    exactly n are kept out of C so the reversal-side machine can recognize
    the middle block.
    """
    trip = canonical_triple(n)
    z = search_z_k(k, budget=budget)
    c = search_C_n(n, z.word, budget=budget, forbid_run_length=n)
    w = c.word + trip.f + c.word
    x = c.word + trip.g + c.word
    w_prime, x_prime = encode(w, "left"), encode(x, "left")
    if w_prime == x_prime:
        raise AssertionError("assembly produced equal encoded words")
    return WitnessReport(
        k=k,
        n=n,
        w_prime=w_prime,
        x_prime=x_prime,
        lower_claim=lower_claim_value(k, n),
        upper_claim=upper_claim_value(k, n),
        z_word=z.word,
        c_word=c.word,
        z_certified=z.certified,
    )


def verify_witness(
    report: WitnessReport,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> WitnessReport:
    """Fill in both bound checks on a witness report.

    Lower side: exhaustive no-separator search at the largest feasible
    state count.  Upper side: the decoder machine (farmand_dfa, 2t + n + 3
    states) over R = _reversed_G_k(k), the t-state reversal of the starred
    language, run on the reversed pair; the machine accepts the reversed
    short-block word and rejects the reversed long-block word.
    """
    wp, xp = report.w_prime, report.x_prime
    p = min(EXHAUSTIVE_STATE_CAP, budget.max_states)
    if no_separator_up_to(wp, xp, p, budget=budget):
        report.lower_verified_to = p + 1
        report.statuses["lower"] = (
            "certified" if report.lower_verified_to >= report.lower_claim
            else "budget-bounded"
        )
    else:
        report.statuses["lower"] = "failed"
        report.lower_verified_to = 0

    machine = farmand_dfa(_reversed_G_k(report.k), report.n)
    wr, xr = wp[::-1], xp[::-1]
    if machine.state_count <= report.upper_claim and check_separates(machine, wr, xr):
        report.upper_witness = machine
        report.statuses["upper"] = "certified"
    else:
        report.statuses["upper"] = "failed"
    return report
