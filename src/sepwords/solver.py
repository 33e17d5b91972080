"""Exact computation and certification of separation numbers.

A DFA separates (w, x) when it accepts w and rejects x.  Minimal
separation size equals minimal distinguishing size (different end states),
so the solver searches transition structures only and fixes an accepting
set afterwards.  The search is iterative deepening over the state count,
from two states up (one state ends both words in it), with lazy
transition assignment: entries are created only as the runs of w and x
demand them, and branch targets are limited to already-used states
plus one fresh state (first-visit symmetry breaking).  The runs read the
prefix the words share once, then w's middle, then x's middle, which is
cut where it ends in w's state, and last the suffix they share.  Each
level first searches pairs cut from that shared prefix (`_search`): a
cut pair with no separator refutes the whole pair, and a separator of a
cut pair is returned, relabelled, when some state leads to its start by
the part cut off.  So a returned table is a separator at its level, but
not always the canonical first table of the whole pair.

lsep_lower_check and reached_by_language ask whether a word of a whole
language reaches a state.  They take the language as the DFA of its
reversal, the small form in which lang gives G_k and H_k, and search
backward from that state.  lsep_lower_check runs that search on partial
tables, in a lazy search of its own that branches only on the entries
that w's walk and the backward search meet, one node per partial table.
"""

from __future__ import annotations

import itertools
import json
import time
from functools import lru_cache
from typing import Container, Iterator, Optional

from .dfa import (
    BudgetError,
    Dfa,
    _FrozenValue,
    _Value,
    Table,
    accepts,
    dfa_from_text,
    dfa_to_text,
    word_symbols,
)
from .lang import is_zero_free

# Cache lines carry this.  No certificate is ever served from a cache, so
# a change of the search order needs no new version.
ENGINE_VERSION = "sepwords-1"


class SearchBudget(_FrozenValue):
    __slots__ = ("max_states", "max_nodes", "wall_limit")

    def __init__(self, max_states: int = 12, max_nodes: int = 50_000_000,
                 wall_limit: float = 600.0):  # seconds
        if max_states < 1 or max_nodes < 1 or not wall_limit > 0:  # nan too
            raise ValueError("all budget fields must be positive")
        object.__setattr__(self, "max_states", max_states)
        object.__setattr__(self, "max_nodes", max_nodes)
        object.__setattr__(self, "wall_limit", wall_limit)


DEFAULT_BUDGET = SearchBudget()


class SepCertificate(_Value):
    """Proven value or bounds for the separation number of a pair, and the
    search nodes spent on them.  It holds no wall time, so its JSON is a
    function of the pair and the budget."""

    __slots__ = ("w", "x", "lower", "upper", "witness", "lower_method", "nodes")

    def __init__(self, w: str, x: str, lower: int, upper: int,
                 witness: Optional[Dfa],
                 lower_method: str,  # exhaustive-canonical | unary-analytic
                 nodes: int):
        self.w = w
        self.x = x
        self.lower = lower
        self.upper = upper
        self.witness = witness
        self.lower_method = lower_method
        self.nodes = nodes

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("certificate is budget-bounded, no exact value")
        return self.lower

    def witness_checks(self) -> bool:
        """The one rule for a certificate's witness: it exists, has `upper`
        states, and accepts w while rejecting x (a linear re-check)."""
        return (self.witness is not None
                and self.witness.state_count == self.upper
                and check_separates(self.witness, self.w, self.x))

    def to_dict(self) -> dict:
        return {
            "w": self.w,
            "x": self.x,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness": dfa_to_text(self.witness) if self.witness else None,
            "lower_method": self.lower_method,
            "nodes": self.nodes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SepCertificate":
        """Decode a certificate; ValueError unless the text is a JSON object
        with every field, the bounds are ints (not bools) with
        1 <= lower <= upper, nodes is a non-negative int (not a bool), the
        words and lower_method are strings and the witness is null or DFA
        text.  The derived "exact" key, and the "millis" key of older
        files, are ignored."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a certificate must be a JSON object")
        try:
            cert = SepCertificate(
                w=obj["w"],
                x=obj["x"],
                lower=obj["lower"],
                upper=obj["upper"],
                witness=obj["witness"],
                lower_method=obj["lower_method"],
                nodes=obj.get("nodes", 0),
            )
        except KeyError as e:
            raise ValueError(f"a certificate needs the field {e}") from None
        if not (type(cert.lower) is int and type(cert.upper) is int
                and isinstance(cert.w, str) and isinstance(cert.x, str)
                and isinstance(cert.lower_method, str)
                and (cert.witness is None or isinstance(cert.witness, str))):
            raise ValueError("a certificate's bounds must be ints, its words and "
                             "lower_method strings and its witness null or text")
        if not 1 <= cert.lower <= cert.upper:
            raise ValueError("a certificate's bounds must satisfy 1 <= lower <= upper")
        if not (type(cert.nodes) is int and cert.nodes >= 0):
            raise ValueError("a certificate's nodes must be a non-negative int")
        cert.witness = dfa_from_text(cert.witness)[0] if cert.witness else None
        return cert


class SearchCounters:
    """One node pool and one deadline, shared by every search given it.

    nodes never passes max_nodes: the node that would pass it raises
    BudgetError, named in the message but not charged.
    """

    __slots__ = ("nodes", "deadline", "max_nodes")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.wall_limit

    def tick(self):
        if self.nodes >= self.max_nodes:
            raise BudgetError(f"node budget exhausted at {self.nodes + 1} nodes")
        self.nodes += 1
        if self.nodes % 4096 == 0:
            self.check_deadline()

    def check_deadline(self):
        if time.monotonic() > self.deadline:
            raise BudgetError("wall-clock budget exhausted")


def _alphabet_for(*words: str) -> int:
    return 3 if "2" in "".join(words) else 2


class _Jump(list):
    """A word position that stands for `count` more steps along `col`.

    Every entry is -2, the one entry below -1: the kernel reads a
    position's entry for the current state, and a walk stops on -2 as on
    an unassigned entry (-1).  The kernel tells the two apart by value;
    a jump is never assigned."""

    __slots__ = ("col", "count")

    def __init__(self, col: list[int], count: int, p: int):
        super().__init__([-2] * p)
        self.col = col
        self.count = count


def _word_columns(w: list[int], cols: list[list[int]], p: int) -> list[list[int]]:
    """The columns the kernel reads for w at p states: one per position,
    except that a run of one symbol longer than 8p keeps its first p
    positions and ends in one `_Jump` over the rest."""
    if len(w) <= 8 * p:  # no run to jump
        return [cols[a] for a in w]
    out: list[list[int]] = []
    for a, run in itertools.groupby(w):
        col = cols[a]
        m = len(list(run))
        if m > 8 * p:
            out += [col] * p
            out.append(_Jump(col, m - p, p))
        else:
            out += [col] * m
    return out


def _distinguishing_structure(
    w: list[int], x: list[int], p: int, k: int, counters: SearchCounters
) -> Optional[Table]:
    """A canonical p-state structure with different end states on w and x.

    Returns a complete transition table (unconstrained entries point at
    state 0) or None after exhausting all canonical partial structures.

    Depth-first over an explicit stack.  The partial table is one column
    per symbol, cols[a][q], with -1 for an unassigned entry.  The kernel
    walks five segments in this order, each read as its list of columns
    (`_word_columns`):

    0  the prefix the words share, from state 0 to a state `mid`;
    1  w's middle, from `mid` to a state `rejoin`;
    2  x's middle, from `mid`.  If it ends in `rejoin`, both words read
       the rest from one state, so every completion fails: backtrack;
    3  the suffix the words share, from `rejoin` to w's end state `endw`;
    4  the same suffix from x's state after its middle.

    The shared parts are used when both words are longer than 8 symbols
    and one of the parts is longer than one symbol.  Other pairs, such as
    the thousands of tiny searches of the lemma checks, would spend more
    on finding and slicing them than their few walks could save: they
    read w whole as segment 1 and x whole as segment 2, the rest empty.
    Each segment starts in a state that earlier segments fixed, so
    numbering the states by first visit in this order is canonical, and
    the search stays exhaustive.

    A node is one walk from (segment, pos, state) until it meets an
    unassigned entry, ends w's middle, or ends x (cut, or at the end of
    segment 4).  An unassigned entry branches over the used states plus
    one fresh state, and each frame on the stack is such an entry with
    its next target.  So a walk crosses the ends of segments 0, 2 and 3
    within its node, and starting x's middle counts as one more node.
    Frames keep no copy of `mid`, `rejoin`, `endw` or x's state: a walk
    resumed from a frame in segment s records again every state it needs
    from segment s on, and the states it does not re-record depend only
    on entries assigned before the frame.

    An entry below -1 is a `_Jump`, -2.  A run of one symbol a longer
    than 8p is read as its first p positions and one jump over the rest,
    so the cost of a node does not depend on run lengths.  By the jump
    the walk has made p steps along cols[a] through assigned entries and
    visited p + 1 states, so it is on a cycle of cols[a] whose entries
    are all assigned.  The jump measures the cycle's length c <= p and
    makes the remaining count mod c steps; it never branches.
    """
    cols = [[-1] * p for _ in range(k)]
    pre = suf = 0
    if len(w) > 8 and len(x) > 8:
        m = min(len(w), len(x))
        while pre < m and w[pre] == x[pre]:
            pre += 1
        while suf < m - pre and w[-1 - suf] == x[-1 - suf]:
            suf += 1
    if pre > 1 or suf > 1:
        parts = (w[:pre], w[pre:len(w) - suf], x[pre:len(x) - suf], w[len(w) - suf:])
        segs = [_word_columns(u, cols, p) for u in parts]
        segs.append(segs[3])
    else:
        segs = ((), _word_columns(w, cols, p), _word_columns(x, cols, p), (), ())
    stack: list[tuple] = []  # (col, state, next target, limit, segment, pos, used)
    nodes, max_nodes = counters.nodes, counters.max_nodes
    si, pos, state, used = 0, 0, 0, 1
    mid = rejoin = endw = xstate = 0
    try:
        while True:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetError(f"node budget exhausted at {nodes} nodes")
            if nodes % 4096 == 0:
                counters.check_deadline()
            while True:
                word = segs[si]
                n = len(word)
                while pos < n:
                    col = word[pos]
                    t = col[state]
                    if t >= 0:
                        state = t
                        pos += 1
                    elif t == -1:
                        break
                    else:  # a _Jump: find the cycle, then skip whole laps
                        jcol = col.col
                        q, c = jcol[state], 1
                        while q != state:
                            q = jcol[q]
                            c += 1
                        for _ in range(col.count % c):
                            state = jcol[state]
                        pos += 1
                if pos < n:
                    break
                if si == 2:
                    if state == rejoin:  # x's middle has rejoined w's path
                        break
                    xstate, state = state, rejoin
                elif si == 0:
                    mid = state
                elif si == 3:
                    endw, state = state, xstate
                else:  # 1 or 4
                    break
                si += 1
                pos = 0
            if pos < n:
                # first child is target 0, which never raises used (>= 1)
                col[state] = 0
                limit = used + 1 if used < p else p
                stack.append((col, state, 1, limit, si, pos, used))
                state = 0
                pos += 1
                continue
            if si == 1:
                si, pos, rejoin, state = 2, 0, state, mid
                continue
            if si == 4 and state != endw:
                return tuple(zip(*([t if t >= 0 else 0 for t in c] for c in cols)))
            # backtrack to the deepest entry with a target left to try
            while stack:
                col, q, t, limit, si, pos, used = stack.pop()
                if t < limit:
                    col[q] = t
                    stack.append((col, q, t + 1, limit, si, pos, used))
                    pos += 1
                    if used <= t:
                        used = t + 1
                    state = t
                    break
                col[q] = -1
            else:
                return None
    finally:
        counters.nodes = min(nodes, max_nodes)


def _search(
    w: list[int], x: list[int], p: int, k: int, counters: SearchCounters
) -> Optional[Table]:
    """The kernel's verdict on w and x at p states, tried first on pairs
    cut from the prefix the words share.

    Write that prefix a = a1 a2, where a2 keeps the last keep = p, 2p,
    4p, ... symbols of a, and w = a u, x = a v.  A p-state separator of
    the whole pair, started at the state a1 leads to, separates the cut
    pair (a2 u, a2 v), so a cut pair with no separator refutes the whole
    pair.  A separator T of a cut pair serves only when some state s
    reads a1 to T's start: T with s and 0 swapped separates the whole
    pair.  Else the next keep is tried, and the whole pair last.  The
    cuts apply under the kernel's own rule for shared parts (both words
    longer than 8 symbols).  Every search is charged to counters, and
    the deadline is read before each cut: the walks of a1 charge no node.
    """
    if len(w) > 8 and len(x) > 8:
        pre, m = 0, min(len(w), len(x))
        while pre < m and w[pre] == x[pre]:
            pre += 1
        keep = p
        while pre > keep:
            counters.check_deadline()
            cut = pre - keep
            table = _distinguishing_structure(w[cut:], x[cut:], p, k, counters)
            if table is None:
                return None
            a1 = w[:cut]
            for s in range(p):
                if run_table(table, a1, s) == 0:
                    swap = {0: s, s: 0}
                    return tuple(tuple(swap.get(t, t) for t in table[swap.get(q, q)])
                                 for q in range(p))
            keep *= 2
    return _distinguishing_structure(w, x, p, k, counters)


def check_separates(d: Dfa, w: str, x: str) -> bool:
    """Does d accept w and reject x?  Linear time, any word length."""
    return accepts(d, w) and not accepts(d, x)


def _is_unary_pair(w: str, x: str) -> Optional[int]:
    """The shared symbol if both words are powers of one symbol, else None."""
    syms = set(w) | set(x)
    if len(syms) == 1:
        return ord(syms.pop()) - 48
    return None


def _unary_sep(a: int, b: int) -> int:
    """Exact separation number of s^a vs s^b for a != b.

    On a unary input only the 0-successor chain of the start matters, so
    any p-state DFA acts like a tail of length t plus a cycle of length c
    with t + c <= p.  The pair is distinguished iff the tail is long
    enough to isolate the shorter word or the cycle length does not divide
    the difference.  `tests/test_solver.py` checks it against the search
    on all 5 970 pairs with a < 60 and a < b < 130, and on long runs, one
    of them past the default `max_states`.
    """
    a, b = sorted((a, b))
    for c in range(2, a + 2):
        if (b - a) % c:
            return c
    return a + 2  # tail of a+1 states plus a one-state cycle


def _counter_table(k: int, m: int, counted: Container[int]) -> Table:
    """m states counting the symbols in `counted` modulo m."""
    return tuple(tuple((q + 1) % m if s in counted else q for s in range(k))
                 for q in range(m))


def _unary_table(a: int, sym: int, k: int, p: int) -> Table:
    """p = _unary_sep(a, b) states sending s^a and s^b (a < b) to different
    states: a chain that isolates s^a when p == a + 2, else a p-cycle, and p
    does not divide b - a."""
    if p == a + 2:
        # chain 0..a then a sink
        return tuple(tuple(min(q + 1, p - 1) if s == sym else q for s in range(k))
                     for q in range(p))
    return _counter_table(k, p, (sym,))


def _mod_counter_table(w: str, x: str, k: int) -> Optional[Table]:
    """Cheap upper bound: an m-cycle counting length or one symbol, m <= 4."""
    for m in range(2, 5):
        if len(w) % m != len(x) % m:
            return _counter_table(k, m, range(k))
        for sym in range(k):
            c = chr(48 + sym)
            if w.count(c) % m != x.count(c) % m:
                return _counter_table(k, m, (sym,))
    return None


def _trivial_table(w: str, k: int) -> Table:
    """A chain along w plus a dead sink, len(w) + 2 states: w is the only
    word that ends at state len(w)."""
    dead = len(w) + 1
    rows = [[dead] * k for _ in range(len(w) + 2)]
    for q, s in enumerate(word_symbols(w, k)):
        rows[q][s] = q + 1
    return tuple(map(tuple, rows))


def certificate_from_table(w: str, x: str, table: Table, lower: int, method: str,
                           nodes: int = 0) -> SepCertificate:
    """The one way to make a certificate: the table becomes a witness that
    accepts exactly w's end state, with upper = len(table).  lower is the
    caller's proved bound; it is not re-proved here.  nodes is what the
    caller's search spent, 0 for a bound found without one.

    Raises AssertionError (a real raise, kept under python -O) when the
    witness breaks `SepCertificate.witness_checks`.
    """
    k = len(table[0])
    witness = Dfa(k, table, frozenset({run_table(table, word_symbols(w, k))}))
    cert = SepCertificate(w=w, x=x, lower=lower, upper=len(table), witness=witness,
                          lower_method=method, nodes=nodes)
    if not cert.witness_checks():
        raise AssertionError(f"{len(table)}-state witness fails the check for {w!r}, {x!r}")
    return cert


def exact_sep(w: str, x: str, budget: SearchBudget = DEFAULT_BUDGET) -> SepCertificate:
    """The exact separation number, or explicit bounds when budget-bounded.

    Never returns a wrong exact value: a certificate with lower == upper
    carries a verified witness and a lower bound proved by exhaustive
    search or, for a unary pair, by the formula `_unary_sep`.  One state
    ends both words in it, so the search starts at two states and even a
    budget-bounded certificate has lower >= 2.
    """
    if w == x:
        raise ValueError("sep undefined for equal words")
    k = _alphabet_for(w, x)
    sym = _is_unary_pair(w, x)
    if sym is not None:
        a, b = sorted((len(w), len(x)))
        p = _unary_sep(a, b)
        return certificate_from_table(w, x, _unary_table(a, sym, k, p), p,
                                      "unary-analytic")

    # a separator with at most len(w) + 2 states always exists, so the
    # search ends by that level whatever max_states allows
    ws, xs = word_symbols(w, k), word_symbols(x, k)
    counters = SearchCounters(budget)
    p = 2
    try:
        while p <= budget.max_states:
            structure = _search(ws, xs, p, k, counters)
            if structure is not None:
                return certificate_from_table(w, x, structure, p, "exhaustive-canonical",
                                              counters.nodes)
            p += 1
    except BudgetError:
        pass
    # exhausted levels 2..p-1 (or the budget mid-level): bounded certificate
    table = _mod_counter_table(w, x, k) or _trivial_table(w, k)
    return certificate_from_table(w, x, table, p, "exhaustive-canonical", counters.nodes)


def run_table(table: Table, syms: list[int], q: int = 0) -> int:
    """The end state of a run of a bare transition table from state q."""
    for s in syms:
        q = table[q][s]
    return q


def separating_structure(
    w: str, x: str, p: int, counters: Optional[SearchCounters] = None
) -> Optional[Table]:
    """A transition table with at most p states sending w and x to different
    end states, or None when no DFA with at most p states separates them.

    With accepting set {end state of w} the table is a separating DFA.
    Exhaustive: the lazy canonical search at level p covers every smaller
    structure as well, since branch targets may stay within used states.
    The table has p states.  For a pair with a long shared prefix it may
    come from a pair cut from that prefix (`_search`), so it need not be
    the canonical first table of the whole pair.
    The search is charged to counters, a fresh pool of DEFAULT_BUDGET when
    none is given.  At p = 1 no search runs: one state ends both words in
    it, so the answer is None and no node is charged.
    """
    if w == x:
        raise ValueError("sep undefined for equal words")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    k = _alphabet_for(w, x)
    ws, xs = word_symbols(w, k), word_symbols(x, k)
    if p == 1:
        return None
    if counters is None:
        counters = SearchCounters(DEFAULT_BUDGET)
    return _search(ws, xs, p, k, counters)


def no_separator_up_to(
    w: str, x: str, p: int, budget: SearchBudget = DEFAULT_BUDGET
) -> bool:
    """True iff no DFA with at most p states separates the pair."""
    return separating_structure(w, x, p, SearchCounters(budget)) is None


def raw_tables(p: int, k: int) -> Iterator[tuple[int, Table]]:
    """(m, table) for every complete k-symbol transition table with m <= p states.

    Raw enumeration: no symmetry breaking and no reachability filter, so it
    is an independent reference for the canonical search and enumeration.
    Exponential; small p only.
    """
    for m in range(1, p + 1):
        for flat in itertools.product(range(m), repeat=m * k):
            yield m, tuple(flat[q * k:(q + 1) * k] for q in range(m))


def reached_by_language(structure: Dfa, reversal: Dfa, q: int) -> bool:
    """Does some word of a language lead the structure from its start to
    state q?  The language is given by `reversal`, a DFA of its reversal,
    as `lang._reversed_H_k` gives H_k; a caller with a DFA l of the
    language itself passes reverse(l).

    A search backward over the product of the structure with the
    reversal, from (q, start) to (start, an accepting state).
    """
    if reversal.alphabet_size < structure.alphabet_size:
        raise ValueError("language alphabet smaller than structure alphabet")
    return _reached(structure.transitions, reversal, q)


def _reached(trans: Table, reversal: Dfa, q: int) -> bool:
    """`reached_by_language` on bare rows whose symbols are the first
    ones of the reversal's alphabet, which the caller checks.  The rows
    may be partial: an unassigned entry is -1, which no preimage scan
    matches, so True there means a word reaches q through assigned
    entries alone, in every completion of the rows.

    A word u of the language leads the table from 0 to q exactly when
    reading u backward leads from q to 0 through the table's preimages
    while the reversal reads it forward from its start into an accepting
    state.  So the search runs breadth-first over pairs (table state,
    reversal state) from (q, 0), and stops at the first pair (0, accepting)
    it meets.  Each step scans the table for the preimages of one state:
    the tables are small, and most searches end within a step or two.
    """
    rtrans, racc = reversal.transitions, reversal.accepting
    if q == 0 and 0 in racc:
        return True
    seen = {(q, 0)}
    queue = [(q, 0)]
    for s, rs in queue:  # grows while it is read: a breadth-first queue
        rrow = rtrans[rs]
        for t, row in enumerate(trans):
            for a, target in enumerate(row):
                if target == s:
                    pair = (t, rrow[a])
                    if pair not in seen:
                        if t == 0 and pair[1] in racc:
                            return True
                        seen.add(pair)
                        queue.append(pair)
    return False


def lsep_lower_check(
    w: str, reversal: Dfa, p: int, counters: Optional[SearchCounters] = None
) -> bool:
    """True iff no DFA with <= p states accepts w while rejecting all of
    a language, given by `reversal`, a DFA of its reversal (pass reverse(l)
    for a DFA l of the language itself).

    A structure has a suitable accepting set exactly when no word of the
    language reaches w's end state.  The check is a depth-first search
    over partial tables, rows[q][a] with -1 for an unassigned entry, that
    branches only on the entries it meets, as the separation kernel does.
    It first walks w from state 0.  Once w's walk is assigned, each node
    runs `_reached` from w's end state on the partial rows: a word of the
    language found there reaches the end state in every completion, so
    the node is refuted.  Otherwise it branches on the first unassigned
    entry of a numbered state, in (state, symbol) order; with none left
    the numbered states form a complete table whose end state the
    language misses, and the answer is False.  An entry branches over the
    used states plus one fresh state.  A branch frame made after the walk
    keeps w's end state, so it resumes there with no re-walk.

    Numbering states by first use is canonical along any such branch
    order, so the search is exhaustive.  Take any DFA D with <= p states
    whose end state on w the language misses, and follow the search down
    from the root, mapping each numbered state to a state of D, 0 to D's
    start.  At a branch on entry (q, a), D's target of q's image on a is
    either the image of a numbered state, whose branch is taken, or a
    state no numbered state maps to, which takes the fresh state: one is
    left, since D has at most p states.  Every node on that path is a
    part of D, so none is refuted, and the path ends at a complete table:
    the search cannot answer True.  Conversely a False answer is such a
    DFA, its numbered states with w's end state accepting.

    For a 0-free w and a 0-free language over {0,1,2}, structures over
    two effective symbols suffice: transitions on 0 are never exercised.
    counters is charged one node per partial table the search visits, the
    root and each branch, through counters.tick(); it is a fresh pool of
    DEFAULT_BUDGET when none is given.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if accepts(reversal, w[::-1]):
        raise ValueError("lsep undefined: the word belongs to the language")
    proj = _zero_free_projection(reversal) if "0" not in w else None
    if proj is not None:
        k = 2
        ws = [ord(c) - 48 - 1 for c in w]
    else:
        k = reversal.alphabet_size
        proj = reversal
        ws = word_symbols(w, k)
    if counters is None:
        counters = SearchCounters(DEFAULT_BUDGET)
    rows = [[-1] * k for _ in range(p)]
    n = len(ws)
    stack: list[tuple] = []  # (row, symbol, next target, limit, used, pos, state)
    pos, state, used = 0, 0, 1
    while True:
        counters.tick()
        while pos < n and rows[state][ws[pos]] >= 0:
            state = rows[state][ws[pos]]
            pos += 1
        if pos < n:
            row, a = rows[state], ws[pos]
        elif _reached(rows, proj, state):
            row = None  # every completion is refuted
        else:
            row = next((r for r in rows[:used] if -1 in r), None)
            if row is None:
                return False
            a = row.index(-1)
        if row is not None:
            stack.append((row, a, 0, used + 1 if used < p else p, used, pos, state))
        # the next target of the deepest entry that has one left
        while stack:
            row, a, t, limit, used, pos, state = stack.pop()
            if t < limit:
                row[a] = t
                stack.append((row, a, t + 1, limit, used, pos, state))
                if used <= t:
                    used = t + 1
                if pos < n:
                    state, pos = t, pos + 1
                break
            row[a] = -1
        else:
            return True


@lru_cache(maxsize=None)
def _zero_free_projection(l: Dfa) -> Optional[Dfa]:
    """l restricted to symbols {1,2}, relabelled {0,1}, when it is a 0-free
    3-symbol language, else None.

    Memoized: the zero-freeness pass and the new automaton cost more than
    hashing l, and callers check many words against one language.  Taken
    of a reversal, it is the reversal of the language's projection: the
    reversal of a language is 0-free when the language is, and reversing
    commutes with keeping the words over {1,2}.
    """
    if l.alphabet_size == 3 and is_zero_free(l):
        return Dfa(2, tuple((row[1], row[2]) for row in l.transitions), l.accepting)
    return None
