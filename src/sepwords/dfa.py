"""Complete deterministic finite automata over small alphabets.

Every automaton here is total: each state has exactly one outgoing
transition per symbol, and the start state is always 0.  Words are plain
strings over "01" or "012"; symbol i is the character chr(ord('0') + i).
All operations are pure and Dfa values are immutable.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional


MAX_ALPHABET = 3

# The one cap on the states that any construction numbers, read by
# `_explore` alone: subset constructions, products and build_L_k.  The
# starred block languages blow up exponentially, which is the point.
DEFAULT_DETERMINIZE_BUDGET = 200_000

# a transition table: Table[q][a] is the target of state q on symbol a
Table = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _symbol_table(alphabet_size: int) -> bytes:
    """bytes.translate table: character i to its symbol id, others to 255."""
    return bytes(i - 48 if 0 <= i - 48 < alphabet_size else 255 for i in range(256))


def word_symbols(w: str, alphabet_size: int) -> list[int]:
    """Convert a word string to symbol ids, validating the alphabet.

    One C-level translation of the word's ASCII bytes (a non-ASCII
    character becomes one '?', so positions are kept) and one search for
    a character outside the alphabet.
    """
    syms = w.encode("ascii", "replace").translate(_symbol_table(alphabet_size))
    if 255 in syms:
        c = w[syms.index(255)]
        raise ValueError(f"symbol {c!r} outside alphabet of size {alphabet_size}")
    return list(syms)


class _Value:
    """A plain value class whose `__slots__` name its fields in order.

    `==` compares the fields of two instances of one class, and repr reads
    `Name(field=value, ...)`.  Instances are mutable and unhashable; each
    subclass writes its own `__init__`.  Plain classes keep `import
    sepwords` cheap: the standard library's class generator costs more to
    import and apply than the rest of the package.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        if cls.__slots__:
            # the field values as one tuple, in __slots__ order
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def as_dict(self) -> dict:
        """The fields by name (a shallow copy)."""
        return {f: getattr(self, f) for f in self.__slots__}


class _FrozenValue(_Value):
    """A `_Value` whose fields are set once, in `__init__` (through
    `object.__setattr__`), and which hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))


class Dfa(_FrozenValue):
    """A complete DFA.  transitions[q][a] is the target of state q on symbol a.

    The rows and the accepting set must be a tuple of tuples and a
    frozenset, so that every Dfa hashes (memoized functions key on it).
    """

    __slots__ = ("alphabet_size", "transitions", "accepting")

    def __init__(self, alphabet_size: int, transitions: Table,
                 accepting: frozenset[int]):
        if not 2 <= alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet_size must be 2 or 3, got {alphabet_size}")
        if not isinstance(transitions, tuple):
            raise ValueError("transitions must be a tuple of rows, got "
                             f"{type(transitions).__name__}")
        n = len(transitions)
        if n == 0:
            raise ValueError("a DFA needs at least one state")
        for q, row in enumerate(transitions):
            if not isinstance(row, tuple):
                raise ValueError(f"transitions row {q} must be a tuple, got "
                                 f"{type(row).__name__}")
            if len(row) != alphabet_size:
                raise ValueError(f"state {q} has a partial transition row")
            for t in row:
                # a float target breaks run(), a bool one dfa_to_text()
                if type(t) is not int or not 0 <= t < n:
                    raise ValueError(f"transition target {t!r} of state {q} "
                                     f"is not an int in 0..{n - 1}")
        if not isinstance(accepting, frozenset):
            raise ValueError("accepting must be a frozenset, got "
                             f"{type(accepting).__name__}")
        for q in accepting:
            if not 0 <= q < n:
                raise ValueError(f"accepting state {q} out of range")
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "accepting", accepting)

    @property
    def state_count(self) -> int:
        return len(self.transitions)


# symbol id of each character, per alphabet size
_SYMBOL_IDS = {k: {chr(48 + s): s for s in range(k)} for k in range(2, MAX_ALPHABET + 1)}


def run(d: Dfa, q: int, w: str) -> int:
    """The state reached from q after reading w."""
    rows = d.transitions
    if not 0 <= q < len(rows):
        raise ValueError(f"state {q} out of range")
    ids = _SYMBOL_IDS[d.alphabet_size]
    try:
        for c in w:
            q = rows[q][ids[c]]
    except KeyError:
        word_symbols(w, d.alphabet_size)  # raises the out-of-alphabet error
        raise
    return q


def accepts(d: Dfa, w: str) -> bool:
    return run(d, 0, w) in d.accepting


def image_under_word(d: Dfa, s: Iterable[int], w: str) -> frozenset[int]:
    """The image {run(d, q, w) : q in s}.  Never grows."""
    return frozenset(run(d, q, w) for q in s)


def _explore(start, step, what: str) -> tuple[list, Table]:
    """Number the states reachable from start, breadth-first, in symbol order.

    step(state) gives one successor per symbol, and a state takes the next
    number on its first visit.  Every construction that numbers new states
    runs here, so each returns its states in one canonical order.  Returns
    the states by number and the transition table; raises BudgetError, with
    what.format(cap) as its message, once a state past
    DEFAULT_DETERMINIZE_BUDGET would be numbered.
    """
    index = {start: 0}
    order = [start]
    rows = []
    for state in order:  # grows while it is read: a breadth-first queue
        row = []
        for target in step(state):
            i = index.get(target)
            if i is None:
                if len(order) >= DEFAULT_DETERMINIZE_BUDGET:
                    raise BudgetError(what.format(DEFAULT_DETERMINIZE_BUDGET))
                i = index[target] = len(order)
                order.append(target)
            row.append(i)
        rows.append(tuple(row))
    return order, tuple(rows)


def _shortest_word(start, step, is_target) -> Optional[str]:
    """The shortest word that leads from start to a state where is_target
    holds, first in symbol order, or None when no such state is reachable.

    A breadth-first search over the states step(state) gives, one
    successor per symbol, built as they are reached: it stops at the first
    target, so it never builds more of the automaton than it needs.
    """
    if is_target(start):
        return ""
    parent = {start: None}
    order = [start]
    for state in order:  # grows while it is read: a breadth-first queue
        for s, target in enumerate(step(state)):
            if target in parent:
                continue
            parent[target] = (state, s)
            if is_target(target):
                syms = []
                while target != start:
                    target, sym = parent[target]
                    syms.append(chr(48 + sym))
                return "".join(reversed(syms))
            order.append(target)
    return None


_COMBINE_OPS = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "and-not": lambda a, b: a and not b,
    "xor": lambda a, b: a != b,
}


def combine(a: Dfa, b: Dfa, op: str) -> Dfa:
    """Product automaton on reachable state pairs for a boolean combination,
    numbered by _explore (so capped by DEFAULT_DETERMINIZE_BUDGET)."""
    if a.alphabet_size != b.alphabet_size:
        raise ValueError("alphabet mismatch in combine")
    try:
        f = _COMBINE_OPS[op]
    except KeyError:
        raise ValueError(f"unknown op {op!r}; expected one of {sorted(_COMBINE_OPS)}")
    ra, rb = a.transitions, b.transitions
    order, rows = _explore((0, 0), lambda pq: zip(ra[pq[0]], rb[pq[1]]),
                           "product exceeded {} states")
    acc = frozenset(
        i for i, (p, q) in enumerate(order) if f(p in a.accepting, q in b.accepting)
    )
    return Dfa(a.alphabet_size, rows, acc)


def is_empty(d: Dfa) -> tuple[bool, Optional[str]]:
    """Emptiness check; returns the shortest accepted word, first in symbol
    order, when nonempty (_shortest_word over d's rows)."""
    w = _shortest_word(0, d.transitions.__getitem__, d.accepting.__contains__)
    return w is None, w


def includes(a: Dfa, b: Dfa) -> bool:
    """L(b) subseteq L(a)."""
    return is_empty(combine(b, a, "and-not"))[0]


def _reachable(d: Dfa) -> list[int]:
    seen = [False] * d.state_count
    seen[0] = True
    order = [0]
    for q in order:  # grows while it is read: a breadth-first queue
        for t in d.transitions[q]:
            if not seen[t]:
                seen[t] = True
                order.append(t)
    return order


def _reach_columns(d: Dfa) -> tuple[list[int], list[int], list[list[int]]]:
    """Reach order, each reachable state's position in it, and one
    successor column per symbol in positions: succ[a][i] is pos of the
    a-successor of reach[i].  pos is 0 for an unreachable state."""
    reach = _reachable(d)
    pos = [0] * d.state_count
    for i, q in enumerate(reach):
        pos[q] = i
    succ = [[pos[d.transitions[q][a]] for q in reach] for a in range(d.alphabet_size)]
    return reach, pos, succ


def canonicalize(d: Dfa) -> Dfa:
    """Renumber states in breadth-first first-visit order from the start.

    Unreachable states are dropped.  Language-preserving; equal structures
    over equal languages get byte-identical encodings only after minimize().
    """
    reach, pos, succ = _reach_columns(d)
    # pos's int objects, which the rows already hold: fresh ones from
    # enumerate would keep a second int alive per accepting state past 256
    acc = frozenset(pos[q] for q in reach if q in d.accepting)
    return Dfa(d.alphabet_size, tuple(zip(*succ)), acc)


def minimize(d: Dfa) -> Dfa:
    """The canonical minimal complete DFA for L(d).

    Moore partition refinement on the reachable part, so two language-equal
    inputs produce structurally identical outputs.  A dead state survives
    exactly when the language is not total.

    States are indexed by their position in reach order, and cls[i] is the
    class of the i-th reachable state.  Each round keys every state by its
    class and its successors' classes, and renumbers the keys in reach
    order; a round that adds no class leaves the partition stable, and a
    round that leaves every class a singleton cannot be refined further.
    At least one round runs, as the seed classes are not in reach order.

    The quotient is already in the breadth-first canonical order of
    `canonicalize`: classes are numbered by their first member in reach
    order, and a later member of a class has the same successor classes as
    the first, so it never reaches a new class first.
    """
    reach, _, succ = _reach_columns(d)
    cls = [1 if q in d.accepting else 0 for q in reach]
    count = len(set(cls))
    while True:
        renum: dict[tuple[int, ...], int] = {}
        targets = [list(map(cls.__getitem__, col)) for col in succ]
        cls = [renum.setdefault(key, len(renum)) for key in zip(cls, *targets)]
        if len(renum) in (count, len(reach)):
            break
        count = len(renum)
    # Class ids are assigned in reach order and reach[0] is the start, so
    # the start's class is always 0, and first members come in class order.
    first: dict[int, int] = {}
    for i, c in enumerate(cls):
        first.setdefault(c, i)
    # built as one column per symbol, then transposed: a generator per row
    # once raised the peak RSS of a large minimize (CPython 3.11); on
    # minimize(build_G_k(14)), 65 535 states, the two now peak alike
    rows = tuple(zip(*([cls[col[i]] for i in first.values()] for col in succ)))
    acc = frozenset(c for c, i in first.items() if reach[i] in d.accepting)
    return Dfa(d.alphabet_size, rows, acc)


def determinize(
    transitions: list[list[frozenset[int] | set[int]]],
    start: Iterable[int],
    accepting: Iterable[int],
    alphabet_size: int,
) -> Dfa:
    """Subset construction for an internal NFA (no public NFA type).

    transitions[q][a] is a set of targets; missing moves are empty sets.
    The subsets are numbered by _explore, which raises BudgetError past
    DEFAULT_DETERMINIZE_BUDGET of them.
    """
    acc = set(accepting)
    symbols = range(alphabet_size)
    order, rows = _explore(
        frozenset(start),
        lambda cur: [frozenset(t for q in cur for t in transitions[q][s]) for s in symbols],
        "determinization exceeded {} subset states")
    dfa_acc = frozenset(i for i, sub in enumerate(order) if sub & acc)
    return Dfa(alphabet_size, rows, dfa_acc)


class BudgetError(RuntimeError):
    """A construction or search ran out of its explicit resource budget."""


def reverse(d: Dfa) -> Dfa:
    """Minimal complete DFA for the reversal of L(d), in canonical order.

    The subset construction of the reversed automaton, run on d's
    reachable part (canonicalize() drops the other states).  A subset S
    is a membership vector over d's states: S[q] is 1 when q is in S.
    Its move on symbol a is {q : d moves q on a into S}, a gather of S
    along d's a-column; one gather along all the columns at once, cut
    into one vector per symbol, makes every move of S.  The start is d's
    accepting set, and a subset accepts when it holds d's start.  By
    Brzozowski's theorem the subset automaton of the reversal of an
    accessible DFA is already minimal, and the breadth-first numbering of
    _explore is the canonical one, so no minimize() follows.  _explore
    raises BudgetError past DEFAULT_DETERMINIZE_BUDGET subsets, as for
    determinize().
    """
    if len(_reachable(d)) < d.state_count:
        d = canonicalize(d)
    n = d.state_count
    # n * alphabet_size >= 2 indices, so the gather returns a tuple
    gather = itemgetter(*(q for col in zip(*d.transitions) for q in col))
    cuts = [slice(a * n, a * n + n) for a in range(d.alphabet_size)]
    start = bytes(q in d.accepting for q in range(n))
    order, rows = _explore(start, lambda cur: map(bytes(gather(cur)).__getitem__, cuts),
                           "reversal exceeded {} subset states")
    acc = frozenset(i for i, sub in enumerate(order) if sub[0])
    return Dfa(d.alphabet_size, rows, acc)


def _zero_walk(rows: Table, q: int) -> tuple[list[int], int]:
    """The 0-trajectory of q in a transition table, as (path, tail).

    path lists the states visited from q along symbol 0 until the first
    state visited twice, which is path[tail]: path[:tail] is the tail,
    the states in no zero-cycle, and path[tail:] the zero-cycle.
    """
    if not 0 <= q < len(rows):
        raise ValueError(f"state {q} out of range")
    seen: dict[int, int] = {}  # state -> index of its first visit, in visit order
    while q not in seen:
        seen[q] = len(seen)
        q = rows[q][0]
    return list(seen), seen[q]


def zero_cycle_length(d: Dfa, q: int) -> Optional[int]:
    """Least i >= 1 with run(d, q, 0^i) == q, if q lies on a 0-cycle."""
    path, tail = _zero_walk(d.transitions, q)
    return len(path) if tail == 0 else None


def zpath(d: Dfa, q: int, i: Optional[int] = None) -> frozenset[int]:
    """States reached from q by 0^j for j <= i that are not in a zero-cycle.

    With i omitted, every such state (the full zpath): the tail of q's
    0-trajectory, or its first i + 1 states.
    """
    path, tail = _zero_walk(d.transitions, q)
    return frozenset(path[:tail if i is None else max(0, min(tail, i + 1))])


def enumerate_canonical(p: int, alphabet_size: int) -> Iterator[Table]:
    """One transition table per isomorphism class of reachable structures.

    Yields every complete transition structure with at most p states, all
    reachable from the start, numbered in first-visit order over the scan
    (state 0 symbol 0, state 0 symbol 1, ...), as the plain table that is
    a Dfa's `transitions`; callers build a Dfa only where they use one.
    Tables come in lexicographic order of their scans.

    One explicit-stack walk.  choice[i] is the target at scan position i
    (state i // k, symbol i % k) and before[i] the number of states
    numbered before position i; a position may target any of them, or
    number the next state while fewer than p exist.  A table with m
    states is complete at m * k positions.  After each table, the last
    position with a larger choice left takes it and every later position
    restarts at 0, which numbers no state.  rows holds each state's row
    as a tuple, so a step rebuilds only the rows from that position on.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    k = alphabet_size
    if not 2 <= k <= MAX_ALPHABET:
        raise ValueError(f"alphabet_size must be 2 or 3, got {k}")
    choice = [0] * (p * k)
    before = [1] * (p * k)
    zero = (0,) * k
    rows = [zero] * p
    m = 1  # states of the current table, which fills choice[:m * k]
    while True:
        yield tuple(rows[:m])
        i = m * k - 1
        while i >= 0:
            m = before[i]
            t = choice[i] + 1
            if t < m or t == m < p:
                break
            i -= 1
        else:
            return
        choice[i] = t
        if t == m:
            m += 1
        q, end = i // k, m * k
        if i + 1 < end:  # most steps change only the last position
            choice[i + 1:end] = [0] * (end - i - 1)
            before[i + 1:end] = [m] * (end - i - 1)
            rows[q + 1:m] = [zero] * (m - q - 1)
        rows[q] = tuple(choice[q * k:q * k + k])


def dfa_to_text(d: Dfa, provenance: Optional[str] = None) -> str:
    """Serialize to the one-automaton text format."""
    lines = []
    if provenance is not None:
        lines.append(f"# provenance: {provenance}")
    lines.append(f"dfa {d.alphabet_size} {d.state_count}")
    lines.append("accepting " + " ".join(str(q) for q in sorted(d.accepting)))
    for q, row in enumerate(d.transitions):
        lines.append(f"state {q}: " + " ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def dfa_from_text(text: str) -> tuple[Dfa, Optional[str]]:
    """Parse the text format; returns (dfa, provenance-or-None).

    Raises ValueError on any malformed text, such as a partial
    transition table or an out-of-range id.
    """
    provenance = None
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("provenance:"):
                provenance = body[len("provenance:"):].strip()
            continue
        lines.append(line)
    if not lines or not lines[0].startswith("dfa "):
        raise ValueError("missing 'dfa <alphabet_size> <state_count>' header")
    _, k_s, n_s = lines[0].split()
    k, n = int(k_s), int(n_s)
    if len(lines) < 2 or not lines[1].startswith("accepting"):
        raise ValueError("missing 'accepting' line")
    acc = frozenset(int(t) for t in lines[1].split()[1:])
    rows: dict[int, tuple[int, ...]] = {}
    for line in lines[2:]:
        if not line.startswith("state "):
            raise ValueError(f"unexpected line: {line!r}")
        head, _, rest = line.partition(":")
        q = int(head[len("state "):])  # ValueError unless one state id
        targets = tuple(int(t) for t in rest.split())
        if len(targets) != k:
            raise ValueError(f"state {q} has {len(targets)} targets, expected {k}")
        if q in rows:
            raise ValueError(f"duplicate state line for {q}")
        rows[q] = targets
    if len(rows) != n or sorted(rows) != list(range(n)):
        raise ValueError("partial transition table")
    return Dfa(k, tuple(rows[q] for q in range(n)), acc), provenance
