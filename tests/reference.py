"""Reference code that only the tests use: automaton operations the
package needs nowhere else, the raw separation oracle, the atlas
refinement one table at a time, and the recursive doubling-candidate
generator."""

from sepwords.atlas import _binary_words
from sepwords.dfa import Dfa, combine, enumerate_canonical, is_empty, word_symbols
from sepwords.solver import _alphabet_for, raw_tables, run_table


def complement(d: Dfa) -> Dfa:
    return Dfa(d.alphabet_size, d.transitions,
               frozenset(range(d.state_count)) - d.accepting)


def equivalent(a: Dfa, b: Dfa) -> bool:
    return is_empty(combine(a, b, "xor"))[0]


def raw_separable(w: str, x: str, p: int) -> bool:
    """Independent oracle: enumerate every raw (structure, accepting set) pair.

    All complete transition tables with m <= p states, with every accepting
    subset, checked by direct simulation.  Exponential; test scale only.
    """
    k = _alphabet_for(w, x)
    ws, xs = word_symbols(w, k), word_symbols(x, k)
    for m, table in raw_tables(p, k):
        ew, ex = run_table(table, ws), run_table(table, xs)
        for mask in range(1 << m):
            if (mask >> ew & 1) and not (mask >> ex & 1):
                return True
    return False


def trie_ends(table, q, count):
    """End states from q of the first `count` binary words in shortlex
    order, one table at a time, with word j's children 2j + 1 and 2j + 2."""
    ends = [q]
    for e in ends:  # grows while it is read
        if len(ends) >= count:
            break
        ends += table[e]
    return bytearray(ends[:count])


def refine_per_table(max_len):
    """(classes, tables) of SeparationLevels(max_len), refined one
    canonical table at a time."""
    n = len(_binary_words(max_len))
    cls = [0] * n
    classes, tables = [], []
    count, p = 1, 0
    while count < n:
        p += 1
        level = []
        for t in enumerate_canonical(p, 2):
            if len(t) != p:
                continue
            level.append(t)
            ids = {}
            cls = [ids.setdefault(key, len(ids))
                   for key in zip(cls, trie_ends(t, 0, n))]
            count = len(ids)
            if count == n:
                break
        classes.append(cls)
        tables.append(level)
    return classes, tables


def recursive_cn_candidates(w0, max_run, forbid_run, max_len):
    """The run tuples of construct._cn_candidates, in the order of the
    recursive generator it replaced: the order the search must keep."""
    allowed = [r for r in range(1, max_run + 1) if r != forbid_run]
    least = min(allowed, default=0)
    base = len(w0)
    for total in range(base, max_len + 1):
        blocks_max = (total + 1) // (base + 1) + 1
        for m in range(1, blocks_max + 1):
            rest = total - m * base
            if m == 1:
                if rest == 0:
                    yield ()
                continue
            if rest < m - 1:
                continue
            yield from recursive_compositions(rest, m - 1, allowed, least)


def recursive_compositions(total, parts, allowed, least):
    """Ordered sums of `parts` terms from the ascending list `allowed`,
    whose first term is `least`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in allowed:
        if first > total - (parts - 1) * least:
            break  # allowed ascends, so no later term fits either
        for rest in recursive_compositions(total - first, parts - 1, allowed, least):
            yield (first,) + rest
