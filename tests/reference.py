"""Reference code that only the tests use: automaton operations the
package needs nowhere else, and the raw separation oracle."""

from sepwords.dfa import Dfa, combine, is_empty, word_symbols
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
