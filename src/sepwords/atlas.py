"""The maximum-separation table over short binary words."""

from __future__ import annotations

import collections
import itertools
import json
from operator import add, itemgetter
from typing import Hashable, Iterable, Optional

from .cache import CertificateCache, store_certificate
from .dfa import _FrozenValue, _Value, enumerate_canonical, word_symbols
from .solver import SepCertificate, Table, certificate_from_table, run_table

ATLAS_DEFAULT_MAX_LEN = 6  # the CLI's table
ATLAS_MAX_LEN_CAP = 12


class AtlasRow(_FrozenValue):
    __slots__ = ("n", "value", "exact", "pair")

    def __init__(self, n: int, value: int,
                 exact: bool,  # every cell is exact; the field keeps the output format
                 pair: tuple[str, str]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "pair", pair)


class AtlasTable(_Value):
    __slots__ = ("max_len", "rows", "searches_performed")

    def __init__(self, max_len: int, rows: list[AtlasRow], searches_performed: int):
        self.max_len = max_len
        self.rows = rows
        self.searches_performed = searches_performed

    def to_csv(self) -> str:
        lines = ["n,value,exact,w,x"]
        for r in self.rows:
            lines.append(f"{r.n},{r.value},{str(r.exact).lower()},{r.pair[0]},{r.pair[1]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "max_len": self.max_len,
                "rows": [
                    {
                        "n": r.n,
                        "value": r.value,
                        "exact": r.exact,
                        "w": r.pair[0],
                        "x": r.pair[1],
                    }
                    for r in self.rows
                ],
            },
            sort_keys=True,
        )


def _binary_words(max_len: int) -> list[str]:
    """The binary words of length <= max_len in shortlex order."""
    words = [""]
    for length in range(1, max_len + 1):
        words.extend("".join(p) for p in itertools.product("01", repeat=length))
    return words


def _trie_ends(tables: list[Table], starts: list[int], count: int) -> list[bytearray]:
    """End states under each table, from its state in `starts`, of the
    first `count` binary words in shortlex order.

    The children of word j are words 2j + 1 and 2j + 2, its extensions by
    symbols 0 and 1, so the words of each length are the 0- and the
    1-successors of the shorter ones, interleaved.  Tables run together as
    one automaton, their disjoint union, up to 256 states at a time: then
    `bytearray.translate` steps every table over a whole length of words.
    A bytearray per table, not a list: the fries lemma check keeps one
    per raw 3-state table, 729 at once, and rows of 63 list items raised
    the lemma suite's peak resident memory.
    """
    per = 256 // max(map(len, tables))
    ends = []
    for s in range(0, len(tables), per):
        chunk = tables[s:s + per]
        base = list(itertools.accumulate(map(len, chunk), initial=0))
        # table b's state q is union state base[b] + q
        succ = [bytes([o + row[a] for o, t in zip(base, chunk) for row in t]).ljust(256, b"\0")
                for a in (0, 1)]
        local = bytes([q for t in chunk for q in range(len(t))]).ljust(256, b"\0")
        level = bytearray(map(add, base, starts[s:s + per]))
        levels = [level.translate(local)]
        done = 1
        while done < count:
            level, half = bytearray(2 * len(level)), level
            level[0::2] = half.translate(succ[0])
            level[1::2] = half.translate(succ[1])
            levels.append(level.translate(local))
            done += len(level) // len(chunk)
        for b in range(len(chunk)):
            row = bytearray().join([lv[b << d:(b + 1) << d] for d, lv in enumerate(levels)])
            del row[count:]
            ends.append(row)
    return ends


def _class_ids(keys: Iterable[Hashable]) -> list[int]:
    """One class id per key, the distinct keys numbered by first appearance."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


# Canonical tables refined at once.  Blocks of 8, 16, 32 and 64 built
# SeparationLevels(6) in 1.11, 0.96, 0.97 and 1.84 ms and
# SeparationLevels(12) in 79, 68, 95 and 86 ms (medians of 15 interleaved
# rounds on a shared 2-vCPU Xeon host, Python 3.11.7).
_BLOCK = 16


class SeparationLevels:
    """The binary words of length <= max_len, partitioned level by level.

    sep(w, x) <= p iff some reachable structure with at most p states sends
    w and x to different end states, and every such structure is isomorphic
    to one that `enumerate_canonical` yields.  So level p splits the classes
    of level p - 1 by the end state under each canonical table with exactly
    p states (a yielded table of length p; no Dfa is built), computed for
    all words at once along the trie (`_trie_ends`).  Refinement stops
    as soon as every word is alone in its class.

    The tables are taken _BLOCK at a time: a block splits the words by
    their classes and their end states under all its tables at once,
    which is the split its tables make one after another.  Only the words
    that still share a class take part.  In the block that leaves every
    word alone, the tables are replayed one at a time to find the one
    that does, so the result is that of refining table by table
    (`tests/reference.py`).

    `words` are in shortlex order.  `classes[p - 1][i]` is word i's class
    under every structure with at most p states, numbered by first
    appearance, and `tables[p - 1]` lists the p-state canonical tables
    that refined level p, in enumeration order.
    """

    __slots__ = ("words", "classes", "tables")

    def __init__(self, max_len: int):
        self.words = _binary_words(max_len)
        n = len(self.words)
        cls = [0] * n
        self.classes: list[list[int]] = []
        self.tables: list[list[Table]] = []
        live = list(range(n)) if n > 1 else []  # the words that share a class
        p = 0
        while live:
            p += 1
            level: list[Table] = []
            exact = (t for t in enumerate_canonical(p, 2) if len(t) == p)
            pick = itemgetter(*live)
            ids = pick(cls)  # ids[j] is the class of word live[j]
            while block := list(itertools.islice(exact, _BLOCK)):
                cols = [pick(ends) for ends in _trie_ends(block, [0] * len(block), n)]
                split = _class_ids(zip(ids, *cols))
                if split[-1] == len(split) - 1:  # every live word is alone
                    for t, col in zip(block, cols):
                        level.append(t)
                        ids = _class_ids(zip(ids, col))
                        if ids[-1] == len(ids) - 1:
                            break
                    live = []
                    break
                level.extend(block)
                sizes = collections.Counter(split)
                keep = [sizes[c] > 1 for c in split]
                live = list(itertools.compress(live, keep))
                ids = list(itertools.compress(split, keep))
                pick = itemgetter(*live)
            final = list(range(n))  # the words alone keep ids of their own
            for i, c in zip(live, ids):
                final[i] = n + c
            cls = _class_ids(final)
            self.classes.append(cls)
            self.tables.append(level)

    def sep(self, i: int, j: int) -> int:
        """sep(words[i], words[j]): the first level whose classes differ."""
        p = 1
        while self.classes[p - 1][i] == self.classes[p - 1][j]:
            p += 1
        return p

    def row(self, n: int) -> AtlasRow:
        """The atlas row for length n >= 1: S(n), and the first pair in
        `combinations` order whose sep attains it.

        The words of length <= n are the first 2^(n + 1) - 1.  S(n) is the
        first level at which they are all alone in their classes, so every
        pair of them that shares a class one level down has sep S(n).  The
        first such pair is the smallest class head that has a mate, with
        the class's second member.
        """
        count = 2 ** (n + 1) - 1
        value = next(p for p, cls in enumerate(self.classes, 1)
                     if len(set(cls[:count])) == count)
        members: dict[int, list[int]] = {}
        for i, c in enumerate(self.classes[value - 2][:count]):
            members.setdefault(c, []).append(i)
        i, j = min(group[:2] for group in members.values() if len(group) > 1)
        return AtlasRow(n=n, value=value, exact=True, pair=(self.words[i], self.words[j]))

    def certificate(self, i: int, j: int) -> SepCertificate:
        """An exact certificate: the first table of level sep that splits the
        pair, accepting the end state of words[i]."""
        p = self.sep(i, j)
        w, x = self.words[i], self.words[j]
        ws, xs = word_symbols(w, 2), word_symbols(x, 2)
        table = next(t for t in self.tables[p - 1]
                     if run_table(t, ws) != run_table(t, xs))
        return certificate_from_table(w, x, table, p, "exhaustive-canonical")


def compute_atlas(max_len: int, cache: Optional[CertificateCache] = None) -> AtlasTable:
    """Exact maxima of the separation number over binary pairs of length <= n.

    Every value comes from one partition refinement of all the words.  Row
    n is read off its class arrays (`SeparationLevels.row`): S(n), and the
    first pair in shortlex `combinations` order that attains it, so the
    table is reproducible byte for byte and no pair is visited.

    A cache records the certificate of each distinct row pair, and
    nothing else (two pairs at max_len 6: ("", "0") and ("0", "000")).
    Each is built from the refinement (`SeparationLevels.certificate`) and
    stored; a line whose JSON text is already that certificate's is not
    written again, and any other line for the pair is replaced.  No line
    is served.  `searches_performed` counts the certificates written, so
    every row pair when there is no cache and none on a warm run.
    """
    if not 1 <= max_len <= ATLAS_MAX_LEN_CAP:
        raise ValueError(f"max_len must be in 1..{ATLAS_MAX_LEN_CAP}")
    levels = SeparationLevels(max_len)
    rows = [levels.row(n) for n in range(1, max_len + 1)]
    # the max over a growing set cannot decrease; guard the invariant
    for a, b in zip(rows, rows[1:]):
        if b.value < a.value:
            raise AssertionError(f"S({b.n}) = {b.value} < S({a.n}) = {a.value}")
    pairs = dict.fromkeys(r.pair for r in rows)
    searches = len(pairs)
    if cache is not None:
        index = levels.words.index
        searches = sum(store_certificate(cache, levels.certificate(index(w), index(x)))
                       for w, x in pairs)
    return AtlasTable(max_len=max_len, rows=rows, searches_performed=searches)
