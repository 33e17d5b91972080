"""The maximum-separation table over short binary words."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

from .cache import CertificateCache, solve_cached
from .solver import DEFAULT_BUDGET, SearchBudget

ATLAS_MAX_LEN_CAP = 6


@dataclass(frozen=True)
class AtlasRow:
    n: int
    value: int
    exact: bool  # False means the cell is a ">=" lower bound
    pair: tuple[str, str]


@dataclass
class AtlasTable:
    max_len: int
    rows: list[AtlasRow]
    searches_performed: int

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
    words = [""]
    for length in range(1, max_len + 1):
        words.extend("".join(p) for p in itertools.product("01", repeat=length))
    return words


def compute_atlas(
    max_len: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: Optional[CertificateCache] = None,
) -> AtlasTable:
    """Exact maxima of the separation number over binary pairs of length <= n.

    Pairs are scanned in shortlex order and the first maximal pair is
    reported, so the table is reproducible byte for byte; with a warm
    cache no searches run at all.  Budget exhaustion on a pair turns the
    affected cells into explicit lower bounds.
    """
    if not 1 <= max_len <= ATLAS_MAX_LEN_CAP:
        raise ValueError(f"max_len must be in 1..{ATLAS_MAX_LEN_CAP}")
    words = _binary_words(max_len)
    searches = 0
    best: dict[int, AtlasRow] = {}
    inexact_from = max_len + 1  # smallest n whose cell is only a lower bound
    for w, x in itertools.combinations(words, 2):
        cert, searched = solve_cached(w, x, budget=budget, cache=cache)
        searches += searched
        value = cert.lower
        n = max(len(w), len(x))
        if not cert.exact:
            inexact_from = min(inexact_from, max(n, 1))
        for m in range(max(n, 1), max_len + 1):
            cur = best.get(m)
            if cur is None or value > cur.value:
                best[m] = AtlasRow(n=m, value=value, exact=True, pair=(w, x))
    rows = [
        AtlasRow(n=n, value=best[n].value, exact=n < inexact_from, pair=best[n].pair)
        for n in range(1, max_len + 1)
    ]
    # the max over a growing set cannot decrease; guard the invariant
    for a, b in zip(rows, rows[1:]):
        if b.value < a.value:
            raise AssertionError(f"S({b.n}) = {b.value} < S({a.n}) = {a.value}")
    return AtlasTable(max_len=max_len, rows=rows, searches_performed=searches)
