"""Append-only JSON-lines result cache, and the one cached-solve path.

Each line is {"key": str, "engine_version": str, "value": object}.  Hits
are served only at a matching engine version; corrupted or mismatched
lines are skipped and counted, never fatal.

`solve_cached` is the one cached-solve path.  It stores only exact
certificates, with `nodes` and `millis` zeroed so that files are
reproducible.  It serves a hit only when it decodes as a certificate for
the requested pair with lower == upper and a witness of `upper` states that
separates the pair, a linear re-check of the upper bound.  Any other hit is
counted in `rejected`, solved again and stored; the last write wins on replay.

The lower bound of a hit is trusted, not re-proved: an entry that
over-claims with a valid but non-minimal witness (say, lower = upper = 4
for 01 vs 0001, whose true value is 3, with the 3-state separator plus an
unreachable state) is served as it stands.  An under-claim cannot pass the
re-check.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .solver import (DEFAULT_BUDGET, ENGINE_VERSION, SearchBudget, SepCertificate,
                     check_separates, exact_sep)


class CertificateCache:
    def __init__(self, path: str | Path, engine_version: str = ENGINE_VERSION):
        self.path = Path(path)
        self.engine_version = engine_version
        self.skipped_corrupt = 0
        self.skipped_version = 0
        self.rejected = 0  # hits solve_cached refused to serve
        self._entries: dict[str, object] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    key = obj["key"]
                    version = obj["engine_version"]
                    value = obj["value"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    self.skipped_corrupt += 1
                    continue
                if version != self.engine_version:
                    self.skipped_version += 1
                    continue
                self._entries[key] = value

    def get(self, key: str):
        return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def put(self, key: str, value) -> None:
        """Store and append; idempotent replays produce identical state."""
        if self._entries.get(key) == value:
            return
        self._entries[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {"key": key, "engine_version": self.engine_version, "value": value},
            sort_keys=True,
        )
        # one line per write keeps appends atomic enough for our use
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def __len__(self) -> int:
        return len(self._entries)


def sep_key(w: str, x: str) -> str:
    return f"sep|{w}|{x}"


def solve_cached(
    w: str,
    x: str,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: Optional[CertificateCache] = None,
) -> tuple[SepCertificate, bool]:
    """The certificate for (w, x) and whether a search ran to get it."""
    if cache is None:
        return exact_sep(w, x, budget=budget), True
    key = sep_key(w, x)
    if key in cache:
        try:
            cert = SepCertificate.from_dict(cache.get(key))
            if ((cert.w, cert.x) == (w, x) and cert.exact
                    and cert.witness is not None
                    and cert.witness.state_count == cert.upper
                    and check_separates(cert.witness, w, x)):
                return cert, False
        except (AttributeError, KeyError, TypeError, ValueError):
            pass
        cache.rejected += 1
    cert = exact_sep(w, x, budget=budget)
    if cert.exact:
        cache.put(key, dict(cert.to_dict(), nodes=0, millis=0))
    return cert, True
