"""Append-only JSON-lines result cache, and the one rule for serving a hit.

Each line is {"key": str, "engine_version": str, "value": object}.  Hits
are served only at a matching engine version; corrupted or mismatched
lines are skipped and counted, never fatal.

`cached_certificate` serves a hit only when it decodes as an exact
certificate for the requested pair that passes the solver's one validity
rule, `SepCertificate.witness_checks` (a linear re-check of the upper
bound); the stored witness is served as stored.  Any other hit is counted
in `rejected`.  `store_certificate` is the one rule for storing: only exact
certificates, with `nodes` and `millis` zeroed so that files are
reproducible.  Both callers, `solve_cached` (one pair, by search) and
`compute_atlas` (the pair of each atlas row, by one partition
refinement), compute a pair that was not served and store it; the last
write wins on replay, which heals the file.  So a file that only `atlas`
wrote holds row certificates only, and `sep` on any other pair misses.

That rule re-checks the upper bound only, and an entry can over-claim
with a valid but non-minimal witness (say, lower = upper = 4 for 01 vs
0001, whose true value is 3, with the 3-state separator plus an
unreachable state).  So each caller also re-proves the lower bound of a
hit before it serves it.  `solve_cached` applies the solver's re-proof
rule, `lower_bound_holds`: a hit with lower = p > 1 is served only when
no structure with p - 1 states separates the pair, by one search at that
level under the caller's budget (exhausting the budget rejects the hit),
or for a unary pair by the formula `exact_sep` uses on a miss.
`compute_atlas` serves a hit only when its value equals that of its own
partition refinement.  Both reject the forged entry above and store the
exact certificate.  An under-claim cannot pass the re-check.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .solver import (DEFAULT_BUDGET, ENGINE_VERSION, SearchBudget, SepCertificate,
                     exact_sep, lower_bound_holds)


class CertificateCache:
    engine_version = ENGINE_VERSION

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.skipped_corrupt = 0
        self.skipped_version = 0
        self.rejected = 0  # hits cached_certificate refused to serve
        self._entries: dict[str, object] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        # read as bytes, so that a line that is not UTF-8 is one corrupt line
        with open(self.path, "rb") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                    key = obj["key"]
                    version = obj["engine_version"]
                    value = obj["value"]
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                    self.skipped_corrupt += 1
                    continue
                if not isinstance(key, str):  # a list key would not even hash
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
        """Store and append; idempotent replays produce identical state.

        A value replays a stored one only when their JSON texts match: a
        stored bound of 3.0 equals 3 in Python, yet must be overwritten.
        """
        if key in self._entries and (json.dumps(self._entries[key], sort_keys=True)
                                     == json.dumps(value, sort_keys=True)):
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


def cached_certificate(
    cache: CertificateCache, w: str, x: str
) -> Optional[SepCertificate]:
    """The cached certificate for (w, x) if it may be served, else None.

    The one rule for serving a hit: it decodes as an exact certificate for
    the requested pair whose witness passes `witness_checks`.  A hit that
    breaks the rule is counted in `cache.rejected`.
    """
    key = sep_key(w, x)
    if key not in cache:
        return None
    try:
        cert = SepCertificate.from_dict(cache.get(key))
        if (cert.w, cert.x) == (w, x) and cert.exact and cert.witness_checks():
            return cert
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    cache.rejected += 1
    return None


def store_certificate(cache: CertificateCache, cert: SepCertificate) -> None:
    """Store an exact certificate with `nodes` and `millis` zeroed, so that
    files are reproducible; a budget-bounded certificate is never stored."""
    if cert.exact:
        cache.put(sep_key(cert.w, cert.x), dict(cert.to_dict(), nodes=0, millis=0))


def solve_cached(
    w: str,
    x: str,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: Optional[CertificateCache] = None,
) -> tuple[SepCertificate, bool]:
    """The certificate for (w, x) and whether it was solved, not served from cache.

    A hit is served only after its lower bound is re-proved under budget;
    a hit that fails `cached_certificate` or that re-proof is counted in
    `cache.rejected`, solved again and stored.
    """
    if cache is not None:
        cert = cached_certificate(cache, w, x)
        if cert is not None:
            if lower_bound_holds(cert, budget):
                return cert, False
            cache.rejected += 1
    cert = exact_sep(w, x, budget=budget)
    if cache is not None:
        store_certificate(cache, cert)
    return cert, True
