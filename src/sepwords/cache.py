"""An append-only JSON-lines record of exact certificates.

Each line is {"key": str, "engine_version": str, "value": object}.  Lines
of another engine version, and corrupted ones, are skipped and counted,
never fatal.  `compute_atlas` writes the certificate of each row pair
here; no certificate is ever served from it, so no line can change an
output.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .solver import ENGINE_VERSION, SepCertificate


class CertificateCache:
    engine_version = ENGINE_VERSION

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.skipped_corrupt = 0
        self.skipped_version = 0
        self._entries: dict[str, object] = {}
        # made here, so that a path under a regular file fails before any
        # certificate is computed, not at the first write
        self.path.parent.mkdir(parents=True, exist_ok=True)
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

    def put(self, key: str, value) -> bool:
        """Store and append; return whether a line was written.

        A value replays a stored one, and writes nothing, only when their
        JSON texts match: a stored bound of 3.0 equals 3 in Python, yet
        must be overwritten.
        """
        # looked up through __contains__ and get, so a tracer sees each lookup
        if key in self and (json.dumps(self.get(key), sort_keys=True)
                            == json.dumps(value, sort_keys=True)):
            return False
        self._entries[key] = value
        line = json.dumps(
            {"key": key, "engine_version": self.engine_version, "value": value},
            sort_keys=True,
        )
        # one line per write keeps appends atomic enough for our use
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return True

    def __len__(self) -> int:
        return len(self._entries)


def sep_key(w: str, x: str) -> str:
    return f"sep|{w}|{x}"


def store_certificate(cache: CertificateCache, cert: SepCertificate) -> bool:
    """Store an exact certificate with `nodes` zeroed, so that a file does
    not depend on which search found a table; return whether a line was
    written.  A budget-bounded certificate is never stored."""
    return cert.exact and cache.put(sep_key(cert.w, cert.x), dict(cert.to_dict(), nodes=0))
