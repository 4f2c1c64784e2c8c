"""Append-only cache of point evaluations of the auxiliary function.

Line-delimited records, one per evaluated point::

    sigma <TAB> t <TAB> method <TAB> tolerance <TAB> value_re <TAB> value_im

Floats are serialized with repr (shortest round-tripping decimal), so the
key (sigma, t, method, tolerance) and the stored value survive a
write/read cycle bit-exactly.  Re-inserting an existing key with a
different value is an integrity error, both on insert and on load, and so
is a complete line that does not parse.  A final line without its newline
is a record torn by an interrupted append: it is never loaded, and the
file is cut back to its last complete line before the next append.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from .errors import CacheIntegrityError


@dataclass(frozen=True)
class CacheRecord:
    sigma: float
    t: float
    method: str
    tolerance: float
    value_re: float
    value_im: float

    @property
    def key(self) -> tuple:
        return (repr(self.sigma), repr(self.t), self.method, repr(self.tolerance))

    def to_line(self) -> str:
        return "\t".join((repr(self.sigma), repr(self.t), self.method,
                          repr(self.tolerance), repr(self.value_re),
                          repr(self.value_im)))

    @classmethod
    def from_line(cls, line: str) -> "CacheRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise CacheIntegrityError(f"malformed cache line: {line!r}")
        try:
            return cls(float(parts[0]), float(parts[1]), parts[2],
                       float(parts[3]), float(parts[4]), float(parts[5]))
        except ValueError as exc:
            raise CacheIntegrityError(f"malformed cache line: {line!r}") from exc


class EvalCache:
    """In-memory index over an append-only cache file.

    Writes are idempotent: inserting a record identical to a stored one is
    a no-op, inserting a conflicting one raises.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._records: dict[tuple, CacheRecord] = {}
        self._lock = threading.Lock()  # workers look up and insert concurrently
        self._torn_at: int | None = None  # length to cut the file back to
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                self._torn_at = complete
            for line in data[:complete].decode("utf-8").splitlines():
                if not line.strip():
                    continue
                rec = CacheRecord.from_line(line)
                prior = self._records.get(rec.key)
                if prior is not None and prior != rec:
                    raise CacheIntegrityError(
                        f"conflicting records for key {rec.key}")
                self._records[rec.key] = rec

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, sigma: float, t: float, method: str,
               tolerance: float) -> CacheRecord | None:
        key = (repr(float(sigma)), repr(float(t)), method, repr(float(tolerance)))
        with self._lock:
            return self._records.get(key)

    def insert(self, rec: CacheRecord) -> None:
        with self._lock:
            prior = self._records.get(rec.key)
            if prior is not None:
                if prior != rec:
                    raise CacheIntegrityError(f"conflicting insert for key {rec.key}")
                return
            self._records[rec.key] = rec
            if self.path is not None:
                if self._torn_at is not None:
                    os.truncate(self.path, self._torn_at)
                    self._torn_at = None
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(rec.to_line() + "\n")
