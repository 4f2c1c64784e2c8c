"""Append-only cache of point evaluations of the auxiliary function.

The file's first line is the format tag ``FORMAT_TAG``, written when the
cache is opened on a new file.  After it come line-delimited records, one
per evaluated point, each the ``AuxEval`` that ``eval_aux`` returned::

    sigma <TAB> t <TAB> method <TAB> value_re <TAB> value_im <TAB> error_bound

Floats are serialized with repr (shortest round-tripping decimal), so the
key (sigma, t) and the stored record survive a write/read cycle
bit-exactly.  The tag names the format and the route that wrote the
values; a file without it (written by an earlier version, or not a cache
at all) is refused with an integrity error and never served.  Re-inserting
an existing key with a different record is an integrity error, both on
insert and on load, and so is a complete line that does not parse.  A
final line without its newline is a record torn by an interrupted append:
it is never loaded, and the file is cut back to its last complete line
when the cache is opened.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

from .aux_eval import AuxEval
from .errors import CacheIntegrityError

FORMAT_TAG = ("auxzeta-eval-cache 5: shifted contour by the nested trapezoidal "
              "rule inside the window of its first level to t = 500, main sum "
              "above, phases reduced modulo an extended-precision 2pi")
_HEADER = (FORMAT_TAG + "\n").encode("utf-8")


def _key(s: complex) -> tuple[str, str]:
    return (repr(s.real), repr(s.imag))


def _to_line(rec: AuxEval) -> str:
    return "\t".join((repr(rec.s.real), repr(rec.s.imag), rec.method,
                      repr(rec.value.real), repr(rec.value.imag),
                      repr(rec.error_bound)))


def _from_line(line: str) -> AuxEval:
    parts = line.split("\t")
    if len(parts) != 6:
        raise CacheIntegrityError(f"malformed cache line: {line!r}")
    try:
        sigma, t, re, im, bound = (float(parts[k]) for k in (0, 1, 3, 4, 5))
    except ValueError as exc:
        raise CacheIntegrityError(f"malformed cache line: {line!r}") from exc
    return AuxEval(complex(sigma, t), complex(re, im), parts[2], bound)


class EvalCache:
    """In-memory index over an append-only cache file.

    Writes are idempotent: inserting a record identical to a stored one is
    a no-op, inserting a conflicting one raises.
    """

    def __init__(self, path: str):
        self.path = path
        self._records: dict[tuple[str, str], AuxEval] = {}
        self._lock = threading.Lock()  # an instance may be shared between threads
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        if not data.startswith(_HEADER):
            if not _HEADER.startswith(data):
                raise CacheIntegrityError(
                    f"{path} is not an evaluation cache of this version "
                    f"(its first line is not {FORMAT_TAG!r}); remove it "
                    f"or name another --cache file")
            # new, empty, or its tag torn by an interrupted write
            with open(path, "wb") as fh:
                fh.write(_HEADER)
            data = _HEADER
        complete = data.rfind(b"\n") + 1
        if complete < len(data):  # a torn final record
            os.truncate(path, complete)
        for line in data[len(_HEADER):complete].decode("utf-8").splitlines():
            if not line.strip():
                continue
            rec = _from_line(line)
            prior = self._records.get(_key(rec.s))
            if prior is not None and prior != rec:
                raise CacheIntegrityError(
                    f"conflicting records for key {_key(rec.s)}")
            self._records[_key(rec.s)] = rec

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, s: complex) -> AuxEval | None:
        """The stored evaluation at s (with n_evals = 0), or None."""
        with self._lock:
            return self._records.get(_key(complex(s)))

    def insert(self, *records: AuxEval) -> None:
        """Store evaluations with one append; the file records everything
        but n_evals.  A conflicting record raises before any is stored."""
        new: dict[tuple[str, str], AuxEval] = {}
        with self._lock:
            for rec in records:
                rec = replace(rec, n_evals=0)
                key = _key(rec.s)
                if (self._records.get(key) or new.setdefault(key, rec)) != rec:
                    raise CacheIntegrityError(f"conflicting insert for key {key}")
            if new:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write("".join(_to_line(rec) + "\n" for rec in new.values()))
                self._records.update(new)
