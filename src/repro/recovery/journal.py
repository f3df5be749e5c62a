"""Write-ahead decision journal and atomic file helpers.

The control plane's durability story has two layers.  Checkpoints (see
:mod:`repro.recovery.checkpoint`) snapshot the full runtime state every
N decisions; between checkpoints this module's **write-ahead journal**
records every *input* the runtime consumed (routed arrivals, delivered
health signals) plus an audit trail of every *decision* it derived
(resolve events, breaker transitions).  Restore = latest checkpoint +
deterministic replay of the journal tail.

Crash-consistency contract:

* every record is a single JSONL line ``{"seq", "t", "kind", "data",
  "crc"}`` where ``crc`` is the CRC32 of the canonical JSON encoding of
  ``[seq, t, kind, data]`` — a torn tail (partial line, bit rot) fails
  the CRC or the JSON parse and is *dropped*, never parsed;
* sequence numbers increase by exactly one — a gap means a lost record
  and truncates the valid prefix at the gap;
* the writer hands each record to the kernel with one ``os.write`` of
  its encoded line on an unbuffered descriptor (optional ``fsync`` for
  true power-loss durability), so after a process crash the on-disk
  journal is current up to the last completed append;
* checkpoints and all other JSON artifacts go through
  :func:`atomic_write_json` / :func:`atomic_write_text` — temp file in
  the same directory, ``fsync``, then ``os.replace`` — so readers never
  observe a half-written file.

Floats are serialized with ``float.__repr__``, which round-trips
IEEE-754 doubles exactly; non-finite values (``NaN``, ``±Infinity``)
use Python's JSON dialect tokens, which this module both writes and
reads.  One module-level compact encoder, built once, produces every
byte the writer emits and every CRC the reader checks (see
:func:`_encode_record`), so the two cannot drift: a line is exactly
``json.dumps(record, separators=(",", ":"))``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable

from ..core.exceptions import RecoveryError

__all__ = [
    "JournalRecord",
    "JournalWriter",
    "read_journal",
    "atomic_write_json",
    "atomic_write_text",
]

#: Journal file name inside a recovery directory.
JOURNAL_NAME = "journal.jsonl"


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory so renames/creates are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dir unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (temp + fsync + replace).

    A crash at any point leaves either the previous content or the new
    content at ``path`` — never a partial file.  Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_directory(directory)
    return path


def atomic_write_json(
    path: str, payload: Any, *, indent: int | None = 2, sort_keys: bool = False
) -> str:
    """Serialize ``payload`` as JSON and write it atomically to ``path``."""
    return atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    )


#: Circular-reference markers of the shared encoder; emptied again when
#: an encode fails part-way (the C encoder leaves its entries behind).
_MARKERS: dict = {}
#: ``json.dumps(value, separators=(",", ":"))`` as one prebuilt C encoder
#: (``json.dumps`` rebuilds an encoder per call for non-default
#: separators).  Returns the encoded text in chunks.
_encode_chunks = c_make_encoder(
    _MARKERS,  # circular-reference check on
    json.JSONEncoder().default,  # unserializable values raise TypeError
    encode_basestring_ascii,  # ensure_ascii
    None,  # indent
    ":",  # key separator
    ",",  # item separator
    False,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


#: ``float.__repr__`` of the non-finite floats -> the JSON dialect tokens.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_record(seq: int, t: float, kind: str, data: Any) -> tuple[str, int]:
    """``(line, crc)`` of one record: the on-disk line without its
    newline, and the CRC32 of the canonical ``[seq,t,kind,data]``.

    Both are assembled from the same four encoded fields: ``seq`` is a
    plain ``int`` and ``t`` a ``float``, so their f-string and
    ``float.__repr__`` forms are what :mod:`json` writes.  Raises
    ``TypeError`` for unserializable and ``ValueError`` for circular
    ``data``.
    """
    try:
        body = "".join(_encode_chunks(data, 0))
    except BaseException:
        _MARKERS.clear()
        raise
    t_s = float.__repr__(t)
    t_s = _NON_FINITE.get(t_s, t_s)
    kind_s = encode_basestring_ascii(kind)
    crc = zlib.crc32(f"[{seq},{t_s},{kind_s},{body}]".encode())
    return (
        f'{{"seq":{seq},"t":{t_s},"kind":{kind_s},"data":{body},"crc":{crc}}}',
        crc,
    )


@dataclass(frozen=True)
class JournalRecord:
    """One validated write-ahead journal entry."""

    seq: int
    t: float
    kind: str
    data: dict[str, Any]

    def to_line(self) -> str:
        """The record's on-disk line, without the trailing newline."""
        return _encode_record(self.seq, self.t, self.kind, self.data)[0]

    @staticmethod
    def from_line(line: str) -> "JournalRecord":
        """Parse and CRC-validate one line; raises ``ValueError`` if torn."""
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError("journal line is not an object")
        try:
            seq = payload["seq"]
            t = payload["t"]
            kind = payload["kind"]
            data = payload["data"]
            crc = payload["crc"]
        except KeyError as exc:  # missing field == torn record
            raise ValueError(f"journal line missing field {exc}") from exc
        if type(seq) is not int or not isinstance(kind, str):
            raise ValueError("journal line field types invalid")
        if _encode_record(seq, float(t), kind, data)[1] != crc:
            raise ValueError(f"journal CRC mismatch at seq {seq}")
        return JournalRecord(seq=seq, t=float(t), kind=kind, data=data)


class JournalWriter:
    """Append-only JSONL writer: one CRC-framed line per ``os.write``.

    ``start_seq`` seeds the monotonic sequence counter (resume passes
    ``last valid seq + 1``); ``truncate_at`` cuts the file back to a
    byte offset first, amputating any torn tail left by a crash so the
    resumed stream appends after the last *valid* record.  The offset
    must lie within the file: cutting past its end would zero-extend
    it, and the NUL run would fuse with the next record.
    """

    def __init__(
        self,
        path: str,
        *,
        start_seq: int = 0,
        truncate_at: int | None = None,
        fsync: bool = False,
    ) -> None:
        if start_seq < 0:
            raise RecoveryError(f"start_seq must be >= 0, got {start_seq}")
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self._fsync = fsync
        flags = os.O_WRONLY | os.O_CREAT
        if truncate_at is None:
            flags |= os.O_TRUNC
        else:
            size = os.path.getsize(path) if os.path.exists(path) else 0
            if not 0 <= truncate_at <= size:
                raise RecoveryError(
                    f"truncate_at must be within the journal's {size} bytes, "
                    f"got {truncate_at}",
                    path=path,
                )
            flags |= os.O_APPEND
        self._fd = os.open(path, flags, 0o666)
        if truncate_at is not None:
            os.ftruncate(self._fd, truncate_at)
        self._next_seq = start_seq
        self._closed = False

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record (-1 if none)."""
        return self._next_seq - 1

    def append(self, t: float, kind: str, data: dict[str, Any]) -> JournalRecord:
        """Encode and write one record; it is in the kernel on return.

        Nothing is written (and ``next_seq`` does not move) when
        ``data`` cannot be encoded.
        """
        if self._closed:
            raise RecoveryError("append to a closed journal", path=self.path)
        seq = self._next_seq
        t = float(t)
        line, _ = _encode_record(seq, t, kind, data)
        buf = (line + "\n").encode()
        written = os.write(self._fd, buf)
        while written < len(buf):
            buf = buf[written:]
            written = os.write(self._fd, buf)
        if self._fsync:
            os.fsync(self._fd)
        self._next_seq = seq + 1
        return JournalRecord(seq, t, kind, data)

    def close(self) -> None:
        if not self._closed:
            try:
                os.fsync(self._fd)
            except OSError:  # pragma: no cover
                pass
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning a journal file for its valid prefix."""

    records: tuple[JournalRecord, ...]
    dropped_lines: int
    valid_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else -1

    def tail(self, after_seq: int) -> Iterable[JournalRecord]:
        return (r for r in self.records if r.seq > after_seq)


def read_journal(path: str) -> JournalScan:
    """Read the longest valid prefix of a journal file.

    Stops at the first line that fails CRC/JSON validation or breaks
    the ``seq`` monotone-by-one invariant; everything after that point
    is counted into ``dropped_lines`` (a crash tears at most the last
    line, but corruption anywhere truncates the trusted prefix there).
    A missing file scans as empty — a fresh runtime simply has no
    journal yet.
    """
    if not os.path.exists(path):
        return JournalScan(records=(), dropped_lines=0, valid_bytes=0)
    records: list[JournalRecord] = []
    valid_bytes = 0
    dropped = 0
    expected_seq: int | None = None
    with open(path, "rb") as fh:
        for raw in fh:
            if dropped:
                dropped += 1
                continue
            if not raw.endswith(b"\n"):
                # A final line without its newline is torn mid-append:
                # even if it happens to parse, appending after it would
                # fuse two records, so it is not part of the valid prefix.
                dropped += 1
                continue
            try:
                record = JournalRecord.from_line(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                dropped += 1
                continue
            if expected_seq is not None and record.seq != expected_seq:
                dropped += 1
                continue
            records.append(record)
            expected_seq = record.seq + 1
            valid_bytes += len(raw)
    return JournalScan(
        records=tuple(records), dropped_lines=dropped, valid_bytes=valid_bytes
    )
