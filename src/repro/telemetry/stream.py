"""Segmented, CRC-framed, append-only telemetry segments.

One **frame** is one line::

    TREC1 <body-bytes> <crc32-hex8> <body>\\n

where ``body`` is the JSON-encoded record envelope (single line — JSON
string escapes keep embedded newlines out of the raw bytes), the length
is over the body's UTF-8 bytes, and the CRC32 is over the same bytes.
A frame is written with **one** ``write()`` call on an ``O_APPEND``
descriptor, so concurrent writers (pool workers appending fired-fault
records to a shared log) interleave at frame granularity, never inside
a frame.

A **segment** is a file of frames.  A writer appends to one active
segment and rotates to a fresh one at :data:`SEGMENT_MAX_BYTES`; a run's
stream is the ordered concatenation of its segments under
``<root>/<run_id>/``.

Torn-tail recovery: a process killed mid-``write`` leaves at most one
damaged frame. :func:`scan_segment` decodes every frame that passes the
length + CRC checks and counts (rather than raises on) the ones that do
not, so a reader always recovers every complete record.  The
``telemetry.torn_append`` fault site exercises exactly this: it
truncates one frame mid-write and forces a rotation, simulating a
``kill -9`` during an append followed by a restart.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.telemetry.records import TelemetryRecord, validate_record

#: Frame marker; bump with the frame layout, not the record schema.
FRAME_MAGIC = "TREC1"

#: Rotation threshold for the active segment.
SEGMENT_MAX_BYTES = 1 << 20

#: Segment file suffix.
SEGMENT_SUFFIX = ".seg"

#: Conventional stream-root directory name inside a result store — the
#: engine, the sweep harness, and the decision service all write their
#: runs under ``<store-root>/telemetry/``.
STORE_DIRNAME = "telemetry"


def _injector():
    """The armed fault injector, if any (lazy import, cycle-free)."""
    from repro.resilience import active_injector

    return active_injector()


def encode_frame(record: TelemetryRecord) -> bytes:
    """The on-disk bytes of one record."""
    body = json.dumps(record.as_dict(), separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    head = f"{FRAME_MAGIC} {len(body)} {crc:08x} ".encode("ascii")
    return head + body + b"\n"


def decode_frame(line: bytes) -> dict | None:
    """The record envelope in one frame line, or ``None`` when damaged.

    Damage means: missing magic, malformed header, body length mismatch
    (a torn write), CRC mismatch (bit rot / an interleaved write), or a
    body that is not a JSON object.
    """
    parts = line.rstrip(b"\n").split(b" ", 3)
    if len(parts) != 4 or parts[0] != FRAME_MAGIC.encode("ascii"):
        return None
    try:
        length = int(parts[1])
        crc = int(parts[2], 16)
    except ValueError:
        return None
    body = parts[3]
    if len(body) != length or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def new_run_id(prefix: str) -> str:
    """A filesystem-safe, collision-resistant run identity."""
    stamp = time.time_ns()
    pid = os.getpid()
    return f"{prefix}-{stamp:x}-{pid:x}"


class TelemetryWriter:
    """Appends records for one run to its segmented stream.

    Args:
        root: stream root directory (each run gets a subdirectory).
        run_id: the stream identity to write under; pass a stable id
            (e.g. a sweep's spec hash) to let a later process resume the
            same stream, or omit for a fresh :func:`new_run_id`.
        prefix: run-id prefix when ``run_id`` is omitted.
        segment_max_bytes: rotation threshold for the active segment.
        segment_path: write every frame to exactly this file instead of
            a per-run directory (single-segment mode — used for the
            shared fault log, where multiple processes append to one
            well-known path).  Rotation and the torn-append fault site
            are disabled in this mode.

    Thread-safe; one writer may be shared by every thread of a process.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        run_id: str | None = None,
        *,
        prefix: str = "run",
        segment_max_bytes: int = SEGMENT_MAX_BYTES,
        segment_path: str | os.PathLike | None = None,
    ) -> None:
        if (root is None) == (segment_path is None):
            raise ValueError(
                "pass exactly one of root= (segmented mode) or "
                "segment_path= (single-segment mode)"
            )
        self.run_id = run_id if run_id is not None else new_run_id(prefix)
        self.segment_max_bytes = segment_max_bytes
        self._segment_path = (
            Path(segment_path) if segment_path is not None else None
        )
        self._root = Path(root) if root is not None else None
        self._lock = threading.Lock()
        self._seq = 0
        self._segment_index = 0
        self._written_bytes = 0
        if self._root is not None:
            run_dir = self.run_dir
            run_dir.mkdir(parents=True, exist_ok=True)
            existing = sorted(run_dir.glob(f"*{SEGMENT_SUFFIX}"))
            if existing:
                # Resume the same stream identity: keep seq monotonic
                # past everything already recorded and never append to a
                # possibly-torn old tail — start a fresh segment.
                scans = [scan_segment(path) for path in existing]
                seqs = [
                    r.seq for scan in scans for r in scan.records
                ]
                self._seq = (max(seqs) + 1) if seqs else 0
                self._segment_index = (
                    _segment_index_after(existing[-1].name) + 1
                )

    # ---- paths ---------------------------------------------------------

    @property
    def run_dir(self) -> Path:
        assert self._root is not None
        return self._root / self.run_id

    @property
    def active_segment(self) -> Path:
        if self._segment_path is not None:
            return self._segment_path
        return self.run_dir / f"{self._segment_index:06d}{SEGMENT_SUFFIX}"

    # ---- writing -------------------------------------------------------

    def append(self, kind: str, payload: dict[str, Any]) -> TelemetryRecord:
        """Durably append one record; returns the record written.

        Append failures (unwritable directory, full disk) are swallowed:
        telemetry is an account of the run, and the run must never fail
        because its account could not be written.
        """
        with self._lock:
            record = TelemetryRecord(
                kind=kind,
                run_id=self.run_id,
                seq=self._seq,
                ts=round(time.time(), 3),
                payload=payload,
            )
            self._seq += 1
            frame = encode_frame(record)
            torn_at = self._maybe_torn(record, frame)
            try:
                self._write_frame(frame if torn_at is None else frame[:torn_at])
            except OSError:
                return record
            if torn_at is not None:
                # A torn append is a simulated kill -9: seal the damaged
                # segment and continue in a fresh one, exactly like the
                # restarted process a real crash would hand over to.
                self._rotate()
            elif (
                self._segment_path is None
                and self._written_bytes >= self.segment_max_bytes
            ):
                self._rotate()
            return record

    def _maybe_torn(self, record: TelemetryRecord, frame: bytes) -> int | None:
        if self._segment_path is not None:
            return None
        injector = _injector()
        if injector is None:
            return None
        return injector.torn_append(
            f"{self.run_id}:{record.seq}", len(frame)
        )

    def _write_frame(self, data: bytes) -> None:
        path = self.active_segment
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self._written_bytes += len(data)

    def _rotate(self) -> None:
        self._segment_index += 1
        self._written_bytes = 0


def _segment_index_after(name: str) -> int:
    """The numeric index a segment file name sorts as (0 on oddballs)."""
    stem = name[: -len(SEGMENT_SUFFIX)] if name.endswith(SEGMENT_SUFFIX) else name
    digits = stem.split("-", 1)[0]
    try:
        return int(digits)
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SegmentScan:
    """Everything one segment file yielded.

    Attributes:
        path: the segment scanned.
        records: every complete, schema-valid record, in file order.
        frames: total frame lines seen.
        torn: lines that failed the frame checks (length/CRC/magic) —
            torn appends, interleaved writes, bit rot.
        invalid: frames that decoded but failed envelope validation.
    """

    path: Path
    records: list[TelemetryRecord] = dataclasses.field(default_factory=list)
    frames: int = 0
    torn: int = 0
    invalid: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)


def scan_segment(path: str | os.PathLike) -> SegmentScan:
    """Decode one segment, recovering every complete record.

    Never raises on damage: torn or corrupt frames are counted and
    skipped (a frame after a torn one is still recovered — frames are
    line-delimited, so damage cannot cascade past its own line).
    """
    scan = SegmentScan(path=Path(path))
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return scan
    for line in raw.split(b"\n"):
        if not line:
            continue
        scan.frames += 1
        envelope = decode_frame(line)
        if envelope is None:
            scan.torn += 1
            continue
        problems = validate_record(envelope)
        if problems:
            scan.invalid += 1
            scan.problems.extend(
                f"{Path(path).name}: {p}" for p in problems
            )
            continue
        scan.records.append(TelemetryRecord.from_dict(envelope))
    return scan


def run_segments(root: str | os.PathLike, run_id: str) -> list[Path]:
    """A run's segment files, in stream order."""
    run_dir = Path(root) / run_id
    return sorted(run_dir.glob(f"*{SEGMENT_SUFFIX}"))


def list_runs(root: str | os.PathLike) -> list[str]:
    """Every run id with at least one segment under ``root``."""
    base = Path(root)
    if not base.is_dir():
        return []
    return sorted(
        entry.name
        for entry in base.iterdir()
        if entry.is_dir() and any(entry.glob(f"*{SEGMENT_SUFFIX}"))
    )


def read_stream(
    source: str | os.PathLike,
    *,
    run_id: str | None = None,
    kinds: Sequence[str] | None = None,
) -> Iterator[TelemetryRecord]:
    """Stream records from a telemetry root (or one segment file).

    Args:
        source: a stream root directory, a single run directory, or a
            single segment file.
        run_id: restrict to one run (roots only).
        kinds: restrict to these kinds, or to a dotted prefix when an
            entry ends with ``"."`` (``("sweep.",)`` matches every sweep
            record).

    Records arrive in (run, segment, frame) order — within a run that is
    append order; damaged frames are silently skipped (use
    :func:`scan_stream` to audit them), and duplicate (run_id, seq)
    pairs — possible only in the crash window between a compaction's
    merge and its cleanup — yield their first occurrence once.
    """
    seen: dict[str, set[int]] = {}
    for scan in _scans(source, run_id=run_id):
        for record in scan.records:
            marks = seen.setdefault(record.run_id, set())
            if record.seq in marks:
                continue
            marks.add(record.seq)
            if kinds is not None and not _kind_match(record.kind, kinds):
                continue
            yield record


def scan_stream(
    source: str | os.PathLike, *, run_id: str | None = None
) -> list[SegmentScan]:
    """Per-segment audit of a stream (for ``repro report --check``)."""
    return list(_scans(source, run_id=run_id))


def _scans(
    source: str | os.PathLike, *, run_id: str | None
) -> Iterator[SegmentScan]:
    base = Path(source)
    if base.is_file():
        yield scan_segment(base)
        return
    if not base.is_dir():
        return
    direct = sorted(base.glob(f"*{SEGMENT_SUFFIX}"))
    if direct and run_id is None:
        # A single run directory.
        for path in direct:
            yield scan_segment(path)
        return
    for run in list_runs(base):
        if run_id is not None and run != run_id:
            continue
        for path in run_segments(base, run):
            yield scan_segment(path)


def _kind_match(kind: str, kinds: Sequence[str]) -> bool:
    for want in kinds:
        if want.endswith("."):
            if kind.startswith(want):
                return True
        elif kind == want:
            return True
    return False
