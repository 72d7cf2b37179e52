"""Offline integrity verification and repair for durable databases.

``fsck`` for the WAL + snapshot format: :func:`verify` walks every
collection's files in a database directory *read-only* and produces a
structured :class:`IntegrityReport`; :func:`repair` fixes what can be
fixed mechanically and *quarantines* (renames aside -- never deletes)
what cannot.

:func:`verify` checks, per collection:

* the snapshot file -- readable, valid JSON, a recognised
  format/version envelope, the CRC32 self-check over the collection
  payload, and a decodable payload;
* the WAL -- magic, per-frame CRCs, a torn tail (a *warning*: it is
  the normal artifact of a crash and recovery truncates it), LSN
  monotonicity and contiguity above the snapshot's covering LSN
  (stale pre-snapshot records from an interrupted compaction are
  noted, not flagged);
* replayability -- the committed records are folded into a shadow
  state through the same :class:`~repro.store.durable.ReplayFolder`
  the live engine uses, so "fsck says clean" and "the engine can open
  it" are the same statement;
* leftover ``.tmp`` files from an interrupted checkpoint or reset.

:func:`repair` then: truncates torn tails back to the committed
prefix; truncates the WAL at the first record that breaks LSN
contiguity or fails to replay (the committed prefix before it is
kept); quarantines unreadable/corrupt snapshots and foreign or
unreadable WALs; quarantines a WAL that cannot replay without its
(quarantined) snapshot because its records start above LSN 1; and
quarantines leftover temp files.  Every action is reported, and the
directory is re-verified afterwards -- ``repair(path).verified.ok``
is the "clean after repair" acceptance check.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

from repro.errors import StorageFormatError, StoreError
from repro.store.durable import (
    ReplayFolder,
    verify_snapshot_wrapper,
)
from repro.store.engine import RecoveredState, decode_snapshot
from repro.store.faults import IOAdapter, RealIO
from repro.store.wal import WAL_MAGIC, scan_wal

__all__ = [
    "Finding",
    "CollectionCheck",
    "IntegrityReport",
    "RepairAction",
    "RepairReport",
    "verify",
    "repair",
]

SNAPSHOT_SUFFIX = ".snapshot.json"
WAL_SUFFIX = ".wal"

#: Finding severities, in increasing order of concern.  ``info`` is
#: context (a stale pre-snapshot prefix), ``warning`` is a normal
#: crash artifact recovery handles silently (a torn tail, a
#: pre-checksum snapshot), ``error`` blocks or corrupts recovery.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Finding:
    """One verification finding, anchored to a file."""

    severity: str
    code: str
    file: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.file}: {self.message}"


@dataclass
class CollectionCheck:
    """Everything :func:`verify` learned about one collection."""

    name: str
    findings: list[Finding] = field(default_factory=list)
    snapshot_lsn: int | None = None
    wal_frames: int = 0
    wal_stale_frames: int = 0
    wal_last_lsn: int | None = None
    #: Documents in the shadow-replayed state; ``None`` when replay
    #: could not run (missing/corrupt inputs).
    documents: int | None = None

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings are recoverable)."""
        return not any(f.severity == "error" for f in self.findings)

    @property
    def clean(self) -> bool:
        """Nothing to report beyond informational context."""
        return not any(f.severity != "info" for f in self.findings)

    def _add(self, severity: str, code: str, file: str, message: str) -> None:
        self.findings.append(Finding(severity, code, file, message))


@dataclass
class IntegrityReport:
    """The structured result of :func:`verify` over a database dir."""

    path: str
    collections: list[CollectionCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.collections)

    @property
    def clean(self) -> bool:
        return all(check.clean for check in self.collections)

    def findings(self) -> list[Finding]:
        return [f for check in self.collections for f in check.findings]


@dataclass(frozen=True)
class RepairAction:
    """One mutation :func:`repair` performed, for the audit trail."""

    code: str
    file: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.file}: {self.detail}"


@dataclass
class RepairReport:
    """What :func:`repair` did, plus the post-repair verification."""

    path: str
    actions: list[RepairAction]
    verified: IntegrityReport

    @property
    def ok(self) -> bool:
        return self.verified.ok


# ---------------------------------------------------------------------------
# Discovery.
# ---------------------------------------------------------------------------


def _collection_names(path: str) -> list[str]:
    """Collections present on disk, discovered from their file names."""
    names = set()
    for filename in os.listdir(path):
        for suffix in (
            SNAPSHOT_SUFFIX,
            WAL_SUFFIX,
            SNAPSHOT_SUFFIX + ".tmp",
            WAL_SUFFIX + ".tmp",
        ):
            if filename.endswith(suffix):
                names.add(filename[: -len(suffix)])
                break
    return sorted(names)


def _paths(path: str, name: str) -> tuple[str, str]:
    return (
        os.path.join(path, f"{name}{SNAPSHOT_SUFFIX}"),
        os.path.join(path, f"{name}{WAL_SUFFIX}"),
    )


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


def _check_snapshot(
    check: CollectionCheck, snapshot_path: str, io: IOAdapter
) -> tuple[RecoveredState | None, int]:
    """Snapshot findings; returns ``(decoded, covering_lsn)`` on success
    and ``(None, 0)`` when the snapshot is absent or unusable."""
    if not os.path.exists(snapshot_path):
        return None, 0
    try:
        with io.open(snapshot_path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        check._add(
            "error", "snapshot-unreadable", snapshot_path, f"cannot read: {exc}"
        )
        return None, 0
    try:
        wrapper = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        check._add(
            "error", "snapshot-not-json", snapshot_path, f"not valid JSON: {exc}"
        )
        return None, 0
    try:
        lsn, checksum_ok = verify_snapshot_wrapper(wrapper, snapshot_path)
    except StorageFormatError as exc:
        check._add("error", "snapshot-bad-envelope", snapshot_path, str(exc))
        return None, 0
    if not checksum_ok:
        check._add(
            "error",
            "snapshot-checksum-mismatch",
            snapshot_path,
            f"CRC32 of the collection payload does not match the recorded "
            f"{wrapper.get('crc32')} (bit rot or tampering)",
        )
        return None, 0
    if wrapper.get("crc32") is None:
        check._add(
            "warning",
            "snapshot-unchecksummed",
            snapshot_path,
            "pre-checksum snapshot wrapper: bit rot in the payload is "
            "undetectable; recompact to upgrade",
        )
    try:
        snapshot = decode_snapshot(wrapper.get("collection"))
    except StorageFormatError as exc:
        check._add("error", "snapshot-malformed", snapshot_path, str(exc))
        return None, 0
    check.snapshot_lsn = lsn
    return snapshot, lsn


def _check_wal(
    check: CollectionCheck, wal_path: str, io: IOAdapter
) -> list[tuple[dict, int]] | None:
    """WAL file/frame findings; returns the committed ``(record,
    end_offset)`` frames, or ``None`` when the file is unusable."""
    if not os.path.exists(wal_path):
        check._add(
            "warning",
            "wal-absent",
            wal_path,
            "no write-ahead log (the engine will create an empty one)",
        )
        return []
    try:
        frames, good, size, reason = scan_wal(wal_path, io=io)
    except StorageFormatError as exc:
        check._add("error", "wal-bad-magic", wal_path, str(exc))
        return None
    except OSError as exc:
        check._add("error", "wal-unreadable", wal_path, f"cannot read: {exc}")
        return None
    check.wal_frames = len(frames)
    if frames:
        check.wal_last_lsn = frames[-1][0]["lsn"]
    if good < size:
        check._add(
            "warning",
            "wal-torn-tail",
            wal_path,
            f"{size - good} trailing byte(s) past the committed prefix "
            f"({reason}); recovery truncates this silently, repair does it "
            "offline",
        )
    return frames


def _shadow_replay(
    check: CollectionCheck,
    snapshot: RecoveredState | None,
    snapshot_lsn: int,
    frames: list[tuple[dict, int]],
    wal_path: str,
) -> int | None:
    """Fold the committed frames into a shadow state.

    Returns the byte offset at which replay failed (for repair to
    truncate at), or ``None`` when every record folded cleanly --
    in which case ``check.documents`` is filled in.
    """
    folder = ReplayFolder(snapshot, snapshot_lsn, wal_path=wal_path)
    start = len(WAL_MAGIC)
    for record, end in frames:
        try:
            applied = folder.apply(record)
        except StorageFormatError as exc:
            check._add("error", "wal-replay-failed", wal_path, str(exc))
            return start
        if not applied:
            check.wal_stale_frames += 1
        start = end
    if check.wal_stale_frames:
        check._add(
            "info",
            "wal-stale-prefix",
            wal_path,
            f"{check.wal_stale_frames} record(s) at or below the snapshot's "
            f"covering LSN {snapshot_lsn} (an interrupted compaction; "
            "replay skips them)",
        )
    check.documents = len(folder.state().docs)
    return None


def _check_temp_files(check: CollectionCheck, path: str, name: str) -> None:
    for suffix in (SNAPSHOT_SUFFIX, WAL_SUFFIX):
        temp = os.path.join(path, f"{name}{suffix}.tmp")
        if os.path.exists(temp):
            check._add(
                "warning",
                "leftover-temp",
                temp,
                "interrupted checkpoint/reset left a temp file; it was "
                "never part of the committed state",
            )


def _verify_collection(
    path: str, name: str, io: IOAdapter
) -> CollectionCheck:
    check = CollectionCheck(name=name)
    snapshot_path, wal_path = _paths(path, name)
    snapshot, snapshot_lsn = _check_snapshot(check, snapshot_path, io)
    frames = _check_wal(check, wal_path, io)
    if frames is not None:
        snapshot_damaged = snapshot is None and os.path.exists(snapshot_path)
        if snapshot_damaged and not (frames and frames[0][0]["lsn"] == 1):
            start = frames[0][0]["lsn"] if frames else "nothing"
            check._add(
                "error",
                "wal-unreachable",
                wal_path,
                f"the snapshot is unusable and the WAL does not reach "
                f"back to LSN 1 (it holds {start}): full replay cannot "
                "reconstruct the state",
            )
        else:
            _shadow_replay(check, snapshot, snapshot_lsn, frames, wal_path)
    _check_temp_files(check, path, name)
    return check


def verify(
    path: str, name: str | None = None, *, io: IOAdapter | None = None
) -> IntegrityReport:
    """Read-only integrity check of a database directory.

    Walks every collection found on disk (or just ``name``), checking
    snapshot envelope + checksum, WAL frames, LSN discipline and
    replayability into a shadow state.  Mutates nothing.
    """
    path = os.fspath(path)
    if not os.path.isdir(path):
        raise StoreError(f"{path}: not a database directory")
    io = io if io is not None else RealIO()
    names = [name] if name is not None else _collection_names(path)
    return IntegrityReport(
        path=path,
        collections=[_verify_collection(path, n, io) for n in names],
    )


# ---------------------------------------------------------------------------
# Repair.
# ---------------------------------------------------------------------------


def _quarantine(file_path: str) -> str:
    """Rename a corrupt file aside (never delete); returns the new path."""
    base = file_path + ".quarantined"
    candidate = base
    counter = 0
    while os.path.exists(candidate):
        counter += 1
        candidate = f"{base}.{counter}"
    os.replace(file_path, candidate)
    return candidate


def _truncate_file(file_path: str, size: int, io: IOAdapter) -> None:
    handle = io.open(file_path, "r+b")
    try:
        io.truncate(handle, size)
        io.flush(handle)
        io.fsync(handle)
    finally:
        handle.close()


def _repair_collection(
    path: str, check: CollectionCheck, io: IOAdapter
) -> list[RepairAction]:
    snapshot_path, wal_path = _paths(path, check.name)
    actions: list[RepairAction] = []
    codes = {finding.code for finding in check.findings}

    # Leftover temp files: never part of the committed state.
    for finding in check.findings:
        if finding.code == "leftover-temp":
            moved = _quarantine(finding.file)
            actions.append(
                RepairAction("quarantine-temp", finding.file, f"-> {moved}")
            )

    # An unusable snapshot is set aside whole; repair never guesses at
    # partially-trusted payloads.
    snapshot_bad = codes & {
        "snapshot-unreadable",
        "snapshot-not-json",
        "snapshot-bad-envelope",
        "snapshot-checksum-mismatch",
        "snapshot-malformed",
    }
    if snapshot_bad:
        moved = _quarantine(snapshot_path)
        actions.append(
            RepairAction(
                "quarantine-snapshot",
                snapshot_path,
                f"-> {moved} ({', '.join(sorted(snapshot_bad))})",
            )
        )

    # A foreign or unreadable WAL likewise.
    if codes & {"wal-bad-magic", "wal-unreadable"}:
        moved = _quarantine(wal_path)
        actions.append(
            RepairAction("quarantine-wal", wal_path, f"-> {moved}")
        )
        return actions

    if not os.path.exists(wal_path):
        return actions

    # Torn tail: truncate back to the committed prefix (what live
    # recovery would do, done offline with an audit trail).
    frames, good, size, reason = scan_wal(wal_path, io=io)
    if good < size:
        _truncate_file(wal_path, good, io)
        actions.append(
            RepairAction(
                "truncate-torn-tail",
                wal_path,
                f"{size - good} byte(s) removed ({reason})",
            )
        )

    # Records that break LSN contiguity or fail to replay: keep the
    # committed prefix before the first offender, truncate the rest.
    snapshot_lsn = 0 if snapshot_bad else (check.snapshot_lsn or 0)
    snapshot = None
    if not snapshot_bad and os.path.exists(snapshot_path):
        shadow = CollectionCheck(name=check.name)
        snapshot, snapshot_lsn = _check_snapshot(shadow, snapshot_path, io)
    if frames and snapshot is None and frames[0][0]["lsn"] > 1:
        # Without a usable snapshot the WAL must reach back to LSN 1;
        # these records describe deltas over a state that no longer
        # exists, so they are preserved aside, not replayed wrongly.
        moved = _quarantine(wal_path)
        actions.append(
            RepairAction(
                "quarantine-wal",
                wal_path,
                f"-> {moved} (records start at LSN {frames[0][0]['lsn']} "
                "with no usable snapshot)",
            )
        )
        return actions
    shadow = CollectionCheck(name=check.name)
    fail_offset = _shadow_replay(
        shadow, snapshot, snapshot_lsn, frames, wal_path
    )
    if fail_offset is not None:
        _truncate_file(wal_path, fail_offset, io)
        detail = next(
            (
                finding.message
                for finding in shadow.findings
                if finding.code == "wal-replay-failed"
            ),
            "replay failure",
        )
        actions.append(
            RepairAction(
                "truncate-at-corrupt-record",
                wal_path,
                f"kept {fail_offset} committed byte(s); {detail}",
            )
        )
    return actions


def repair(
    path: str, name: str | None = None, *, io: IOAdapter | None = None
) -> RepairReport:
    """Fix what is mechanical, quarantine what is not, re-verify.

    Corrupt files are renamed to ``<file>.quarantined`` (numbered on
    collision) -- never deleted -- so no repair is ever destructive
    beyond truncating bytes that could not have been part of the
    committed state.  Returns the actions taken and a fresh
    :func:`verify` report; ``RepairReport.ok`` is the "clean after
    repair" criterion.
    """
    path = os.fspath(path)
    io = io if io is not None else RealIO()
    before = verify(path, name, io=io)
    actions: list[RepairAction] = []
    for check in before.collections:
        actions.extend(_repair_collection(path, check, io))
    return RepairReport(
        path=path, actions=actions, verified=verify(path, name, io=io)
    )
