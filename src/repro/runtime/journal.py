"""Crash-safe journaling for long-lived sync sessions.

A :class:`~repro.sync.SyncSession` is the library's only long-lived
stateful object: its materialized imports accumulate across rounds, and
losing them to a process death forces a full re-import.  The journal
makes the session durable with the standard write-ahead pattern:

* an append-only JSONL file, one record per line;
* a ``header`` record pinning the format version, the setting, and the
  pinned facts;
* one ``commit`` record per successful round: the round number, the
  stamp of a stamped round, and the round's *diff* — the ``add`` and
  ``drop`` rows of the imported facts against the previous commit and,
  for a stamped round, of the ingested source against the retained one
  (the first commit diffs against an empty state, so it holds the full
  state);
* every append is flushed and fsynced before the in-memory state is
  considered durable.

Recovery folds the commits in order into per-relation row sets.  A
:class:`SessionJournal` reads its file only to recover: in
:meth:`~SessionJournal.load`, or in the first
:meth:`~SessionJournal.ensure_header` on an existing file.  That read
leaves the last commit's rows in memory, so each later commit costs a
diff against them, not a re-read or a re-serialisation of the state.

Recovery tolerates exactly the failure it is designed for: a crash
mid-append leaves a torn final line, which the full read drops (the
round it described never committed) and cuts off the file, fsynced,
before anything else is appended.  Damage anywhere else raises
:class:`~repro.exceptions.JournalError`, and so does any other format
version (version-1 journals held full-state commits; they are refused,
not misread).

Instances and settings round-trip through :mod:`repro.io.serialization`,
so journals are portable, diffable artifacts like every other on-disk
format in this library.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.core.atoms import Fact
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.exceptions import JournalError
from repro.io.serialization import (
    instance_from_dict,
    instance_to_dict,
    setting_from_dict,
    setting_to_dict,
)

__all__ = [
    "SessionJournal",
    "JournalState",
    "append_jsonl",
    "read_jsonl_tolerant",
]

_VERSION = 2

#: Bytes read per step when scanning back from the end of the file for
#: the last newline (see :func:`_seal_tail`).
_TAIL_CHUNK = 1 << 16


def append_jsonl(path: str | Path, record: dict[str, Any]) -> None:
    """Append one JSONL record, flushed and fsynced before returning.

    The durability primitive shared by every append-only artifact in the
    library (sync journals, post-mortem flight-recorder files): once this
    returns, the record survives a crash; a crash *during* the append
    leaves at worst a torn final line, which :func:`read_jsonl_tolerant`
    drops on recovery.
    """
    line = json.dumps(record, sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_jsonl_tolerant(
    path: str | Path,
    *,
    label: str,
    error: type[Exception] = JournalError,
) -> list[dict[str, Any]]:
    """Read a JSONL file, dropping a torn final line.

    The recovery primitive paired with :func:`append_jsonl`: a crash
    mid-append leaves an unterminated (hence unparsable) final line, which
    is silently dropped — that record never committed.  Damage anywhere
    else raises ``error`` with ``label`` naming the artifact (so callers
    keep their own exception types and message vocabulary).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {label} {path}: {exc}")
    lines = text.split("\n")
    # A trailing newline leaves one empty chunk; a crash mid-append
    # leaves a non-empty, probably unparsable final chunk instead.
    tail_committed = lines and lines[-1] == ""
    if tail_committed:
        lines = lines[:-1]
    records: list[dict[str, Any]] = []
    for index, line in enumerate(lines):
        is_last = index == len(lines) - 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if is_last and not tail_committed:
                break  # torn final write: the record never committed
            raise error(f"{label} {path} corrupt at line {index + 1}")
        records.append(record)
    return records


def _seal_tail(path: Path) -> None:
    """End the file on a record boundary before anything is appended.

    A torn final append has no trailing newline.  When it does not parse,
    :func:`read_jsonl_tolerant` dropped it, and it is cut back to the last
    newline; when it does (the crash fell between a record and its
    newline), the reader kept it, and it gets its newline.  Either repair
    is fsynced, so the next append starts a line of its own.
    """
    with open(path, "rb+") as handle:
        end = handle.seek(0, os.SEEK_END)
        start = end
        while start > 0:
            chunk_start = max(0, start - _TAIL_CHUNK)
            handle.seek(chunk_start)
            newline = handle.read(start - chunk_start).rfind(b"\n")
            if newline >= 0:
                start = chunk_start + newline + 1
                break
            start = chunk_start
        if start == end:
            return
        handle.seek(start)
        try:
            json.loads(handle.read())
        except ValueError:
            handle.truncate(start)
        else:
            handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())


def _encode_diff(added: Iterable[Fact], dropped: Iterable[Fact]) -> dict[str, Any]:
    return {
        "add": instance_to_dict(Instance(added)),
        "drop": instance_to_dict(Instance(dropped)),
    }


def _decode_diff(encoded: dict[str, Any]) -> tuple[Instance, Instance]:
    return (
        instance_from_dict(encoded.get("add", {})),
        instance_from_dict(encoded.get("drop", {})),
    )


def _apply(rows: Instance, added: Iterable[Fact], dropped: Iterable[Fact]) -> None:
    for fact in dropped:
        rows.discard(fact)
    for fact in added:
        rows.add(fact)


@dataclass
class JournalState:
    """The durable state recovered from a journal.

    Attributes:
        setting: the PDE setting recorded in the header.
        pinned: the target peer's pinned facts.
        imported: the imported facts as of the last committed round.
        rounds: the last committed round number (0 when no round ever
            committed).
        stamp: the ``(epoch, seq)`` snapshot stamp of the last committed
            stamped round, or None when the session never synced a
            stamped snapshot (see :class:`repro.sync.Stamp`).
        source: the source snapshot the last committed stamped round
            ingested — the base a delta round patches — or None when no
            commit carried a source (the resumed session then reports a
            broken delta chain and the sender falls back to a full
            snapshot).
    """

    setting: PDESetting
    pinned: Instance
    imported: Instance
    rounds: int
    stamp: tuple[int, int] | None = None
    source: Instance | None = None


class SessionJournal:
    """An append-only, fsynced journal for one sync session.

    The object is the file's writer.  Once it has read or written the
    file it keeps the imported facts and retained source of the last
    commit in memory, and commits each round as a diff against them.
    Its methods hold one lock, so a round committing on a worker thread
    and a resume on another thread see the commits in one order.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # (imported, retained source) of the last durable commit, as
        # schema-free row sets; None until the file was read or written.
        self._committed: tuple[Instance, Instance | None] | None = None
        self._lock = threading.Lock()

    def exists(self) -> bool:
        """True when the journal file exists and is non-empty."""
        try:
            return self.path.stat().st_size > 0
        except OSError:
            return False

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def ensure_header(self, setting: PDESetting, pinned: Instance) -> None:
        """Write the header record, unless the file already holds one.

        Returns at once when this object has already read or written the
        file.  On an existing file the first call is the one full read
        (see :meth:`load`), which validates the header and recovers the
        rows later commits diff against.
        """
        with self._lock:
            if self._committed is not None:
                return
            if self.exists():
                self._read()
                return
            append_jsonl(
                self.path,
                {
                    "type": "header",
                    "version": _VERSION,
                    "setting": setting_to_dict(setting),
                    "pinned": instance_to_dict(pinned),
                },
            )
            self._committed = (Instance(), None)

    def record_round(
        self,
        round_number: int,
        imported: Instance,
        stamp: tuple[int, int] | None = None,
        source: Instance | None = None,
    ) -> None:
        """Durably commit one successful round as a diff.

        Called *before* the in-memory session state is updated, so a crash
        between commit and update replays to the committed state.  The
        record holds the ``add`` and ``drop`` rows turning the last
        commit's imported facts into ``imported``, computed here relation
        by relation: egd merges can rewrite facts a round kept, so the
        caller's retractions are not the whole drop set.  When the round
        ingested a stamped snapshot, ``stamp`` rides in the same record, so
        the duplicate-rejection watermark survives a crash atomically with
        the state it protects; ``source`` (the ingested source snapshot)
        rides along as ``add``/``drop`` rows against the retained source,
        keeping the delta-chain base durable with the watermark that
        anchors it.

        If the append fails, the object forgets its rows, so the next
        commit re-reads the file and cuts off a torn tail first.
        """
        with self._lock:
            if self._committed is None:
                self._read()
            assert self._committed is not None
            held_imported, held_source = self._committed
            imported_diff = imported.diff(held_imported)
            record: dict[str, Any] = {
                "type": "commit",
                "round": round_number,
                "imported": _encode_diff(*imported_diff),
            }
            if stamp is not None:
                record["stamp"] = [int(stamp[0]), int(stamp[1])]
            if source is not None:
                if held_source is None:
                    held_source = Instance()
                source_diff = source.diff(held_source)
                record["source"] = _encode_diff(*source_diff)
            try:
                append_jsonl(self.path, record)
            except BaseException:
                self._committed = None
                raise
            _apply(held_imported, *imported_diff)
            if source is not None:
                _apply(held_source, *source_diff)
            self._committed = (held_imported, held_source)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def load(self) -> JournalState:
        """Recover the durable session state by folding the commits.

        Every call is a full read: it checks the header, applies each
        commit's ``drop`` then ``add`` rows in order, builds each
        recovered instance once, cuts off a torn final append, and resets
        the rows later commits diff against.  The stamp and the retained
        source are sticky: an unstamped commit carries neither, and leaves
        the last ones in place.
        """
        with self._lock:
            return self._read()

    def _read(self) -> JournalState:
        records = read_jsonl_tolerant(
            self.path, label="sync journal", error=JournalError
        )
        if not records or records[0].get("type") != "header":
            raise JournalError(f"sync journal {self.path} has no header record")
        header = records[0]
        version = header.get("version")
        if version != _VERSION:
            detail = " (it predates diff commits)" if version == 1 else ""
            raise JournalError(
                f"sync journal {self.path} has unsupported version "
                f"{version!r}{detail}"
            )
        try:
            setting = setting_from_dict(header["setting"])
        except Exception as error:  # noqa: BLE001 - wrap any decode failure
            raise JournalError(
                f"sync journal {self.path} header holds an unloadable setting: "
                f"{error}"
            )
        pinned = instance_from_dict(
            header.get("pinned", {}), schema=setting.target_schema
        )
        imported = Instance()
        source: Instance | None = None
        rounds = 0
        stamp: tuple[int, int] | None = None
        for record in records[1:]:
            if record.get("type") != "commit":
                continue
            _apply(imported, *_decode_diff(record.get("imported", {})))
            rounds = int(record.get("round", rounds))
            raw_stamp = record.get("stamp")
            if raw_stamp is not None:
                stamp = (int(raw_stamp[0]), int(raw_stamp[1]))
            raw_source = record.get("source")
            if raw_source is not None:
                if source is None:
                    source = Instance()
                _apply(source, *_decode_diff(raw_source))
        _seal_tail(self.path)
        self._committed = (imported, source)
        return JournalState(
            setting=setting,
            pinned=pinned,
            imported=Instance(imported, schema=setting.target_schema),
            rounds=rounds,
            stamp=stamp,
            source=(
                Instance(source, schema=setting.source_schema)
                if source is not None
                else None
            ),
        )
