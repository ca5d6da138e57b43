"""Crash-safe persistence of the admission flow table.

The server journals every *committed* mutation write-ahead into an
append-only ``journal.jsonl`` (one JSON object per line, each carrying a
monotonically increasing ``seq``), and periodically folds the journal
into an atomic ``checkpoint.json`` written with the temp-file +
``os.replace`` pattern — the same discipline the result store uses, so a
reader can never observe a half-written checkpoint.

Recovery composes the two: load the checkpoint's flow table, then replay
every journal operation with ``seq`` greater than the checkpoint's.
Unparseable journal lines — the torn tail a SIGKILL mid-append leaves
behind, or an injected ``journal-torn`` fault — are skipped and counted,
never fatal: everything *before* the torn line was durable, and the torn
operation never got its response out, so dropping it is exactly the
at-most-once semantics a client observes from a crashed server.

The write path runs under the deterministic fault hooks of
:mod:`repro.exec.faults`: ``journal-eio`` turns one append into an
``OSError`` (the server answers 500 and does **not** apply the
mutation), ``journal-torn`` truncates one record on disk while the
in-memory state moves on — the recovery test then proves the replay
skips it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.exec.faults import corrupt_journal_line, journal_fault

__all__ = ["AdmissionJournal", "JournalState"]

_JOURNAL_NAME = "journal.jsonl"
_CHECKPOINT_NAME = "checkpoint.json"


@dataclass(frozen=True)
class JournalState:
    """What :meth:`AdmissionJournal.recover` found on disk.

    ``flows`` is the checkpointed flow table (payload dicts, insertion
    order); ``operations`` the journal tail to replay on top of it.
    """

    flows: tuple[dict, ...] = ()
    operations: tuple[dict, ...] = ()
    #: ``seq`` the checkpoint folded up to (0 = no checkpoint).
    checkpoint_seq: int = 0
    #: Highest ``seq`` seen anywhere (the journal resumes after it).
    last_seq: int = 0
    #: Unparseable journal lines skipped during replay (torn tail).
    corrupt_lines: int = 0
    #: True when a checkpoint file existed but could not be parsed.
    corrupt_checkpoint: bool = False

    @property
    def empty(self) -> bool:
        """True when there was no recoverable state at all."""
        return not self.flows and not self.operations


class AdmissionJournal:
    """Write-ahead journal + atomic checkpoints under one directory.

    Parameters
    ----------
    root:
        Directory holding ``journal.jsonl`` and ``checkpoint.json``
        (created on first use).
    fsync:
        Push every append and checkpoint to stable storage before
        reporting it done.  Without it the journal still survives a
        process SIGKILL (the write reached the kernel), just not a
        power loss — the same opt-in contract as the result store.
    checkpoint_every:
        Fold the journal into a checkpoint after this many appends
        (0 disables automatic checkpoints).
    """

    def __init__(self, root: str | Path, *, fsync: bool = False,
                 checkpoint_every: int = 256) -> None:
        self.root = Path(root)
        self.fsync = bool(fsync)
        self.checkpoint_every = int(checkpoint_every)
        self._seq = 0
        self._since_checkpoint = 0
        self._handle = None

    # -- paths ---------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        """The append-only operation log."""
        return self.root / _JOURNAL_NAME

    @property
    def checkpoint_path(self) -> Path:
        """The atomically replaced checkpoint."""
        return self.root / _CHECKPOINT_NAME

    # -- write path ----------------------------------------------------------

    def _open(self):
        if self._handle is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.journal_path, "a", encoding="utf-8")
        return self._handle

    def append(self, operation: dict) -> int:
        """Journal one committed mutation; returns its ``seq``.

        Write-ahead contract: callers append *before* applying the
        mutation to the engine, and abort the mutation if the append
        raises (``journal-eio`` injects exactly that ``OSError``).
        """
        seq = self._seq + 1
        record = {"seq": seq}
        record.update(operation)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        journal_fault()  # injected EIO fires before anything is written
        handle = self._open()
        handle.write(corrupt_journal_line(line) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._seq = seq
        self._since_checkpoint += 1
        return seq

    def maybe_checkpoint(self, flows: Callable[[], list[dict]]) -> bool:
        """Checkpoint when enough appends accumulated; returns True if so.

        ``flows`` builds the flow table and is called only when a
        checkpoint is due.
        """
        if not self.checkpoint_every \
                or self._since_checkpoint < self.checkpoint_every:
            return False
        self.checkpoint(flows())
        return True

    def checkpoint(self, flows: list[dict]) -> None:
        """Fold the current flow table into an atomic checkpoint.

        The checkpoint is published with ``os.replace`` first; only then
        is the journal compacted (truncated).  A crash between the two
        steps merely leaves journal entries the next recovery filters
        out by ``seq`` — never a window where state is lost.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"seq": self._seq, "flows": list(flows)}
        tmp = self.checkpoint_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True,
                      separators=(",", ":"))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.checkpoint_path)
        # Compact: atomically swap in an empty journal.  Entries <= seq
        # are subsumed by the checkpoint just published.
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        tmp_journal = self.journal_path.with_suffix(".tmp")
        with open(tmp_journal, "w", encoding="utf-8") as handle:
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_journal, self.journal_path)
        self._since_checkpoint = 0

    def close(self) -> None:
        """Close the journal file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- recovery ------------------------------------------------------------

    def recover(self) -> JournalState:
        """Read checkpoint + journal tail; resume ``seq`` numbering.

        Never raises on corrupt state: a broken checkpoint is ignored
        (and flagged), broken journal lines are skipped and counted.
        """
        flows: tuple[dict, ...] = ()
        checkpoint_seq = 0
        corrupt_checkpoint = False
        if self.checkpoint_path.exists():
            try:
                payload = json.loads(
                    self.checkpoint_path.read_text(encoding="utf-8"))
                flows = tuple(payload["flows"])
                checkpoint_seq = int(payload["seq"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OSError):
                corrupt_checkpoint = True
        operations: list[dict] = []
        corrupt_lines = 0
        last_seq = checkpoint_seq
        if self.journal_path.exists():
            try:
                text = self.journal_path.read_text(encoding="utf-8")
            except OSError:
                text = ""
                corrupt_lines += 1
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    seq = int(record.pop("seq"))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    corrupt_lines += 1
                    continue
                last_seq = max(last_seq, seq)
                if seq > checkpoint_seq:
                    operations.append(record)
        self._seq = last_seq
        self._since_checkpoint = len(operations)
        return JournalState(flows=flows, operations=tuple(operations),
                            checkpoint_seq=checkpoint_seq,
                            last_seq=last_seq,
                            corrupt_lines=corrupt_lines,
                            corrupt_checkpoint=corrupt_checkpoint)
