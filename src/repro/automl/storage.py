"""SQLite-backed persistence for studies and trials.

The paper's tune service is long-lived: studies survive server restarts and
can be listed and resumed.  :class:`StudyStorage` provides that durability on
a single SQLite file (stdlib ``sqlite3``, no extra dependency):

* ``studies`` holds one row per study — its name, algorithm, lifecycle status
  and the full checkpoint payload (:meth:`repro.automl.study.Study.state_payload`)
  minus the trial history,
* ``trials`` holds one row per trial, normalised so completed work can be
  queried (best value, state counts) without deserialising whole studies.

A running tune job reaches this file through one path: its dispatch loop's
checkpoint calls :meth:`save_study` after every round or consumed budget
slot, and the server writes the job's status at enqueue, start and finish.
Writes are transactional and serialised under an internal lock, so the tune
server's concurrent job dispatcher threads can checkpoint different studies
into the same storage.  File-backed databases run in SQLite's WAL journal
mode, so readers (e.g. the ``python -m repro.automl.cli`` inspection
commands) never block behind a checkpointing writer.  A study reloaded via
:meth:`load_study` in a fresh process resumes with only its remaining trial
budget; a study cancelled via the server keeps its ``cancelled`` status and
CANCELLED trial rows, and can be resumed or deleted later.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.automl.algorithms.base import SearchAlgorithm
from repro.automl.pruners import Pruner
from repro.automl.search_space import SearchSpace
from repro.automl.study import Study, StudyConfig
from repro.exceptions import TrialError
from repro.utils.rng import new_rng
from repro.utils.serialization import json_default

__all__ = ["StudyStorage"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS studies (
    name        TEXT PRIMARY KEY,
    algorithm   TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'running',
    maximize    INTEGER NOT NULL DEFAULT 1,
    payload     TEXT NOT NULL,
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    study_name       TEXT NOT NULL,
    trial_id         INTEGER NOT NULL,
    state            TEXT NOT NULL,
    value            REAL,
    duration_seconds REAL,
    worker           TEXT,
    error            TEXT,
    record           TEXT NOT NULL,
    PRIMARY KEY (study_name, trial_id)
);
"""


class StudyStorage:
    """Persist studies/trials in a SQLite database (one file = one service).

    File-backed storage also owns the durable per-job
    :class:`~repro.automl.eventlog.EventLog` (default location: a sibling
    ``<path>.events`` directory), so "one file = one service" extends to the
    event history a restarted server needs for replay and crash recovery.
    The log is created lazily on first use of :attr:`event_log`; in-memory
    storage has no event log unless ``events_dir`` is given explicitly.
    """

    def __init__(self, path: str = ":memory:",
                 events_dir: Optional[str] = None) -> None:
        self.path = str(path)
        if events_dir is None and self.path != ":memory:":
            events_dir = self.path + ".events"
        self.events_dir = events_dir
        self._event_log = None
        # One shared connection guarded by a lock: the server checkpoints
        # studies from its dispatcher threads, not just the creating thread.
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        # WAL lets concurrent readers (CLI `list`/`show`, a second server
        # process) proceed while a dispatcher thread checkpoints; with it,
        # synchronous=NORMAL keeps durability at a fraction of the fsyncs.
        # In-memory databases silently keep their own journal mode.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._lock = threading.RLock()
        # Last-persisted trial state per study, so frequent checkpoints don't
        # re-read the full trial table to find what changed.
        self._persisted: Dict[str, Dict[int, str]] = {}
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # Event log
    # ------------------------------------------------------------------ #
    @property
    def event_log(self):
        """The storage's durable :class:`~repro.automl.eventlog.EventLog`.

        Created (directory and all) on first access; None when the storage
        has no events directory (in-memory storage without an explicit
        ``events_dir``).
        """
        if self._event_log is None and self.events_dir is not None:
            from repro.automl.eventlog import EventLog
            self._event_log = EventLog(self.events_dir)
        return self._event_log

    def _existing_event_log(self):
        """The event log only if its directory already exists (no create).

        ``delete_study``/``gc`` use this: cleaning up rows must not
        materialise an empty events directory as a side effect.
        """
        import os
        if self._event_log is not None:
            return self._event_log
        if self.events_dir is not None and os.path.isdir(self.events_dir):
            return self.event_log
        return None

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def save_study(self, name: str, study: Study, status: str = "running") -> None:
        """Upsert the study row and its trial rows (one transaction).

        Trial rows are written incrementally: a record is (re)written only if
        its state differs from the stored row, so frequent checkpoints (the
        async scheduler saves after every trial) stay proportional to the new
        work, not the full history.
        """
        payload = study.state_payload()
        trials = payload.pop("trials")
        payload_json = json.dumps(payload, sort_keys=True, default=json_default)
        now = time.time()
        maximize = 1 if payload["config"].get("maximize", True) else 0
        with self._lock:
            self._conn.execute(
                "INSERT INTO studies (name, algorithm, status, maximize, payload, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "algorithm=excluded.algorithm, status=excluded.status, "
                "maximize=excluded.maximize, payload=excluded.payload, "
                "updated_at=excluded.updated_at",
                (name, str(payload["algorithm"]), status, maximize, payload_json,
                 now, now))
            existing = self._persisted_states(name)
            changed = [record for record in trials
                       if existing.get(record["trial_id"]) != record["state"]]
            self._upsert_trial_rows(name, changed)
            # Rows no longer in the history (in-flight trials dropped by a
            # resume) must not linger as zombies.
            stale = set(existing) - {record["trial_id"] for record in trials}
            self._conn.executemany(
                "DELETE FROM trials WHERE study_name = ? AND trial_id = ?",
                [(name, trial_id) for trial_id in stale])
            self._conn.commit()
            self._persisted[name] = {record["trial_id"]: record["state"]
                                     for record in trials}

    def _persisted_states(self, name: str) -> Dict[int, str]:
        """The last-persisted trial states cache, primed from the table.

        Caller holds ``self._lock``.  The prime keeps pre-existing rows
        (e.g. a resumed study's history) visible as candidates for
        stale-row cleanup on the next full save.
        """
        states = self._persisted.get(name)
        if states is None:
            states = self._persisted[name] = dict(self._conn.execute(
                "SELECT trial_id, state FROM trials WHERE study_name = ?",
                (name,)).fetchall())
        return states

    def _upsert_trial_rows(self, name: str,
                           records: List[Dict[str, object]]) -> None:
        """Write trial rows (caller holds ``self._lock``; no commit)."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO trials (study_name, trial_id, state, "
            "value, duration_seconds, worker, error, record) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [(name, record["trial_id"], record["state"], record["value"],
              record["duration_seconds"], record["worker"], record["error"],
              json.dumps(record, sort_keys=True, default=json_default))
             for record in records])

    def record_trial(self, name: str, record: Dict[str, object]) -> None:
        """Upsert one trial row from a trial record.

        Nothing in the service calls this: a running job's rows land through
        :meth:`save_study`.  It exists only because ``perfbench/tune_server.py``
        wraps it by name for its ``storage.checkpoint`` span.  The
        incremental-save cache is updated so a later :meth:`save_study` does
        not rewrite the row.

        Args:
            name: the owning study.
            record: a :meth:`~repro.automl.trial.Trial.as_record` snapshot.
        """
        with self._lock:
            self._upsert_trial_rows(name, [record])
            self._conn.commit()
            self._persisted_states(name)[record["trial_id"]] = record["state"]

    def set_status(self, name: str, status: str) -> None:
        """Update only a study's lifecycle status column.

        Args:
            name: the stored study.
            status: the new status string (a :class:`~repro.automl.server.JobState`
                value).

        Raises:
            TrialError: unknown study name.
        """
        with self._lock:
            updated = self._conn.execute(
                "UPDATE studies SET status = ?, updated_at = ? WHERE name = ?",
                (status, time.time(), name)).rowcount
            self._conn.commit()
        if not updated:
            raise TrialError(f"unknown study {name!r}")

    def delete_study(self, name: str) -> None:
        """Delete a study, its trial rows and its event-log history.

        Args:
            name: the stored study.

        Raises:
            TrialError: unknown study name.
        """
        with self._lock:
            self._conn.execute("DELETE FROM trials WHERE study_name = ?", (name,))
            deleted = self._conn.execute(
                "DELETE FROM studies WHERE name = ?", (name,)).rowcount
            self._conn.commit()
            self._persisted.pop(name, None)
        if not deleted:
            raise TrialError(f"unknown study {name!r}")
        log = self._existing_event_log()
        if log is not None:
            log.remove_study(name)

    # Terminal job statuses eligible for garbage collection by default: a
    # queued/running study belongs to a (possibly live) server and is never
    # collected unless explicitly requested.
    GC_DEFAULT_STATES = ("completed", "failed", "cancelled")

    def gc(self, max_age_days: float = 30.0,
           states: Optional[Sequence[str]] = None,
           dry_run: bool = False,
           names: Optional[Sequence[str]] = None) -> List[str]:
        """Delete stored studies that are old *and* in a collectable status.

        A study is collected when its ``updated_at`` is older than
        ``max_age_days`` and its status is one of ``states`` (default: the
        terminal statuses — ``completed``, ``failed``, ``cancelled``).  Each
        collected study's trial rows go with it, in one transaction.

        Args:
            max_age_days: minimum age (since last update) in days; 0 collects
                every study in a matching status.
            states: statuses eligible for collection (defaults to
                :data:`GC_DEFAULT_STATES`).
            dry_run: when True, only report what *would* be deleted.
            names: restrict collection to these studies.  The age/status
                predicate still applies — this is how a confirm-then-delete
                flow (the CLI) avoids deleting studies that crossed the age
                cutoff, or were resumed back to ``running``, after the
                preview.

        Returns:
            The names of the deleted (or, under ``dry_run``, deletable)
            studies, oldest first.

        Raises:
            ValueError: for a negative ``max_age_days`` or empty ``states``.
        """
        if max_age_days < 0:
            raise ValueError("max_age_days must be >= 0")
        eligible = (self.GC_DEFAULT_STATES if states is None
                    else tuple(states))
        if not eligible:
            raise ValueError("states must not be empty")
        cutoff = time.time() - max_age_days * 86400.0
        placeholders = ",".join("?" for _ in eligible)
        with self._lock:
            rows = self._conn.execute(
                f"SELECT name FROM studies WHERE updated_at <= ? "
                f"AND status IN ({placeholders}) ORDER BY updated_at",
                (cutoff, *eligible)).fetchall()
            names_filter = None if names is None else set(names)
            names = [row["name"] for row in rows
                     if names_filter is None or row["name"] in names_filter]
            if dry_run or not names:
                return names
            # Chunked IN-lists: stock sqlite3 builds cap host variables at
            # 999, and gc fires exactly when the backlog is largest.  All
            # chunks share one transaction (single commit below).
            for start in range(0, len(names), 500):
                chunk = names[start:start + 500]
                slots = ",".join("?" for _ in chunk)
                self._conn.execute(
                    f"DELETE FROM trials WHERE study_name IN ({slots})", chunk)
                self._conn.execute(
                    f"DELETE FROM studies WHERE name IN ({slots})", chunk)
            self._conn.commit()
            for name in names:
                self._persisted.pop(name, None)
        log = self._existing_event_log()
        if log is not None:
            for name in names:
                log.remove_study(name)
        return names

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def list_studies(self) -> List[Dict[str, object]]:
        """Summaries of every stored study (no payload deserialisation).

        ``best_value`` honours the study's optimisation direction: the max
        completed value for maximize studies, the min for minimize ones.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT s.name, s.algorithm, s.status, s.maximize, "
                "       s.created_at, s.updated_at, "
                "       COUNT(t.trial_id) AS num_trials, "
                "       SUM(CASE WHEN t.state = 'completed' THEN 1 ELSE 0 END) AS completed, "
                "       CASE WHEN s.maximize "
                "            THEN MAX(CASE WHEN t.state = 'completed' THEN t.value END) "
                "            ELSE MIN(CASE WHEN t.state = 'completed' THEN t.value END) "
                "       END AS best_value "
                "FROM studies s LEFT JOIN trials t ON t.study_name = s.name "
                "GROUP BY s.name ORDER BY s.created_at").fetchall()
        return [dict(row, maximize=bool(row["maximize"])) for row in rows]

    def study_exists(self, name: str) -> bool:
        """Whether a study row with ``name`` is stored."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM studies WHERE name = ?", (name,)).fetchone()
        return row is not None

    def study_status(self, name: str) -> Optional[str]:
        """The stored lifecycle status of ``name``, or None when unknown.

        Crash recovery's first question per logged job: does the row still
        exist, and did the last status write land before the crash?
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT status FROM studies WHERE name = ?", (name,)).fetchone()
        return None if row is None else row["status"]

    def study_summary(self, name: str) -> Optional[Dict[str, object]]:
        """One :meth:`list_studies`-style summary row, or None when unknown."""
        for row in self.list_studies():
            if row["name"] == name:
                return row
        return None

    def trial_state_counts(self, name: str) -> Dict[str, int]:
        """Stored trial rows of ``name`` grouped by state (empty if none)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM trials "
                "WHERE study_name = ? GROUP BY state", (name,)).fetchall()
        return {row["state"]: row["n"] for row in rows}

    def load_payload(self, name: str) -> Dict[str, object]:
        """The raw checkpoint payload of a stored study (trials re-attached)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM studies WHERE name = ?", (name,)).fetchone()
            if row is None:
                raise TrialError(f"unknown study {name!r}")
            trial_rows = self._conn.execute(
                "SELECT record FROM trials WHERE study_name = ? ORDER BY trial_id",
                (name,)).fetchall()
        payload = json.loads(row["payload"])
        payload["trials"] = [json.loads(r["record"]) for r in trial_rows]
        return payload

    def load_study(self, name: str, space: SearchSpace,
                   algorithm: Optional[SearchAlgorithm] = None,
                   pruner: Optional[Pruner] = None,
                   rng: Optional[np.random.Generator] = None) -> Study:
        """Rebuild a stored study so the next ``optimize`` runs the remainder.

        ``space`` (and a matching ``algorithm``/``pruner``, when the original
        run used non-defaults) must be supplied by the caller — code is not
        persisted, only state.
        """
        payload = self.load_payload(name)
        config = StudyConfig(**payload["config"])
        study = Study(space, algorithm=algorithm, config=config, pruner=pruner,
                      rng=new_rng(rng if rng is not None else 0))
        return study.load_state_payload(payload)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the SQLite connection and the event log, if one was opened."""
        if self._event_log is not None:
            self._event_log.close()
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "StudyStorage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
