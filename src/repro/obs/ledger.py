"""Persistent run ledger: the parent's event writer, live fold, and
tail/list readers.

A *run directory* holds everything one survey invocation produced,
readable while the run is still in flight:

* ``ledger.jsonl`` — the time-ordered event log (what ``repro tail``
  replays).  :class:`RunTelemetry`, owned by the executor parent, is its
  only writer: one JSON object per line, flushed per event;
* ``metrics.jsonl`` — periodic progress rows (throughput time-series);
* ``profile.jsonl`` — per-sample hot-path profiles (``survey --profile``);
* ``manifest.json`` — run id, config fingerprint, population size, status
  (``running`` → ``finished``) and final outcome counts; rewritten
  atomically so concurrent readers never see a torn file.

Event grammar (DESIGN.md §12): ``run.started`` / ``run.finished`` bracket
the run; per sample the lifecycle is ``cache.hit`` *or* one
``sample.started`` per attempt, optionally ``sample.timeout`` /
``sample.retry`` between attempts, and exactly one terminal
``sample.completed`` (preceded by the sample's ``sample.phase`` events,
one per executed stage) or ``sample.failed``.

All readers tolerate a partial trailing line (a killed writer's last
event): only bytes up to the final newline are consumed, the remainder is
re-read on the next poll.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, TextIO, Tuple, Union

LEDGER_NAME = "ledger.jsonl"
MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
PROFILE_NAME = "profile.jsonl"
MANIFEST_VERSION = 1
#: Minimum seconds between two ``metrics.jsonl`` rows.
METRICS_INTERVAL = 1.0


# ---------------------------------------------------------------------------
# low-level file helpers
# ---------------------------------------------------------------------------


def _read_complete_lines(path: Path, offset: int) -> Tuple[List[bytes], int]:
    """Bytes-safe incremental read: the complete lines appended since
    ``offset`` and the new offset.  A trailing line with no newline yet is
    left for the next call — a writer may be mid-``write``."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            chunk = fh.read()
    except OSError:
        return [], offset
    if not chunk:
        return [], offset
    end = chunk.rfind(b"\n")
    if end < 0:
        return [], offset
    complete = chunk[: end + 1]
    return complete.splitlines(), offset + len(complete)


def _parse_events(lines: List[bytes]) -> List[dict]:
    """Decode JSONL lines; malformed *complete* lines are dropped (a torn
    write from a process killed mid-line)."""
    events: List[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line.decode("utf-8", "replace"))
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


def _write_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    tmp.replace(path)


def pid_alive(pid: int) -> bool:
    """Does process ``pid`` exist (ours or another user's)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM) — leave its files alone
    return True


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def read_manifest(run_dir: Union[str, os.PathLike]) -> dict:
    """The run's manifest; raises :class:`ValueError` (with file and
    reason) when missing or corrupt — ``SystemExit``-friendly for the CLI."""
    path = Path(run_dir) / MANIFEST_NAME
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: not a run directory ({exc})") from None
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt run manifest ({exc})") from None
    if not isinstance(data, dict) or "run_id" not in data:
        raise ValueError(f"{path}: not a repro run manifest")
    return data


def manifest_status(manifest: dict) -> str:
    """``running`` / ``finished`` — plus ``stale`` when the recorded parent
    pid is gone but the manifest never flipped (a killed survey)."""
    status = str(manifest.get("status", "unknown"))
    if status == "running":
        pid = manifest.get("pid")
        if isinstance(pid, int) and not pid_alive(pid):
            return "stale"
    return status


def list_runs(root: Union[str, os.PathLike]) -> List[dict]:
    """Manifests of every run directory directly under ``root`` (oldest
    first).  Unreadable manifests are skipped — a listing should never die
    on one corrupt run."""
    root = Path(root)
    out: List[dict] = []
    candidates = [root] if (root / MANIFEST_NAME).exists() else sorted(root.glob("*"))
    for entry in candidates:
        if not (entry / MANIFEST_NAME).is_file():
            continue
        try:
            manifest = read_manifest(entry)
        except ValueError:
            continue
        manifest["_path"] = str(entry)
        out.append(manifest)
    out.sort(key=lambda m: m.get("started_unix", 0.0))
    return out


# ---------------------------------------------------------------------------
# fold: running aggregates over the event stream
# ---------------------------------------------------------------------------


class LedgerFold:
    """Counts and rates derived from the events seen so far — the state
    behind the ``--progress`` view and the periodic metrics rows.

    Two clocks, deliberately: ``started_unix`` is *wall* time (it labels
    the run for humans and the manifest), but elapsed time behind
    ``rate``/``eta_seconds`` is measured on ``clock`` — ``time.monotonic``
    by default — so an NTP step or a manual clock change mid-run cannot
    produce negative or wildly wrong throughput.  Passing an explicit
    ``now=`` to the derived views bypasses the monotonic clock and computes
    against ``started_unix`` on the caller's timeline (the deterministic
    path tests use)."""

    def __init__(
        self,
        population: int = 0,
        started_unix: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        self.population = population
        self.started_unix = started_unix if started_unix is not None else time.time()
        self._clock = clock
        self._started_mono = clock()
        self.completed = 0
        self.failed = 0
        self.retries = 0
        self.timeouts = 0
        self.cache_hits = 0
        self.events_seen = 0
        self.active: Set[object] = set()
        self.retrying: Set[object] = set()
        self._terminal: Set[object] = set()
        #: phase name -> [count, total seconds, max seconds]
        self.phases: Dict[str, List[float]] = {}

    # -- folding -----------------------------------------------------------

    def apply(self, event: dict) -> None:
        self.events_seen += 1
        kind = event.get("kind")
        key = event.get("index", event.get("sample"))
        if kind == "sample.started":
            self.active.add(key)
            self.retrying.discard(key)
        elif kind == "sample.phase":
            name = str(event.get("phase", "?"))
            seconds = float(event.get("seconds", 0.0) or 0.0)
            stat = self.phases.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += seconds
            stat[2] = max(stat[2], seconds)
        elif kind == "sample.retry":
            self.retries += 1
            self.retrying.add(key)
            self.active.discard(key)
        elif kind == "sample.timeout":
            self.timeouts += 1
        elif kind == "cache.hit":
            self.cache_hits += 1
        elif kind == "sample.completed":
            if key not in self._terminal:
                self._terminal.add(key)
                self.completed += 1
            self.active.discard(key)
            self.retrying.discard(key)
        elif kind == "sample.failed":
            if key not in self._terminal:
                self._terminal.add(key)
                self.failed += 1
            self.active.discard(key)
            self.retrying.discard(key)

    # -- derived views -----------------------------------------------------

    @property
    def done(self) -> int:
        return self.completed + self.failed

    @property
    def queued(self) -> int:
        return max(
            0, self.population - self.done - len(self.active) - len(self.retrying)
        )

    def elapsed(self, now: Optional[float] = None) -> float:
        """Seconds since the fold started: monotonic by default, or
        ``now - started_unix`` when the caller supplies its own timeline."""
        if now is not None:
            return now - self.started_unix
        return self._clock() - self._started_mono

    def rate(self, now: Optional[float] = None) -> float:
        elapsed = self.elapsed(now)
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        rate = self.rate(now)
        if rate <= 0 or self.population <= 0:
            return None
        return max(0.0, (self.population - self.done) / rate)

    def metrics_row(self, now: Optional[float] = None) -> dict:
        # The "t" column is a wall-clock timestamp (readers correlate rows
        # with ledger events and manifests); the rate is monotonic-based
        # unless the caller pinned its own timeline via ``now``.
        t = now if now is not None else time.time()
        return {
            "t": t,
            "done": self.done,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "active": len(self.active),
            "retrying": len(self.retrying),
            "queued": self.queued,
            "rate_per_s": round(self.rate(now), 3),
        }

    def phase_summary(self, limit: int = 4) -> str:
        """Compact mean-latency digest of the hottest phases."""
        rows = sorted(self.phases.items(), key=lambda kv: kv[1][1], reverse=True)
        parts = [
            f"{name} {1000.0 * total / count:.0f}ms"
            for name, (count, total, _mx) in rows[:limit]
            if count
        ]
        return " ".join(parts)

    def progress_line(self, now: Optional[float] = None) -> str:
        eta = self.eta_seconds(now)
        eta_text = _fmt_duration(eta) if eta is not None else "?"
        line = (
            f"{self.done}/{self.population or '?'} done "
            f"({self.completed} ok, {self.failed} failed) | "
            f"active {len(self.active)} retrying {len(self.retrying)} "
            f"queued {self.queued} | {self.rate(now):.1f}/s eta {eta_text}"
        )
        if self.cache_hits:
            line += f" | cache {self.cache_hits}"
        phases = self.phase_summary()
        if phases:
            line += f" | {phases}"
        return line


def _fmt_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


# ---------------------------------------------------------------------------
# progress view
# ---------------------------------------------------------------------------


class ProgressView:
    """Renders a :class:`LedgerFold` live: a rewritten status line on a TTY,
    periodic plain log lines otherwise."""

    def __init__(
        self, out: Optional[TextIO] = None, interval: Optional[float] = None
    ) -> None:
        self.out = out if out is not None else sys.stderr
        isatty = getattr(self.out, "isatty", None)
        self.tty = bool(isatty and isatty())
        self.interval = interval if interval is not None else (0.1 if self.tty else 5.0)
        self._last = 0.0
        self._width = 0

    def update(self, fold: LedgerFold, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        line = fold.progress_line()
        if self.tty:
            padded = line.ljust(self._width)
            self._width = len(line)
            self.out.write("\r" + padded)
        else:
            self.out.write(line + "\n")
        self.out.flush()

    def close(self, fold: LedgerFold) -> None:
        self.update(fold, force=True)
        if self.tty:
            self.out.write("\n")
            self.out.flush()


# ---------------------------------------------------------------------------
# run telemetry: the ledger's writer
# ---------------------------------------------------------------------------


class RunTelemetry:
    """One run's telemetry session, owned by the executor parent: the only
    writer of the ledger, the metrics time-series and the manifest."""

    def __init__(
        self,
        run_dir: Path,
        manifest: dict,
        fold: LedgerFold,
        progress: Optional[ProgressView] = None,
        clock=time.monotonic,
    ) -> None:
        self.run_dir = run_dir
        self.manifest = manifest
        self.fold = fold
        self.progress = progress
        self._ledger_fh = open(run_dir / LEDGER_NAME, "a", encoding="utf-8")
        # Pacing and the final duration run on the monotonic clock; the
        # manifest's started/finished timestamps stay wall-clock.
        self._clock = clock
        self._started_mono = clock()
        self._metrics_last = 0.0
        self._finished = False

    @classmethod
    def begin(
        cls,
        run_dir: Union[str, os.PathLike],
        population: int,
        config_fingerprint: str = "",
        run_id: Optional[str] = None,
        progress: Optional[ProgressView] = None,
    ) -> "RunTelemetry":
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        run_id = run_id or time.strftime("run-%Y%m%d-%H%M%S-") + str(os.getpid())
        manifest = {
            "version": MANIFEST_VERSION,
            "run_id": run_id,
            "status": "running",
            "population": population,
            "config_fingerprint": config_fingerprint,
            "started_unix": started,
            "pid": os.getpid(),
        }
        _write_atomic(run_dir / MANIFEST_NAME, manifest)
        fold = LedgerFold(population=population, started_unix=started)
        telemetry = cls(run_dir, manifest, fold, progress=progress)
        telemetry.emit("run.started", run_id=run_id, population=population)
        return telemetry

    def emit(self, kind: str, **attrs: object) -> None:
        """Append one event to the ledger and fold it.  One write + flush
        per event, so a killed survey leaves at most one partial line."""
        event: Dict[str, object] = {"t": time.time(), "kind": kind}
        event.update(attrs)
        try:
            self._ledger_fh.write(json.dumps(event, default=repr) + "\n")
            self._ledger_fh.flush()
        except (OSError, ValueError):
            # Telemetry must never kill a survey (full disk, closed fd).
            pass
        self.fold.apply(event)

    def refresh(self) -> None:
        """Append a metrics row (at most every :data:`METRICS_INTERVAL`
        seconds) and redraw the progress view."""
        now = self._clock()
        if now - self._metrics_last >= METRICS_INTERVAL:
            self._metrics_last = now
            self._append_metrics_row()
        if self.progress is not None:
            self.progress.update(self.fold)

    def _append_metrics_row(self) -> None:
        try:
            with open(self.run_dir / METRICS_NAME, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(self.fold.metrics_row()) + "\n")
        except OSError:  # pragma: no cover - telemetry never kills the run
            pass

    def record_profile(self, payload: dict) -> None:
        """Append one hot-path profile row (``profile.jsonl``, next to the
        ledger): per-sample deltas as the survey progresses, one merged
        ``run.profile`` row at the end.  Best-effort like the metrics tail —
        telemetry never kills the run."""
        try:
            with open(self.run_dir / PROFILE_NAME, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(payload) + "\n")
        except OSError:  # pragma: no cover - telemetry never kills the run
            pass

    def finish(self, outcomes: Optional[Dict[str, int]] = None) -> dict:
        """Final event and metrics row, ledger close, manifest flip to
        ``finished``.  Idempotent — a second call returns the finished
        manifest."""
        if self._finished:
            return self.manifest
        self._finished = True
        self.emit(
            "run.finished",
            run_id=self.manifest["run_id"],
            completed=self.fold.completed if outcomes is None else outcomes.get("completed"),
            failed=self.fold.failed if outcomes is None else outcomes.get("failed"),
        )
        self._append_metrics_row()
        try:
            self._ledger_fh.close()
        except OSError:  # pragma: no cover - best effort by contract
            pass
        finished = time.time()
        self.manifest.update(
            status="finished",
            finished_unix=finished,
            # Monotonic-clock duration: a wall-clock step mid-run changes
            # the timestamps above, never the measured duration.
            duration_seconds=round(self._clock() - self._started_mono, 3),
            outcomes={
                "completed": self.fold.completed,
                "failed": self.fold.failed,
                "retries": self.fold.retries,
                "timeouts": self.fold.timeouts,
                "cache_hits": self.fold.cache_hits,
                "events": self.fold.events_seen,
            },
        )
        if outcomes:
            # The executor's PopulationResult is the authority; disagreement
            # would mean a lost or duplicated terminal event.
            self.manifest["outcomes"].update(
                {k: v for k, v in outcomes.items() if v is not None}
            )
        _write_atomic(self.run_dir / MANIFEST_NAME, self.manifest)
        if self.progress is not None:
            self.progress.close(self.fold)
        return self.manifest


# ---------------------------------------------------------------------------
# readers: tail + rendering
# ---------------------------------------------------------------------------


def read_ledger(run_dir: Union[str, os.PathLike]) -> List[dict]:
    """Every complete event currently in the ledger (partial trailing line
    tolerated)."""
    return list(iter_ledger(run_dir, follow=False))


def iter_ledger(
    run_dir: Union[str, os.PathLike],
    follow: bool = False,
    poll_seconds: float = 0.2,
    timeout: Optional[float] = None,
) -> Iterator[dict]:
    """Yield ledger events in file order.  With ``follow``, keep polling for
    new events until the manifest leaves ``running`` (or the writing
    process dies, or ``timeout`` elapses)."""
    run_dir = Path(run_dir)
    path = run_dir / LEDGER_NAME
    offset = 0
    deadline = time.monotonic() + timeout if timeout is not None else None
    while True:
        lines, offset = _read_complete_lines(path, offset)
        events = _parse_events(lines)
        for event in events:
            yield event
        if not follow:
            return
        try:
            status = manifest_status(read_manifest(run_dir))
        except ValueError:
            status = "unknown"
        if status != "running":
            # One final sweep: the writer may have flushed between our read
            # and the manifest flip.
            lines, offset = _read_complete_lines(path, offset)
            events = _parse_events(lines)
            for event in events:
                yield event
            return
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(poll_seconds)


def render_event(event: dict, started_unix: Optional[float] = None) -> str:
    """One human line per ledger event, for ``repro tail``."""
    t = float(event.get("t", 0.0) or 0.0)
    offset = f"+{t - started_unix:7.2f}s" if started_unix else f"{t:.2f}"
    kind = str(event.get("kind", "?"))
    sample = event.get("sample", "")
    detail = ""
    if kind == "run.started":
        detail = f"run {event.get('run_id')} over {event.get('population')} samples"
    elif kind == "run.finished":
        detail = f"{event.get('completed')} completed, {event.get('failed')} failed"
    elif kind == "sample.phase":
        detail = (
            f"{sample} {event.get('phase')} "
            f"{1000.0 * float(event.get('seconds', 0.0) or 0.0):.1f}ms"
        )
    elif kind == "cache.hit":
        flavor = "negative " if event.get("negative") else ""
        detail = f"{sample} ({flavor}cache entry)"
    elif kind == "sample.retry":
        detail = (
            f"{sample} attempt {event.get('attempt')} "
            f"{event.get('failure_kind')}: {event.get('error')}"
        )
    elif kind == "sample.timeout":
        detail = f"{sample} attempt {event.get('attempt')}"
    elif kind == "sample.failed":
        detail = (
            f"{sample} {event.get('failure_kind')} ({event.get('error')}) "
            f"after {event.get('attempts')} attempt(s)"
        )
    elif kind == "sample.completed":
        extra = " [cached]" if event.get("cached") else ""
        detail = f"{sample} vaccines={event.get('vaccines')}{extra}"
    elif kind == "sample.started":
        detail = f"{sample} attempt {event.get('attempt', 1)}"
    else:
        detail = " ".join(
            f"{k}={v}"
            for k, v in sorted(event.items())
            if k not in ("t", "kind")
        )
    return f"{offset}  {kind:<17s} {detail}".rstrip()


def describe_manifest(manifest: dict) -> str:
    """One status line for a run (``repro runs`` rows / ``repro tail``
    footer)."""
    status = manifest_status(manifest)
    outcomes = manifest.get("outcomes") or {}
    when = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(float(manifest.get("started_unix", 0.0)))
    )
    parts = [
        f"{manifest.get('run_id', '?'):<28s}",
        f"{status:<9s}",
        f"{when}",
        f"samples={manifest.get('population', '?')}",
    ]
    if outcomes:
        parts.append(f"ok={outcomes.get('completed', '?')}")
        parts.append(f"failed={outcomes.get('failed', '?')}")
    if "duration_seconds" in manifest:
        parts.append(f"took={_fmt_duration(float(manifest['duration_seconds']))}")
    return "  ".join(parts)


__all__ = [
    "LEDGER_NAME",
    "LedgerFold",
    "MANIFEST_NAME",
    "METRICS_INTERVAL",
    "METRICS_NAME",
    "PROFILE_NAME",
    "ProgressView",
    "RunTelemetry",
    "describe_manifest",
    "iter_ledger",
    "list_runs",
    "manifest_status",
    "pid_alive",
    "read_ledger",
    "read_manifest",
    "render_event",
]
