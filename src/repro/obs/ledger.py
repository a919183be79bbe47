"""Persistent run ledger: the parent's event writer, live fold, and
tail/list readers.

A *run directory* holds one file, ``ledger.jsonl``: the time-ordered event
log, readable while the run is still in flight.  :class:`RunTelemetry`,
owned by the executor parent, is its only writer: one JSON object per
line, flushed per event.  Every view of a run — ``repro tail``, ``repro
runs``, the ``--progress`` line — is a :class:`LedgerFold` over the
ledger's last ``run.started`` segment (a reused directory appends a new
segment per run).

Event grammar (DESIGN.md §12): ``run.started`` (run id, population,
config fingerprint, writer pid) and ``run.finished`` (completed/failed
counts, monotonic duration) bracket the run; per sample the lifecycle is
``cache.hit`` *or* one ``sample.started`` per attempt, optionally
``sample.timeout`` / ``sample.retry`` between attempts, and exactly one
terminal ``sample.completed`` (preceded by the sample's ``sample.phase``
events, one per executed stage) or ``sample.failed``.  A run's status is
derived, never stored: ``finished`` once ``run.finished`` is present,
``stale`` when it is absent and the ``run.started`` pid is dead, else
``running``.

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
# fold: running aggregates over the event stream
# ---------------------------------------------------------------------------


class LedgerFold:
    """A run's identity, status, counts and rates, derived from the events
    seen so far — the state behind the ``--progress`` view, ``repro tail``
    and ``repro runs``.

    Two clocks, deliberately: ``started_unix`` is *wall* time (the
    ``run.started`` event's ``t``; it labels the run for humans), but
    elapsed time behind ``rate``/``eta_seconds`` and the writer's
    ``duration_seconds`` is measured on ``clock`` — ``time.monotonic`` by
    default — so an NTP step or a manual clock change mid-run cannot
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
        # From ``run.started``: who wrote the run, and with what config.
        self.run_id = ""
        self.config_fingerprint = ""
        self.pid: Optional[int] = None
        # From ``run.finished``: present once the run ended.
        self.finished = False
        self.duration_seconds: Optional[float] = None
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
        if kind == "run.started":
            self.run_id = event.get("run_id", "")
            self.population = event.get("population", 0)
            self.config_fingerprint = event.get("config_fingerprint", "")
            self.started_unix = event.get("t", self.started_unix)
            pid = event.get("pid")
            # A hand-edited ledger must not reach os.kill with a non-int.
            self.pid = pid if isinstance(pid, int) else None
        elif kind == "run.finished":
            self.finished = True
            self.duration_seconds = event.get("duration_seconds")
        elif kind == "sample.started":
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
    def status(self) -> str:
        """``finished`` once ``run.finished`` was seen; ``stale`` when it
        was not and the ``run.started`` pid is gone (a killed survey);
        ``running`` otherwise."""
        if self.finished:
            return "finished"
        if self.pid is not None and not pid_alive(self.pid):
            return "stale"
        return "running"

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
    writer of the ledger."""

    def __init__(
        self,
        run_dir: Path,
        run_id: str,
        fold: LedgerFold,
        progress: Optional[ProgressView] = None,
    ) -> None:
        self.run_dir = run_dir
        self.run_id = run_id
        self.fold = fold
        self.progress = progress
        self._ledger_fh = open(run_dir / LEDGER_NAME, "a", encoding="utf-8")
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
        run_id = run_id or time.strftime("run-%Y%m%d-%H%M%S-") + str(os.getpid())
        telemetry = cls(run_dir, run_id, LedgerFold(population=population), progress)
        telemetry.emit(
            "run.started",
            run_id=run_id,
            population=population,
            config_fingerprint=config_fingerprint,
            pid=os.getpid(),
        )
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
        """Redraw the progress view (rate-limited by the view itself)."""
        if self.progress is not None:
            self.progress.update(self.fold)

    def finish(self) -> None:
        """Append ``run.finished`` and close the ledger.  Idempotent — a
        second call writes nothing."""
        if self._finished:
            return
        self._finished = True
        self.emit(
            "run.finished",
            run_id=self.run_id,
            completed=self.fold.completed,
            failed=self.fold.failed,
            # Monotonic-clock duration: a wall-clock step mid-run changes
            # the events' ``t`` stamps, never the measured duration.
            duration_seconds=round(self.fold.elapsed(), 3),
        )
        try:
            self._ledger_fh.close()
        except OSError:  # pragma: no cover - best effort by contract
            pass
        if self.progress is not None:
            self.progress.close(self.fold)


# ---------------------------------------------------------------------------
# readers: tail + rendering
# ---------------------------------------------------------------------------


def read_ledger(run_dir: Union[str, os.PathLike]) -> List[dict]:
    """Every complete event currently in the ledger, earlier runs into the
    same directory included (partial trailing line tolerated)."""
    lines, _ = _read_complete_lines(Path(run_dir) / LEDGER_NAME, 0)
    return _parse_events(lines)


def _last_run(events: List[dict]) -> List[dict]:
    """``events`` from the last ``run.started`` on (all of them when there
    is none): a run directory reused by a later survey describes that
    survey."""
    starts = [i for i, e in enumerate(events) if e.get("kind") == "run.started"]
    return events[starts[-1]:] if starts else events


def iter_ledger(
    run_dir: Union[str, os.PathLike],
    follow: bool = False,
    poll_seconds: float = 0.2,
    timeout: Optional[float] = None,
) -> Iterator[dict]:
    """Yield the events of the ledger's last run segment (from its last
    ``run.started``) in file order; earlier runs into the same directory
    are skipped.  With ``follow``, keep polling for new events until that
    run ends: its ``run.finished`` arrives, its ``run.started`` pid dies
    (one final sweep picks up what the writer flushed before dying), or
    ``timeout`` elapses.  A ledger with no ``run.started`` yet is not
    followed."""
    path = Path(run_dir) / LEDGER_NAME
    lines, offset = _read_complete_lines(path, 0)
    events = _last_run(_parse_events(lines))
    deadline = time.monotonic() + timeout if timeout is not None else None
    finished, pid, writer_gone = False, None, False
    while True:
        for event in events:
            kind = event.get("kind")
            if kind == "run.started":
                finished = False
                pid = event.get("pid") if isinstance(event.get("pid"), int) else None
            elif kind == "run.finished":
                finished = True
            yield event
        if not follow or finished or writer_gone or pid is None:
            return
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(poll_seconds)
        # Liveness is checked *before* the read, so a writer found dead has
        # flushed everything this read returns.
        writer_gone = not pid_alive(pid)
        lines, offset = _read_complete_lines(path, offset)
        events = _parse_events(lines)


def read_run(run_dir: Union[str, os.PathLike]) -> LedgerFold:
    """The fold of the ledger's last ``run.started`` segment; raises
    :class:`ValueError` (with file and reason) when the ledger is missing
    or holds no ``run.started`` — ``SystemExit``-friendly for the CLI."""
    path = Path(run_dir) / LEDGER_NAME
    if not path.is_file():
        raise ValueError(f"{run_dir}: not a run directory (no {LEDGER_NAME})")
    events = _last_run(read_ledger(run_dir))
    if not events or events[0].get("kind") != "run.started":
        raise ValueError(f"{path}: no run.started event")
    fold = LedgerFold()
    for event in events:
        fold.apply(event)
    return fold


def list_runs(root: Union[str, os.PathLike]) -> List[LedgerFold]:
    """Folds of every run directory directly under ``root`` (oldest first).
    A ledger with no readable ``run.started`` is skipped — a listing should
    never die on one corrupt run."""
    out: List[LedgerFold] = []
    for entry in sorted(Path(root).glob("*")):
        try:
            out.append(read_run(entry))
        except ValueError:
            continue
    out.sort(key=lambda fold: fold.started_unix)
    return out


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


def describe_run(fold: LedgerFold) -> str:
    """One status line for a run (``repro runs`` rows / ``repro tail``
    footer)."""
    when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(fold.started_unix))
    parts = [
        f"{fold.run_id:<28s}",
        f"{fold.status:<9s}",
        when,
        f"samples={fold.population}",
        f"ok={fold.completed}",
        f"failed={fold.failed}",
    ]
    if fold.duration_seconds is not None:
        parts.append(f"took={_fmt_duration(fold.duration_seconds)}")
    return "  ".join(parts)


__all__ = [
    "LEDGER_NAME",
    "LedgerFold",
    "ProgressView",
    "RunTelemetry",
    "describe_run",
    "iter_ledger",
    "list_runs",
    "pid_alive",
    "read_ledger",
    "read_run",
    "render_event",
]
