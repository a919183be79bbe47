"""Parallel, cache-backed, fault-tolerant population executor (paper §VI
scale: 1,716 samples through Phase I–III).

Per-sample analyses are hermetic — ``run_sample`` clones the pristine
environment and the RNG reseeds per clone — so a population fans out to
worker processes without changing any result:

* :class:`PipelineConfig` is the picklable recipe each worker uses to build
  its own :class:`~repro.core.pipeline.AutoVac`;
* workers return ``(analysis payload, metrics snapshot)``; the parent
  decodes payloads via the :mod:`repro.tracing.serialize` analysis codec,
  absorbs each sample's timing tree into ``obs.prof`` and folds the
  snapshots into ``obs.metrics`` (so ``--metrics``/``stats`` stay correct
  under ``jobs>1``);
* :class:`ResultCache` stores payloads content-addressed by
  ``sha256(program text, PipelineConfig)`` — an interrupted survey restarted
  with the same cache directory re-analyzes only the missing samples.

At population scale individual samples *will* stall, OOM a worker, or
crash the analyzer (evasive samples do it on purpose), so one bad sample
must never abort the survey.  Failure semantics (see DESIGN.md §10):

* a worker exception yields a structured
  :class:`~repro.core.pipeline.SampleFailure` instead of propagating;
* ``sample_timeout`` (off by default, for determinism benches) bounds each
  attempt's wall clock — an overdue worker is killed with its pool, the
  innocent in-flight samples are resubmitted uncharged.  Only a pool worker
  can be killed, so a timeout needs ``jobs>1`` (``jobs=1`` refuses one) and
  then runs even a lone pending sample in the pool;
* failed attempts retry with exponential backoff up to ``sample_retries``
  extra attempts, then the sample is **quarantined**: recorded in
  ``PopulationResult.failures`` and — when a cache is configured — written
  as a *negative cache entry* so a restart does not hot re-crash on it;
* a :class:`BrokenProcessPool` (worker died hard: OOM-kill analogue)
  respawns the pool and re-runs the lost samples one at a time, so the
  culprit is identified solo and innocents are never charged an attempt;
* submissions are windowed (≈ ``2×jobs`` futures in flight) instead of
  pickling the whole population up front.

Injected failures for CI come from :mod:`repro.core.faults`
(``REPRO_FAULT_PLAN``); the retry/timeout/quarantine machinery behaves
identically for real and injected faults, and ``jobs=1`` vs ``jobs>1``
produce the same tables and failure records under the same plan.

``run_dir`` adds run telemetry (DESIGN.md §12): the parent is the only
writer of a persistent ledger (:mod:`repro.obs.ledger`) that
``repro tail`` / ``repro runs`` read and ``survey --progress`` renders
live.  Workers emit nothing.  ``sample.started`` marks each attempt the
parent starts or submits; a sample's ``sample.phase`` events are its
stage cells (``SampleAnalysis.timings``), emitted with its terminal
``sample.completed`` inside the same ``finish``/``quarantine`` choke points
that build :class:`PopulationResult` — so ledger, timing tree and result
can never disagree.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback as _tb_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from .. import obs
from ..obs.ledger import ProgressView, RunTelemetry, pid_alive
from ..tracing import serialize
from ..vm.program import Program
from .faults import FaultPlan, InjectedHang
from .pipeline import AutoVac, PopulationResult, SampleAnalysis, SampleFailure
from .runner import DEFAULT_BUDGET

#: PipelineConfig fields that change how a survey *runs*, not what a
#: sample's analysis contains — excluded from the cache fingerprint so
#: flipping a timeout or retry budget never invalidates cached results.
_EXECUTION_KNOBS = frozenset({"sample_timeout", "sample_retries", "retry_backoff"})

#: Bumped when cached payloads change meaning under the same codec version,
#: so older entries miss instead of decoding wrong.  2: every payload
#: carries its stage-rooted timing tree (older ones have ``profile: null``
#: and would leave a warm survey without stage cells).  3: unrecorded runs
#: are taint-free, so profiled payloads carry different per-tier counts.
#: 4: analysis compiles no superblock regions, so profiled payloads lose
#: their ``vm;superblock`` cells.  5: the impact capture run ends at its last
#: checkpoint, so profiled payloads carry fewer impact counts.
_CACHE_GENERATION = 5


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to rebuild an equivalent :class:`AutoVac` in
    another process.  Only named/scalar knobs belong here (picklability and
    cache-key stability); the clinic needs shared benign programs and stays
    a sequential-only feature.
    """

    profile_budget: int = DEFAULT_BUDGET
    explore_paths: bool = False
    #: Collect hot-path profiles (``obs.prof``) during analysis.  Part of
    #: the cache fingerprint — not an execution knob — because it changes
    #: what the encoded payload *contains* (hot-path cells in the
    #: per-sample profile, beside the stage cells every payload carries).
    profile: bool = False
    #: Per-attempt wall-clock limit in seconds (None = off, the default —
    #: determinism benches must not depend on host speed).  Execution
    #: policy only; excluded from the cache fingerprint.
    sample_timeout: Optional[float] = None
    #: Extra attempts after the first failure before quarantine.
    sample_retries: int = 1
    #: Base delay for exponential backoff between attempts (seconds).
    retry_backoff: float = 0.05

    def build(self) -> AutoVac:
        return AutoVac(
            profile_budget=self.profile_budget,
            explore_paths=self.explore_paths,
        )

    def fingerprint(self) -> str:
        """Stable hash of the analysis-relevant config, the payload format
        version and the cache generation — a bump of either of the last two
        invalidates every cached result automatically, while
        execution-policy knobs (timeout/retries) are excluded so they never
        do."""
        doc = {
            "config": {
                k: v for k, v in asdict(self).items() if k not in _EXECUTION_KNOBS
            },
            "analysis_format": serialize.ANALYSIS_FORMAT_VERSION,
            "cache_generation": _CACHE_GENERATION,
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")
        ).hexdigest()


def config_for(autovac: AutoVac) -> PipelineConfig:
    """Derive the worker recipe from an existing pipeline instance.

    Raises :class:`ValueError` for setups a worker cannot reproduce from a
    config alone (clinic programs, custom stage lists, a caller-supplied
    analysis machine or search engine) — those run sequentially via
    ``jobs=1``.  A config also keys the result cache, so the same setups
    cannot use one either.
    """
    if autovac.custom_setup:
        raise ValueError(
            "cannot parallelize or cache: a custom analysis machine or search "
            "engine does not ship to workers or into the cache key; run with "
            "jobs=1 and no cache"
        )
    if autovac.clinic_programs:
        raise ValueError(
            "cannot parallelize or cache: the clinic test shares benign "
            "programs across samples and is not in the cache key; run with "
            "jobs=1 and no cache"
        )
    from .stages import default_stages

    # Stages compare by value: a default-typed list with a reparameterized
    # stage (e.g. ExclusivenessStage(enforce=False)) is custom too.
    if autovac.stages != default_stages():
        raise ValueError(
            "cannot parallelize or cache: custom stage lists do not ship to "
            "workers or into the cache key; run with jobs=1 and no cache"
        )
    return PipelineConfig(
        profile_budget=autovac.profile_budget,
        explore_paths=autovac.explore_paths,
        profile=obs.prof.enabled,
    )


class ResultCache:
    """Content-addressed on-disk store of encoded analyses.

    Key: sha256 of the program text (assembly source, falling back to the
    disassembly), its name/metadata/section images, and the
    :meth:`PipelineConfig.fingerprint`.  Layout: ``root/<k[:2]>/<key>.json``.
    Writes are atomic (tmp + rename).  A corrupt or version-skewed entry
    reads as a miss **and is unlinked** so it cannot be re-read forever;
    ``.tmp.<pid>`` litter from writers that died between ``write_text`` and
    ``replace`` is swept on open (:meth:`sweep_stale`).

    Quarantined samples store a *negative entry* (the encoded
    :class:`SampleFailure`) under the same key, so a restarted survey
    reports the failure instead of hot re-crashing on the sample.

    The cache counts its own traffic in the attributes below.  A pool
    worker writes through its own instance; the parent counts that store
    in :attr:`stores` when the worker's result arrives.
    """

    def __init__(self, root: Union[str, os.PathLike], sweep: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        #: Absent or undecodable entries (evictions included).
        self.misses = 0
        self.negative_hits = 0
        self.evictions = 0
        self.stores = 0
        self.negative_stores = 0
        self.tmp_swept = 0
        if sweep:
            self.sweep_stale()

    def key(self, program: Program, config: PipelineConfig) -> str:
        h = hashlib.sha256()
        h.update(program.name.encode("utf-8", "replace"))
        text = program.source or program.disassemble()
        h.update(b"\x00" + text.encode("utf-8", "replace"))
        for section in program.sections:
            h.update(b"\x00" + section.name.encode("utf-8", "replace"))
            h.update(str(section.base).encode())
            h.update(section.image)
        h.update(
            b"\x00"
            + json.dumps(program.metadata, sort_keys=True, default=repr).encode()
        )
        h.update(b"\x00" + config.fingerprint().encode())
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load_entry(self, key: str) -> Union[None, SampleAnalysis, SampleFailure]:
        """Decoded analysis on hit, :class:`SampleFailure` on a negative
        hit, ``None`` on miss.  Undecodable entries count as a miss and are
        evicted from disk."""
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            failure = serialize.failure_from_entry(payload)
            if failure is not None:
                self.negative_hits += 1
                return failure
            analysis = serialize.analysis_from_dict(payload)
        except (ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            self.evictions += 1
            self.misses += 1
            return None
        self.hits += 1
        return analysis

    def _write(self, path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)

    def store_payload(self, key: str, payload: dict) -> None:
        self._write(self._path(key), payload)
        self.stores += 1

    def store(self, key: str, analysis: SampleAnalysis) -> None:
        self.store_payload(key, serialize.analysis_to_dict(analysis))

    def store_failure(self, key: str, failure: SampleFailure) -> None:
        """Write a negative entry for a quarantined sample."""
        self._write(self._path(key), serialize.failure_to_entry(failure))
        self.negative_stores += 1

    def sweep_stale(self) -> int:
        """Unlink ``<key>.tmp.<pid>`` files whose writer pid is dead (or
        unparseable).  Files belonging to this or another live process are
        left alone — they are writes in progress."""
        removed = 0
        for tmp in self.root.glob("*/*.tmp.*"):
            pid_text = tmp.suffix[1:]
            if pid_text.isdigit():
                pid = int(pid_text)
                if pid == os.getpid() or pid_alive(pid):
                    continue
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                continue
        self.tmp_swept += removed
        return removed


def _as_cache(cache: Union[None, str, os.PathLike, ResultCache]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _analyze_worker(
    program: Program,
    config: PipelineConfig,
    cache_root: Optional[str],
    index: int = 0,
    attempt: int = 1,
    plan: Optional[FaultPlan] = None,
) -> Tuple[dict, Dict[str, int]]:
    """Runs in a worker process: fresh obs state, fresh AutoVac, one sample.

    Returns the encoded analysis plus this task's metrics *delta* — the
    registry is reset first so a forked worker never re-reports inherited
    parent counts.  ``plan`` (ships explicitly from the parent, never read
    from the environment here) injects the planned fault for this
    (sample, attempt), if any.
    """
    obs.reset()
    if config.profile:
        # Hot-path cells join the per-sample profile that ships inside the
        # payload; the parent absorbs it, so jobs=N merges like
        # MetricsRegistry.
        obs.prof.enabled = True
    if plan is not None:
        plan.enact_in_worker(index, program.name, attempt)
    autovac = config.build()
    analysis = autovac.analyze(program)
    payload = serialize.analysis_to_dict(analysis)
    if cache_root is not None:
        cache = ResultCache(cache_root, sweep=False)
        cache.store_payload(cache.key(program, config), payload)
    return payload, obs.metrics.snapshot()


def _no_emit(kind: str, **attrs: object) -> None:
    """The event sink of a survey without ``run_dir``."""


def _tb_summary(exc: BaseException, limit: int = 8) -> str:
    """Trimmed traceback (last ``limit`` lines) for a SampleFailure."""
    lines = _tb_module.format_exception(type(exc), exc, exc.__traceback__)
    text = "".join(lines).strip().splitlines()
    return "\n".join(text[-limit:])


@dataclass(frozen=True)
class _Task:
    """One in-flight worker submission."""

    index: int
    attempt: int
    deadline: Optional[float]  # monotonic; None when timeouts are off


def _exit_with_parent() -> None:
    """Pool worker initializer: end the worker as soon as the survey
    process is gone, so a survey killed with SIGKILL leaves no worker
    running (a hung sample would otherwise keep one alive)."""
    parent = multiprocessing.parent_process()
    if parent is None:  # pragma: no cover - always set in a pool worker
        return

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _new_pool(max_workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max_workers, initializer=_exit_with_parent)


def _respawn_pool(pool: ProcessPoolExecutor, max_workers: int) -> ProcessPoolExecutor:
    """Kill a pool (hung or broken workers included) and start a fresh one."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - best effort by contract
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - best effort by contract
        pass
    return _new_pool(max_workers)


def analyze_population(
    programs: Iterable[Program],
    config: Optional[PipelineConfig] = None,
    jobs: int = 1,
    cache: Union[None, str, os.PathLike, ResultCache] = None,
    autovac: Optional[AutoVac] = None,
    faults: Optional[FaultPlan] = None,
    run_dir: Union[None, str, os.PathLike] = None,
    progress: Optional[ProgressView] = None,
) -> PopulationResult:
    """Analyze a corpus with ``jobs`` worker processes and an optional
    result cache.  Healthy results keep input order; tables are identical
    for any ``jobs``/cache combination (the determinism regression test
    pins this).  A failing sample is retried per ``config.sample_retries``
    and then quarantined into ``PopulationResult.failures`` — it never
    aborts the survey.  The result also counts the retries and pool
    respawns; a :class:`ResultCache` passed as ``cache`` counts its own
    hits and misses.

    Exactly one of ``config``/``autovac`` drives the analysis: ``jobs=1``
    uses ``autovac`` (or ``config.build()``) in-process; ``jobs>1`` ships
    ``config`` (derived from ``autovac`` if needed) to the workers.
    ``faults`` (default: parsed from ``REPRO_FAULT_PLAN``) injects
    deterministic failures for testing the machinery.  A
    ``config.sample_timeout`` needs ``jobs>1``: ``jobs=1`` raises
    :class:`ValueError` rather than run unbounded.

    ``run_dir`` turns on run telemetry (:mod:`repro.obs.ledger`): the
    parent writes every per-sample lifecycle event into a persistent
    ledger under ``run_dir``, watchable live with ``repro
    tail`` and summarized by ``repro runs``.  Terminal
    ``sample.completed``/``sample.failed`` events come from the same choke
    points that fill the returned :class:`PopulationResult`, so the
    ledger's terminal set always matches it — even when workers die
    mid-sample.
    ``progress`` (a :class:`~repro.obs.ledger.ProgressView`) additionally
    renders the fold live; it requires ``run_dir``.
    """
    programs = list(programs)
    jobs = max(1, int(jobs))
    if config is None and (jobs > 1 or cache is not None):
        config = config_for(autovac) if autovac is not None else PipelineConfig()
    store = _as_cache(cache)
    plan = faults if faults is not None else FaultPlan.from_env()
    policy = config if config is not None else PipelineConfig()
    if policy.profile and not obs.prof.enabled:
        obs.prof.enabled = True
    retries = max(0, int(policy.sample_retries))
    timeout = policy.sample_timeout
    backoff = max(0.0, policy.retry_backoff)
    if timeout is not None and jobs == 1:
        raise ValueError(
            f"sample_timeout={timeout:g}s needs jobs > 1: only a pool worker "
            "can be killed when a sample overruns"
        )

    n = len(programs)
    telemetry: Optional[RunTelemetry] = None
    if run_dir is not None:
        telemetry = RunTelemetry.begin(
            run_dir,
            population=n,
            config_fingerprint=policy.fingerprint(),
            progress=progress,
        )
    emit = telemetry.emit if telemetry is not None else _no_emit
    results: List[Optional[SampleAnalysis]] = [None] * n
    failures_by_index: Dict[int, SampleFailure] = {}
    retried = respawned = 0

    def finish(
        index: int, analysis: SampleAnalysis, attempt: Optional[int] = None
    ) -> None:
        """Record a healthy result; ``attempt`` is ``None`` for a cache hit."""
        results[index] = analysis
        name = programs[index].name
        if attempt is not None:
            # The stage cells the tree holds, so ledger and tree agree.
            for phase, seconds in analysis.timings.items():
                emit(
                    "sample.phase",
                    sample=name,
                    index=index,
                    attempt=attempt,
                    phase=phase,
                    seconds=seconds,
                )
        emit(
            "sample.completed",
            sample=name,
            index=index,
            vaccines=len(analysis.vaccines),
            cached=attempt is None,
        )

    def quarantine(index: int, failure: SampleFailure, store_negative: bool = True) -> None:
        failures_by_index[index] = failure
        emit(
            "sample.failed",
            sample=failure.sample,
            index=index,
            failure_kind=failure.kind,
            error=failure.error_type,
            attempts=failure.attempts,
            cached=not store_negative,
        )
        if store_negative and store is not None:
            store.store_failure(store.key(programs[index], config), failure)

    def attempt_failed(
        index: int, attempt: int, kind: str, error_type: str, message: str, tb: str
    ) -> bool:
        """Account one failed attempt: quarantine the sample when its retry
        budget is spent, else count the retry and back off.  True when the
        sample gets another attempt."""
        nonlocal retried
        name = programs[index].name
        if kind == "timeout":
            emit("sample.timeout", sample=name, index=index, attempt=attempt)
        if attempt > retries:
            quarantine(
                index,
                SampleFailure(
                    sample=name,
                    index=index,
                    kind=kind,
                    error_type=error_type,
                    message=message,
                    traceback=tb,
                    attempts=attempt,
                ),
            )
            return False
        retried += 1
        emit(
            "sample.retry",
            sample=name,
            index=index,
            attempt=attempt,
            failure_kind=kind,
            error=error_type,
        )
        if backoff:
            time.sleep(backoff * (2 ** (attempt - 1)))
        return True

    def assemble() -> PopulationResult:
        if telemetry is not None:
            telemetry.finish()
        return PopulationResult(
            analyses=[a for a in results if a is not None],
            failures=[failures_by_index[i] for i in sorted(failures_by_index)],
            retries=retried,
            respawns=respawned,
        )

    pending: List[int] = []
    for i, program in enumerate(programs):
        entry = store.load_entry(store.key(program, config)) if store is not None else None
        if isinstance(entry, SampleAnalysis):
            emit("cache.hit", sample=program.name, index=i, negative=False)
            finish(i, entry)
            # Cached profiles were collected in another run/process; fold
            # them in like worker payloads (the jobs=1 in-process path never
            # absorbs — its deltas are already in the global profiler).
            obs.prof.absorb(entry.profile)
        elif isinstance(entry, SampleFailure):
            # Negative entry from an earlier run: report the quarantine
            # again instead of hot re-crashing on the sample.
            emit("cache.hit", sample=program.name, index=i, negative=True)
            quarantine(i, replace(entry, index=i), store_negative=False)
        else:
            pending.append(i)
    if telemetry is not None:
        telemetry.refresh()

    # A timeout is enforced by killing a pool worker, so with one set even
    # a lone pending sample runs in the pool.
    if jobs == 1 or len(pending) <= (0 if timeout is not None else 1):
        local = autovac if autovac is not None else config.build() if config else AutoVac()
        for i in pending:
            program = programs[i]
            attempt = 1
            while True:
                emit("sample.started", sample=program.name, index=i, attempt=attempt)
                prof_mark = obs.prof.mark()
                try:
                    if plan:
                        plan.raise_inline(i, program.name, attempt)
                    analysis = local.analyze(program)
                except Exception as exc:
                    # Drop the failed attempt's cells and partial journal, as
                    # a jobs=N run drops the failed worker's payload: same
                    # tree and out-of-window events for any jobs.
                    obs.prof.restore(prof_mark)
                    obs.flight.end_sample(None)
                    kind = "timeout" if isinstance(exc, InjectedHang) else "crash"
                    if not attempt_failed(
                        i, attempt, kind, type(exc).__name__, str(exc), _tb_summary(exc)
                    ):
                        break
                    attempt += 1
                else:
                    if store is not None:
                        store.store(store.key(program, config), analysis)
                    finish(i, analysis, attempt)
                    break
            if telemetry is not None:
                telemetry.refresh()
        return assemble()

    cache_root = str(store.root) if store is not None else None
    n_workers = min(jobs, len(pending))
    # Bounded submit window: keep ≈2×jobs futures in flight instead of
    # pickling every pending program up front.
    window = max(1, 2 * n_workers)
    queue: Deque[Tuple[int, int]] = deque((i, 1) for i in pending)
    #: Samples implicated in a pool breakage; re-run solo (window of 1) so
    #: a repeat breakage identifies the culprit without charging innocents.
    suspects: Set[int] = set()
    in_flight: Dict[Future, _Task] = {}
    pool = _new_pool(n_workers)

    def respawn() -> None:
        nonlocal pool, respawned
        pool = _respawn_pool(pool, n_workers)
        respawned += 1

    def submit_ready() -> None:
        limit = 1 if suspects else window
        while queue and len(in_flight) < limit:
            index, attempt = queue.popleft()
            deadline = (time.monotonic() + timeout) if timeout is not None else None
            try:
                future = pool.submit(
                    _analyze_worker,
                    programs[index],
                    config,
                    cache_root,
                    index=index,
                    attempt=attempt,
                    plan=plan if plan else None,
                )
            except BrokenProcessPool:
                # A worker died after the last wait(): nothing was
                # submitted, so requeue uncharged.  The lost futures
                # surface in the next wait(), whose breakage path respawns
                # the pool; with none in flight, respawn it here.
                queue.appendleft((index, attempt))
                if in_flight:
                    return
                respawn()
                continue
            in_flight[future] = _Task(index, attempt, deadline)
            emit("sample.started", sample=programs[index].name, index=index, attempt=attempt)

    def handle_attempt_failure(
        task: _Task, kind: str, error_type: str, message: str, tb: str
    ) -> None:
        suspects.discard(task.index)
        if attempt_failed(task.index, task.attempt, kind, error_type, message, tb):
            # Requeued at the tail: the other samples keep their turn.
            queue.append((task.index, task.attempt + 1))

    try:
        while in_flight or queue:
            submit_ready()
            wait_timeout = None
            if timeout is not None and in_flight:
                now = time.monotonic()
                wait_timeout = max(
                    0.0, min(t.deadline for t in in_flight.values()) - now
                )
            if telemetry is not None:
                # Bound the wait so the status line keeps ticking while a
                # sample runs long.
                telemetry.refresh()
                if wait_timeout is None or wait_timeout > 0.5:
                    wait_timeout = 0.5
            done_set, _ = wait(
                set(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            broken_tasks: List[_Task] = []
            for future in done_set:
                task = in_flight.pop(future)
                try:
                    payload, snapshot = future.result()
                except BrokenProcessPool:
                    broken_tasks.append(task)
                except InjectedHang as exc:
                    # The hang outlived its nap (no/large timeout): same
                    # classification the parent-side deadline would give.
                    handle_attempt_failure(
                        task, "timeout", type(exc).__name__, str(exc), _tb_summary(exc)
                    )
                except Exception as exc:
                    handle_attempt_failure(
                        task, "crash", type(exc).__name__, str(exc), _tb_summary(exc)
                    )
                else:
                    analysis = serialize.analysis_from_dict(payload)
                    obs.metrics.merge(snapshot)
                    if store is not None:
                        store.stores += 1  # the worker wrote it
                    obs.prof.absorb(analysis.profile)
                    finish(task.index, analysis, task.attempt)
                    suspects.discard(task.index)

            if broken_tasks:
                # The pool is dead; every still-in-flight future is lost too.
                lost = broken_tasks + list(in_flight.values())
                in_flight.clear()
                respawn()
                if len(lost) == 1:
                    # Died running alone: definitively the culprit.
                    task = lost[0]
                    handle_attempt_failure(
                        task,
                        "pool",
                        "BrokenProcessPool",
                        "worker process died unexpectedly",
                        "",
                    )
                else:
                    # Culprit unknown: re-run the lost samples one at a
                    # time (same attempt — nobody is charged yet).
                    for task in sorted(lost, key=lambda t: t.index, reverse=True):
                        queue.appendleft((task.index, task.attempt))
                        suspects.add(task.index)
                continue

            if timeout is not None:
                now = time.monotonic()
                overdue = [
                    future
                    for future, task in in_flight.items()
                    if task.deadline is not None and now >= task.deadline
                ]
                if overdue:
                    for future in overdue:
                        task = in_flight.pop(future)
                        handle_attempt_failure(
                            task,
                            "timeout",
                            "TimeoutError",
                            f"exceeded {timeout:g}s wall clock",
                            "",
                        )
                    # A hung worker cannot be cancelled individually — the
                    # pool goes with it; innocents resubmit uncharged.
                    for task in in_flight.values():
                        queue.appendleft((task.index, task.attempt))
                    in_flight.clear()
                    respawn()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return assemble()


__all__ = [
    "PipelineConfig",
    "ResultCache",
    "analyze_population",
    "config_for",
]
