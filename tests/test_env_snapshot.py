"""Structured environment snapshots (``repro.winenv.snapshot``, PR 10).

Covers the restore semantics a pickle round-trip would get for free —
handle identity, deleted-but-open orphans, phantom handles, the RNG
mid-sequence — plus ``Memory.restore`` completeness and chaos degradation
(an injected restore fault must cost a full rerun for that candidate, never
the survey).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.candidate import select_candidates
from repro.core.impact import ImpactAnalyzer
from repro.vm.memory import Memory
from repro.winenv import IntegrityLevel, ResourceType, SystemEnvironment, vaccine_acl
from repro.winenv.environment import RESOURCE_TABLES
from repro.winenv.objects import HandleKind, Resource
from repro.winenv.snapshot import EnvSnapshot


SYS = IntegrityLevel.SYSTEM


def roundtrip(env, proc):
    return EnvSnapshot.capture(env, proc).restore()


def machine():
    env = SystemEnvironment(rng_seed=0xBEEF)
    proc = env.spawn_process("mal.exe", integrity=IntegrityLevel.MEDIUM)
    return env, proc


class TestStructuredRestore:
    def test_basic_fields_and_process(self):
        env, proc = machine()
        env.filesystem.create("C:\\evil.dat", SYS, content=b"payload")
        proc.last_error = 5
        env2, proc2 = roundtrip(env, proc)
        assert env2 is not env and proc2 is not proc
        assert proc2.pid == proc.pid and proc2.last_error == 5
        assert env2.filesystem.read("C:\\evil.dat", SYS) == b"payload"
        assert env2.identity is env.identity  # immutable record is shared

    def test_restore_is_isolated_from_live_environment(self):
        env, proc = machine()
        env.filesystem.create("C:\\a.txt", SYS, content=b"before")
        snap = EnvSnapshot.capture(env, proc)
        # The capture run keeps executing and mutating the live machine.
        env.filesystem.write("C:\\a.txt", SYS, b"-after")
        env.mutexes.create("late", SYS)
        env2, _ = snap.restore()
        assert env2.filesystem.read("C:\\a.txt", SYS) == b"before"
        assert not env2.mutexes.exists("late")
        # And restored mutations never leak back.
        env2.filesystem.delete("C:\\a.txt", SYS)
        assert env.filesystem.exists("C:\\a.txt")

    def test_two_handles_to_one_resource_share_one_object(self):
        env, proc = machine()
        mutex, _ = env.mutexes.create("shared", SYS)
        proc.handles.allocate(HandleKind.MUTEX, mutex)
        proc.handles.allocate(HandleKind.MUTEX, mutex)
        _, proc2 = roundtrip(env, proc)
        handles = list(proc2.handles)
        assert len(handles) == 2
        assert handles[0].resource is handles[1].resource

    def test_handle_resolves_to_namespace_object_not_a_copy(self):
        env, proc = machine()
        mutex, _ = env.mutexes.create("m1", SYS)
        proc.handles.allocate(HandleKind.MUTEX, mutex)
        env2, proc2 = roundtrip(env, proc)
        (handle,) = list(proc2.handles)
        assert handle.resource is env2.mutexes.lookup("m1")

    def test_deleted_but_open_file_survives_as_orphan(self):
        env, proc = machine()
        node = env.filesystem.create("C:\\tmp\\drop.bin", SYS, content=b"XYZ")
        proc.handles.allocate(HandleKind.FILE, node)
        env.filesystem.delete("C:\\tmp\\drop.bin", SYS)
        env2, proc2 = roundtrip(env, proc)
        assert not env2.filesystem.exists("C:\\tmp\\drop.bin")
        (handle,) = list(proc2.handles)
        assert bytes(handle.resource.content) == b"XYZ"

    def test_phantom_force_success_handle_round_trips(self):
        env, proc = machine()
        ghost = Resource(name="Ghost", rtype=ResourceType.MUTEX)
        proc.handles.allocate(HandleKind.MUTEX, ghost)
        env2, proc2 = roundtrip(env, proc)
        (handle,) = list(proc2.handles)
        assert handle.resource.name == "Ghost"
        assert handle.resource.rtype is ResourceType.MUTEX
        assert not env2.mutexes.exists("Ghost")  # still phantom

    def test_handle_counter_keeps_position(self):
        env, proc = machine()
        h = proc.handles.allocate(HandleKind.MUTEX, None)
        proc.handles.close(h.value)  # closed handles still consumed a value
        _, proc2 = roundtrip(env, proc)
        assert proc2.handles.allocate(HandleKind.MUTEX, None).value > h.value

    def test_rng_resumes_mid_sequence(self):
        env, proc = machine()
        for _ in range(5):
            env.tick_count()
        snap = EnvSnapshot.capture(env, proc)
        expected = [env.tick_count() for _ in range(4)]
        env2, _ = snap.restore()
        assert [env2.tick_count() for _ in range(4)] == expected
        # Each restore is independent: a second one replays the same stream.
        env3, _ = snap.restore()
        assert [env3.tick_count() for _ in range(4)] == expected

    def test_clone_by_contrast_restarts_the_rng(self):
        env, proc = machine()
        for _ in range(5):
            env.tick_count()
        snap = EnvSnapshot.capture(env, proc)
        continued = env.tick_count()
        assert env.clone().tick_count() != continued  # clone: fresh run
        env2, _ = snap.restore()
        assert env2.tick_count() == continued  # snapshot: same run

    def test_interceptors_shared_by_reference(self):
        env, proc = machine()
        sentinel = object()
        env.global_interceptors.append(sentinel)
        env2, _ = roundtrip(env, proc)
        assert env2.global_interceptors == [sentinel]
        assert env2.global_interceptors is not env.global_interceptors


class TestRestoredAttributeCompleteness:
    """The restore paths rebuild objects via ``__new__`` + direct
    assignment (constructors would only re-derive what the captured row
    already holds).  Every attribute a constructor sets must therefore be
    assigned explicitly — a new field added to any of these classes without
    a restore line would silently resume with missing state."""

    def test_every_restored_object_matches_its_constructed_twin(self):
        env, proc = machine()
        env.filesystem.create("C:\\x.bin", SYS, content=b"d")
        env.registry.create_key("HKLM\\Software\\X", SYS)
        mutex, _ = env.mutexes.create("m", SYS)
        env.services.create("svc", "c:\\s.sys", SYS)
        env.windows.register("WndCls", title="t", owner_pid=proc.pid)
        env.libraries.register("evil.dll")
        proc.handles.allocate(HandleKind.MUTEX, mutex)
        env2, proc2 = roundtrip(env, proc)

        def keys(obj):
            return set(vars(obj))

        pairs = [
            (env2.filesystem.lookup("C:\\x.bin"), env.filesystem.lookup("C:\\x.bin")),
            (env2.registry.lookup("HKLM\\Software\\X"), env.registry.lookup("HKLM\\Software\\X")),
            (env2.mutexes.lookup("m"), mutex),
            (env2.services.lookup("svc"), env.services.lookup("svc")),
            (env2.windows.lookup("WndCls"), env.windows.lookup("WndCls")),
            (env2.libraries.lookup("evil.dll"), env.libraries.lookup("evil.dll")),
            (proc2, proc),
            (list(proc2.handles)[0], list(proc.handles)[0]),
        ]
        for restored, original in pairs:
            assert original is not None and restored is not None
            assert keys(restored) == keys(original), type(original).__name__


#: Per resource table: (handle kind, add a resource with non-default
#: attributes and return it, remove it from its namespace by name).
TABLE_CASES = {
    "filesystem": (
        HandleKind.FILE,
        lambda env: env.filesystem.create(
            "C:\\x.bin", SYS, content=b"data", acl=vaccine_acl(), created_by=7
        ),
        lambda env, res: env.filesystem.delete(res.name, SYS),
    ),
    "registry": (
        HandleKind.REGISTRY,
        lambda env: _with_value(env.registry.create_key("HKLM\\Software\\X", SYS, created_by=7)),
        lambda env, res: env.registry.delete_key(res.name, SYS),
    ),
    "mutexes": (
        HandleKind.MUTEX,
        lambda env: env.mutexes.create("m", SYS, created_by=7)[0],
        lambda env, res: env.mutexes.release(res.name),
    ),
    "services": (
        HandleKind.SERVICE,
        lambda env: env.services.start(
            env.services.create("svc", "c:\\s.sys", SYS, created_by=7).name, SYS
        ),
        lambda env, res: env.services.delete(res.name, SYS),
    ),
    "windows": (
        HandleKind.WINDOW,
        lambda env: env.windows.register("WndCls", title="t", owner_pid=1000),
        lambda env, res: env.windows.destroy(res.name),
    ),
    "libraries": (
        HandleKind.LIBRARY,
        lambda env: _blocked(env.libraries.register("evil.dll", created_by=7)),
        lambda env, res: env.libraries.remove(res.name),
    ),
}


def _with_value(key):
    key.values["run"] = "c:\\evil.exe"
    return key


def _blocked(lib):
    lib.blocked = True
    return lib


def images(table):
    """Type and attributes of every resource, in table order."""
    return [(type(res), vars(res)) for res in table]


def mutate(res):
    """Change a resource in place wherever a shared object could leak."""
    res.acl = vaccine_acl()
    for name, _freeze, _thaw in res.MUTABLE:
        payload = getattr(res, name)
        if isinstance(payload, bytearray):
            payload.extend(b"!")
        else:
            payload["late"] = 1


def test_table_cases_cover_every_resource_table():
    assert sorted(TABLE_CASES) == sorted(name for name, _cls in RESOURCE_TABLES)


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
class TestResourceTableCodec:
    """Clone, capture and restore share one image copy per resource
    (``ResourceTable``); each path must copy every attribute and share no
    mutable payload."""

    def test_clone_is_attribute_complete(self, name):
        env, _proc = machine()
        TABLE_CASES[name][1](env)
        table = getattr(env, name)
        copy = getattr(env.clone(), name)
        assert images(copy) == images(table)
        assert all(a is not b for a, b in zip(copy, table))

    @pytest.mark.parametrize("side", ["clone", "original"])
    def test_clone_and_original_stay_independent(self, name, side):
        env, _proc = machine()
        TABLE_CASES[name][1](env)
        original = getattr(env, name)
        copy = getattr(env.clone(), name)
        edited, other = (copy, original) if side == "clone" else (original, copy)
        before = repr(images(other))
        for res in edited:
            mutate(res)
        assert repr(images(other)) == before
        assert images(edited) != images(other)

    @pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
    def test_capture_then_restore_keeps_every_attribute(self, name, eager):
        env, proc = machine()
        kind, add, _remove = TABLE_CASES[name]
        res = add(env)
        if eager:
            proc.handles.allocate(kind, res)
        snap = EnvSnapshot.capture(env, proc)
        index = [n for n, _cls in RESOURCE_TABLES].index(name)
        assert snap.eager[index] is eager
        env2, _ = snap.restore()
        table = getattr(env, name)
        restored = getattr(env2, name)
        assert images(restored) == images(table)
        # The restored table shares nothing mutable with the live table
        # or the snapshot.
        for copy in restored:
            mutate(copy)
        assert images(getattr(snap.restore()[0], name)) == images(table)

    def test_orphan_round_trips(self, name):
        env, proc = machine()
        kind, add, remove = TABLE_CASES[name]
        res = add(env)
        proc.handles.allocate(kind, res)
        remove(env, res)
        expected = (type(res), dict(vars(res)))
        snap = EnvSnapshot.capture(env, proc)
        res.acl = None  # later live edits must not reach the snapshot
        env2, proc2 = snap.restore()
        (handle,) = list(proc2.handles)
        orphan = handle.resource
        assert orphan is not res
        assert (type(orphan), vars(orphan)) == expected
        assert all(live.name != orphan.name for live in getattr(env2, name))


class TestLazyNamespaces:
    """A restored namespace no guest handle references defers its rebuild
    until first access (``EnvSnapshot.eager``); handle-referenced ones are
    rebuilt immediately so handle identity holds."""

    def _populated(self):
        env, proc = machine()
        env.filesystem.create("C:\\x.bin", SYS, content=b"d")
        env.registry.create_key("HKLM\\Software\\X", SYS)
        env.mutexes.create("m", SYS)
        env.services.create("svc", "c:\\s.sys", SYS)
        env.windows.register("WndCls")
        env.libraries.register("evil.dll")
        return env, proc

    def test_unreferenced_namespaces_defer_until_first_access(self):
        env, proc = self._populated()
        snap = EnvSnapshot.capture(env, proc)
        assert snap.eager == (False,) * 6  # no handles anywhere
        env2, _ = snap.restore()
        assert "_lazy_rows" in vars(env2.filesystem)
        assert "_nodes" not in vars(env2.filesystem)
        # First access materializes; contents are correct and cached.
        assert env2.filesystem.read("C:\\x.bin", SYS) == b"d"
        assert "_lazy_rows" not in vars(env2.filesystem)
        assert "_nodes" in vars(env2.filesystem)
        assert env2.registry.lookup("HKLM\\Software\\X") is not None
        assert env2.mutexes.exists("m")
        assert env2.services.lookup("svc").binary_path == "c:\\s.sys"
        assert env2.windows.exists("WndCls")
        assert env2.libraries.exists("evil.dll")

    def test_handle_referenced_namespace_restores_eagerly(self):
        env, proc = self._populated()
        mutex = env.mutexes.lookup("m")
        proc.handles.allocate(HandleKind.MUTEX, mutex)
        snap = EnvSnapshot.capture(env, proc)
        # Only the mutex namespace (index 2) carries a handle-referenced row.
        assert snap.eager == (False, False, True, False, False, False)
        env2, proc2 = snap.restore()
        assert "_mutexes" in vars(env2.mutexes)
        (handle,) = list(proc2.handles)
        assert handle.resource is env2.mutexes.lookup("m")

    def test_lazy_namespace_mutations_stay_isolated(self):
        env, proc = self._populated()
        snap = EnvSnapshot.capture(env, proc)
        env2, _ = snap.restore()
        env2.filesystem.delete("C:\\x.bin", SYS)
        assert env.filesystem.exists("C:\\x.bin")
        # A second restore from the same snapshot sees the original state.
        env3, _ = snap.restore()
        assert env3.filesystem.read("C:\\x.bin", SYS) == b"d"

    def test_recapture_of_lazy_restored_env_round_trips(self):
        env, proc = self._populated()
        env2, proc2 = roundtrip(env, proc)
        # Capturing again forces materialization through snapshot_state.
        env3, _ = roundtrip(env2, proc2)
        assert env3.filesystem.read("C:\\x.bin", SYS) == b"d"
        assert env3.services.lookup("svc").name == "svc"


class TestMemoryRestore:
    def test_restores_every_memory_attribute(self):
        """``Memory.restore`` must account for every attribute ``__init__``
        sets — a new field added to Memory without a restore line would
        silently resume with a stale default."""
        restored = Memory.restore(bytes_map={}, regions=[], readonly_ranges=[])
        assert set(vars(restored)) == set(vars(Memory()))

    def test_restore_copies_inputs(self):
        bytes_map = {0x180000: 0x41}
        mem = Memory.restore(
            bytes_map=bytes_map,
            regions=[(0x180000, 0x181000)],
            readonly_ranges=[],
        )
        mem.write_byte(0x180000, 0x42)
        assert bytes_map[0x180000] == 0x41  # caller's dict untouched


class TestChaosDegradation:
    """An injected restore fault degrades one candidate-mechanism to the
    full rerun; outcomes stay identical and the survey completes."""

    def _candidates(self, program):
        report = select_candidates(program)
        return report, [
            c for c in report.candidates if c.influences_control_flow or c.had_failure
        ]

    def test_every_restore_faulting_still_matches_legacy(
        self, family_programs, monkeypatch
    ):
        from repro.winenv import snapshot as env_snapshot_mod

        program = family_programs["conficker"]
        report, candidates = self._candidates(program)
        assert candidates

        analyzer = ImpactAnalyzer()
        legacy = [
            o for c in candidates for o in analyzer.analyze(program, c, report.trace)
        ]
        monkeypatch.setattr(env_snapshot_mod, "_FAULT_EVERY", 1)
        obs.reset()
        degraded = analyzer.analyze_candidates(program, candidates, report.trace)
        # faults actually fired
        assert obs.metrics.total("snapshot.resume_failures") > 0
        def verdicts(outcomes):
            return {
                (o.candidate.key, o.mechanism): (
                    o.immunization,
                    frozenset(o.effects),
                    o.mutation_hits,
                )
                for o in outcomes
            }

        assert verdicts(degraded) == verdicts(legacy)

    def test_intermittent_faults_degrade_only_some_resumes(
        self, family_programs, monkeypatch
    ):
        from repro.winenv import snapshot as env_snapshot_mod

        program = family_programs["zeus"]
        report, candidates = self._candidates(program)
        assert candidates

        monkeypatch.setattr(env_snapshot_mod, "_FAULT_EVERY", 2)
        obs.reset()
        outcomes = ImpactAnalyzer().analyze_candidates(
            program, candidates, report.trace
        )
        assert outcomes  # survey completed despite every-other restore failing
        failures = obs.metrics.total("snapshot.resume_failures")
        assert failures > 0

    def test_fault_plan_degrades_the_same_resumes_at_any_jobs(self, monkeypatch):
        # Restores are counted per capture run, not per process: the plan
        # fails the same candidate-mechanisms however samples land on
        # workers, so every count and analysis is the same at any jobs.
        from repro.core.executor import PipelineConfig, analyze_population
        from repro.corpus import GeneratorConfig, generate_population
        from repro.tracing.serialize import analysis_fingerprint
        from repro.winenv import snapshot as env_snapshot_mod

        programs = [
            s.program for s in generate_population(GeneratorConfig(size=8, seed=5))
        ]
        monkeypatch.setattr(env_snapshot_mod, "_FAULT_EVERY", 3)
        runs = {}
        for jobs in (1, 2):
            obs.reset()
            result = analyze_population(programs, config=PipelineConfig(), jobs=jobs)
            assert not result.failures
            runs[jobs] = (
                obs.metrics.snapshot(),
                [analysis_fingerprint(a) for a in result.analyses],
            )
        assert runs[1][0]["snapshot.resume_failures"] > 0
        assert runs[1] == runs[2]

    def test_fallbacks_journal_the_exception_text(self, family_programs, monkeypatch):
        # The exception text of a failed capture or resume is the ``error``
        # of the journal event that marks the fallback; a fault-free
        # journal carries no ``error`` at all.
        from repro import AutoVac
        from repro.core.snapshot import VmSnapshot
        from repro.obs import summarize_event
        from repro.winenv import snapshot as env_snapshot_mod

        program = family_programs["zeus"]
        clean = AutoVac().analyze(program).journal
        assert not any("error" in e.attrs for e in clean.events)

        monkeypatch.setattr(env_snapshot_mod, "_FAULT_EVERY", 1)
        obs.reset()
        journal = AutoVac().analyze(program).journal
        reruns = [e for e in journal.find("mutation", resumed=False) if "error" in e.attrs]
        assert len(reruns) == obs.metrics.total("snapshot.resume_failures") > 0
        assert all(
            e.attrs["error"] == "injected environment-restore fault (every 1)"
            for e in reruns
        )
        assert "after a failed resume: injected" in summarize_event(reruns[0])
        monkeypatch.undo()

        def refuse(*args, **kwargs):
            raise RuntimeError("capture refused")

        monkeypatch.setattr(VmSnapshot, "capture", refuse)
        obs.reset()
        journal = AutoVac().analyze(program).journal
        captures = journal.find("snapshot.capture")
        assert len(captures) == obs.metrics.total("snapshot.capture_failures") > 0
        assert all(
            e.attrs["ok"] is False and e.attrs["error"] == "capture refused"
            for e in captures
        )
        assert summarize_event(captures[0]).endswith("failed: capture refused")
