"""The benchmark's three workloads and the output check of each.

Every workload builds its inputs in ``setup`` (timed, reported as
``setup_s``) and then runs in *passes*, one operation per input, in an
order drawn from the seeded RNG.  ``families`` and ``population`` rebuild
the guest programs from source every pass, so every pass starts with cold
per-program caches (predecoded handlers, superblock regions), as
``repro analyze`` and ``repro survey`` see each sample once.
``protected_host`` builds its programs once in ``setup`` and warms them
up there, as ``benchmarks/bench_perf_overhead.py`` does: a protected host
runs the same installed software again and again.  Either way every pass
does the same work, so per-pass counts repeat exactly and latency does
not drift as caches warm.

``run`` executes one operation and returns what its output check needs;
``check`` compares that against the committed expectations
(``expected.json``); ``end_pass`` checks what only a whole pass shows.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import AutoVac, SystemEnvironment
from repro.core.runner import run_sample
from repro.corpus import GeneratorConfig, all_families, benign_suite, generate_population
from repro.delivery.daemon import VaccineDaemon
from repro.vm.superblock import DEFAULT_THRESHOLD

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: Results earlier runs in this checkout saw, keyed by the measured sources
#: and the benchmark's own code: digests of seeds with none committed, and
#: traced runs' exact counts.
STATE_DIR = HERE / ".state"
SRC = HERE.parent / "src"
#: The benchmark files that shape a pass (sizes, sweeps, spans).
BENCH_FILES = ("run.py", "workloads.py", "layers.py")

#: Size of the generated corpus: ``repro survey``'s default of 240.
POPULATION_SIZE = 240
#: Warm-up sweeps over the host's programs in ``protected_host`` set-up.  A
#: superblock region compiles on its ``DEFAULT_THRESHOLD``-th entry and
#: every hot region is entered at least once per run, so after this many
#: sweeps no region compiles during a pass (the exact-count check would
#: see the superblock entries change if one did).
WARM_SWEEPS = DEFAULT_THRESHOLD


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _files_digest(root: Path, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((root / name).read_bytes())
    return digest.hexdigest()[:16]


def source_digest() -> str:
    """A short digest of every measured source file."""
    names = sorted(str(p.relative_to(SRC)) for p in (SRC / "repro").rglob("*.py"))
    return _files_digest(SRC, names)


def remembered(kind: str, key: str, value: dict) -> dict:
    """What an earlier run of these sources and this benchmark code stored
    under ``kind``/``key``; the first run stores ``value`` and gets it back."""
    bench = _files_digest(HERE, BENCH_FILES)
    path = STATE_DIR / f"{kind}-{key}-{source_digest()}-{bench}.json"
    if path.exists():
        return json.loads(path.read_text())
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value, sort_keys=True))
    tmp.replace(path)
    return value


def vaccine_rows(analysis) -> List[List[str]]:
    """The per-vaccine tuple the output check compares, sorted."""
    return sorted(
        [
            v.resource_type.value,
            v.identifier,
            v.identifier_kind.value,
            v.immunization.value,
            v.mechanism.value,
        ]
        for v in analysis.vaccines
    )


def analysis_summary(analysis) -> dict:
    return {
        "vaccines": vaccine_rows(analysis),
        "deny": len(analysis.policy.deny) if analysis.policy is not None else 0,
        "filtered": analysis.filtered_reason is not None,
    }


def api_sequence(trace) -> List[Tuple]:
    return [
        (e.api, e.identifier, e.retval, e.success, e.error, e.mutated)
        for e in trace.api_calls
    ]


def sequence_digest(trace) -> str:
    return _digest(api_sequence(trace))


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def output_digest(outputs: List[Tuple[str, object]]) -> str:
    """One digest over a pass's ``(input name, output)`` pairs, in an order
    that does not depend on the seeded shuffle."""
    return _digest(sorted(json.dumps(pair, sort_keys=True) for pair in outputs))


class OpCounts(NamedTuple):
    """Analysis-side counts one operation contributes to the traced run."""

    outcomes: int = 0
    effective: int = 0
    vaccines: int = 0


def analysis_counts(analysis) -> OpCounts:
    return OpCounts(
        outcomes=len(analysis.impacts),
        effective=sum(1 for o in analysis.impacts if o.is_effective),
        vaccines=len(analysis.vaccines),
    )


class Workload:
    name = ""

    def __init__(self, seed: int, expected: dict) -> None:
        self.seed = seed
        self.expected = expected
        self.rng = random.Random(seed)
        self.autovac: Optional[AutoVac] = None

    def setup(self) -> None:
        raise NotImplementedError

    def next_pass(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def output(self, op, result):
        """The JSON-able output of one operation that the check compares."""
        return analysis_summary(result)

    def check(self, op, output) -> bool:
        raise NotImplementedError

    def counts(self, result) -> OpCounts:
        return analysis_counts(result)

    def prepare_check(self) -> None:
        """Build the output check's oracle (after setup, untimed)."""

    def end_pass(self) -> Optional[str]:
        """Whole-pass check: ``None`` when it holds, else the reason."""
        return None

    def pass_counts(self) -> Dict[str, int]:
        """Workload-owned per-pass counts (the daemon's, on the host)."""
        return {}


class Families(Workload):
    """``AutoVac().analyze(p)`` over the six hand-written families."""

    name = "families"

    def setup(self) -> None:
        all_families()
        self.autovac = AutoVac()

    def next_pass(self) -> list:
        programs = all_families()
        self.rng.shuffle(programs)
        return programs

    def run(self, program):
        return self.autovac.analyze(program)

    def check(self, program, output) -> bool:
        return output == self.expected["families"].get(program.name)


class Population(Workload):
    """The same call over the seeded generated corpus, in corpus order."""

    name = "population"

    def __init__(self, seed: int, expected: dict) -> None:
        super().__init__(seed, expected)
        self._summaries: List[dict] = []

    def _corpus(self) -> list:
        config = GeneratorConfig(size=POPULATION_SIZE, seed=self.seed)
        return [s.program for s in generate_population(config)]

    def setup(self) -> None:
        self._corpus()
        self.autovac = AutoVac()

    def next_pass(self) -> list:
        self._summaries = []
        return self._corpus()

    def run(self, program):
        return self.autovac.analyze(program)

    def check(self, program, output) -> bool:
        self._summaries.append(output)
        return True

    def pass_record(self) -> dict:
        return {
            "digest": _digest(self._summaries),
            "samples": len(self._summaries),
            "filtered": sum(1 for s in self._summaries if s["filtered"]),
            "with_vaccines": sum(1 for s in self._summaries if s["vaccines"]),
        }

    def end_pass(self) -> Optional[str]:
        record = self.pass_record()
        want = self.expected["population"].get(str(self.seed))
        if want is None:
            # No committed digest for this seed: the first pass run on these
            # sources fixes it, and every later pass must match.
            want = remembered("population", str(self.seed), record)
        if record != want:
            return f"population seed {self.seed}: got {record}, expected {want}"
        return None


class ProtectedHost(Workload):
    """Unrecorded runs of benign software and the six families on a host
    whose daemon holds every family vaccine and temporal policy."""

    name = "protected_host"

    def setup(self) -> None:
        self.autovac = AutoVac()
        analyses = [self.autovac.analyze(p) for p in all_families()]
        self.daemon = VaccineDaemon(
            vaccines=[v for a in analyses for v in a.vaccines],
            policies=[a.policy for a in analyses if a.policy is not None],
        )
        self.host = SystemEnvironment()
        self.daemon.install(self.host)
        self.benign_names = {p.name for p in benign_suite()}
        self.programs = benign_suite() + all_families()
        for _ in range(WARM_SWEEPS):
            for program in self.programs:
                self.run(program)
        self._seen = self._matched = 0

    def prepare_check(self) -> None:
        """Each benign program's API sequence on an unvaccinated host (the
        oracle ``check`` holds vaccinated runs to; not part of setup)."""
        clean = SystemEnvironment()
        self.reference = {
            p.name: sequence_digest(
                run_sample(p, environment=clean, record_instructions=False).trace
            )
            for p in benign_suite()
        }

    def next_pass(self) -> list:
        """One sweep over the warm programs, in a seeded order."""
        self._seen = self.daemon.calls_seen
        self._matched = self.daemon.calls_matched
        self.rng.shuffle(self.programs)
        return list(self.programs)

    def run(self, program):
        return run_sample(program, environment=self.host, record_instructions=False)

    def output(self, program, result) -> str:
        return sequence_digest(result.trace)

    def check(self, program, output) -> bool:
        if program.name in self.benign_names and output != self.reference[program.name]:
            return False
        return output == self.expected["protected_host"]["runs"].get(program.name)

    def counts(self, result) -> OpCounts:
        return OpCounts()

    def pass_counts(self) -> Dict[str, int]:
        return {
            "delivery.calls_seen": self.daemon.calls_seen - self._seen,
            "delivery.calls_matched": self.daemon.calls_matched - self._matched,
        }

    def end_pass(self) -> Optional[str]:
        got = self.pass_counts()
        want = self.expected["protected_host"]["per_pass"]
        if got != want:
            return f"daemon counts per pass: got {got}, expected {want}"
        return None


WORKLOADS = {w.name: w for w in (Families, Population, ProtectedHost)}
