"""Golden fingerprints: the pipeline's output pinned to committed values.

Every optimisation must leave each sample's ``SampleAnalysis`` unchanged.
Instead of keeping a second live implementation as an oracle, fresh
analyses are compared against ``tests/golden/analyses.json``:

* per family: :func:`~repro.tracing.serialize.analysis_fingerprint`, the
  ``path -> count`` map of the hot-path profile (counts depend only on what
  executed; seconds are dropped) and a digest of the flight journal, which
  the fingerprint leaves out;
* one digest over the fingerprints of a seeded 60-sample population, and
  one over the same samples' journal digests.

Programs are built fresh for every analysis, so no compiled superblock
region arrives warm from an earlier test.

Regenerate only when a change to the analysis output is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.core import AutoVac
from repro.corpus import FAMILIES, GeneratorConfig, build_family, generate_population
from repro.tracing.serialize import analysis_fingerprint

GOLDEN = Path(__file__).parent / "golden" / "analyses.json"
POPULATION = GeneratorConfig(size=60, seed=42)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def journal_digest(analysis) -> str:
    """sha256 of the sample's flight journal, as ``sort_keys`` JSON."""
    return _sha256(json.dumps(analysis.journal.to_dict(), sort_keys=True))


def family_golden(name: str) -> dict:
    with obs.profiled():
        analysis = AutoVac().analyze(build_family(name))
    return {
        "fingerprint": analysis_fingerprint(analysis),
        "journal": journal_digest(analysis),
        "profile": {path: cell[0] for path, cell in sorted(analysis.profile.items())},
    }


def population_digests(config: GeneratorConfig = POPULATION) -> dict:
    """Digests over the population's fingerprints and journal digests,
    one line per sample in corpus order."""
    autovac = AutoVac()
    analyses = [autovac.analyze(sample.program) for sample in generate_population(config)]
    return {
        "digest": _sha256("\n".join(analysis_fingerprint(a) for a in analyses)),
        "journal_digest": _sha256("\n".join(journal_digest(a) for a in analyses)),
    }


def compute() -> dict:
    return {
        "families": {name: family_golden(name) for name in sorted(FAMILIES)},
        "population": {
            "size": POPULATION.size,
            "seed": POPULATION.seed,
            **population_digests(),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_matches_golden(family, golden):
    expected = golden["families"][family]
    actual = family_golden(family)
    assert actual["fingerprint"] == expected["fingerprint"]
    assert actual["journal"] == expected["journal"]
    assert actual["profile"] == expected["profile"]


def test_population_matches_golden(golden):
    expected = golden["population"]
    config = GeneratorConfig(size=expected["size"], seed=expected["seed"])
    actual = population_digests(config)
    assert actual["digest"] == expected["digest"]
    assert actual["journal_digest"] == expected["journal_digest"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
