#!/usr/bin/env python3
"""Regenerate ``expected.json``: the outputs every benchmark operation is
checked against, computed from the code under ``src/``.

Run it only when a change is meant to alter analysis results, and commit
the new file with that change::

    python3 perfbench/make_expected.py

It takes about three minutes on two cores (33 population seeds).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    EXPECTED_PATH,
    Families,
    Population,
    ProtectedHost,
)


def population_record(seed: int) -> dict:
    workload = Population(seed, {"population": {}})
    workload.setup()
    for program in workload.next_pass():
        workload.check(program, workload.output(program, workload.run(program)))
    return workload.pass_record()


def families_expected() -> dict:
    workload = Families(0, {})
    workload.setup()
    return {p.name: workload.output(p, workload.run(p)) for p in workload.next_pass()}


def host_expected() -> dict:
    workload = ProtectedHost(0, {})
    workload.setup()
    runs = {}
    per_pass = []
    for _ in range(2):
        for program in workload.next_pass():
            digest = workload.output(program, workload.run(program))
            if runs.setdefault(program.name, digest) != digest:
                raise SystemExit(f"{program.name}: run-to-run API sequence differs")
        per_pass.append(workload.pass_counts())
    if per_pass[0] != per_pass[1]:
        raise SystemExit(f"daemon counts differ between passes: {per_pass}")
    return {"runs": dict(sorted(runs.items())), "per_pass": per_pass[0]}


#: Population seeds with a committed digest (42 is the survey default).
SEEDS = list(range(32)) + [42]


def main() -> int:
    jobs = min(2, os.cpu_count() or 1)
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        records = pool.map(population_record, SEEDS)
    expected = {
        "families": families_expected(),
        "population": {str(s): r for s, r in zip(SEEDS, records)},
        "protected_host": host_expected(),
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH} ({len(SEEDS)} population seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
