"""EXPERIMENTS.md quotes the committed bench artifacts.

Each check reads a number from the artifact a bench wrote under
``benchmarks/_artifacts/`` and the number EXPERIMENTS.md quotes for it, and
fails when they disagree — so the document cannot drift from the results
it reports.  Nothing is regenerated here; a bench run that changes an
artifact must update the quote in the same change.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ROOT / "benchmarks" / "_artifacts"


@pytest.fixture(scope="module")
def experiments() -> str:
    return (ROOT / "EXPERIMENTS.md").read_text()


def section(text: str, heading: str) -> str:
    """The body of the ``## <heading>…`` section, up to the next one."""
    start = text.index("\n## " + heading)
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def measured_cell(body: str, row: str) -> str:
    """Last cell of the markdown table row whose first cell is ``row``."""
    for line in body.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] == row:
            return cells[-1]
    raise AssertionError(f"no table row {row!r}")


def artifact(name: str) -> str:
    return (ARTIFACTS / name).read_text()


def test_phase1_statistics(experiments):
    stats = artifact("phase1_stats.txt")
    tracked = int(re.search(r"occurrences tracked: (\d+)", stats).group(1))
    influential, pct = re.search(
        r"influence control flow: (\d+) \((\d+\.\d)%\)", stats
    ).groups()
    body = section(experiments, "Phase-I statistics")
    assert measured_cell(body, "API occurrences tracked").startswith(f"{tracked:,} ")
    assert measured_cell(body, "occurrences that can deviate execution") == (
        f"{pct}% ({int(influential):,})"
    )


def test_figure3_shares(experiments):
    shares: Dict[str, str] = dict(
        re.findall(r"^(\w+)\s+(\d+\.\d%)\s", artifact("fig3.txt"), re.MULTILINE)
    )
    assert "file" in shares, shares
    body = section(experiments, "Figure 3")
    for resource, share in shares.items():
        assert measured_cell(body, resource) == share, resource


def test_delivery_split(experiments):
    lines = artifact("table5_lower.txt").splitlines()
    header, totals = lines[1].split(), lines[-1].split()
    assert header[0] == "resource" and totals[0] == "TOTAL"
    column = dict(zip(header[1:], (int(n) for n in totals[1:])))
    daemon, direct, total = column["daemon"], column["direct_injection"], column["total"]
    expected = (
        f"{direct} direct / {daemon} daemon "
        f"({round(100 * direct / total)}%/{round(100 * daemon / total)}%)"
    )
    for heading in ("Table IV —", "Table V —"):
        quotes = re.findall(
            r"\d+ direct / \d+ daemon \(\d+%/\d+%\)", section(experiments, heading)
        )
        assert quotes, heading
        assert all(q == expected for q in quotes), (heading, quotes, expected)


def test_daemon_hook_overhead(experiments):
    pct = re.search(
        r"^hook overhead: (\d+\.\d)%$", artifact("perf_daemon.txt"), re.MULTILINE
    ).group(1)
    cell = measured_cell(
        section(experiments, "§VI-F"), "daemon hook overhead on benign workload"
    )
    assert cell.startswith(f"{pct}% (`hook overhead: {pct}%` in `perf_daemon.txt`")
    # At or above the paper's <4.5% the row must say it deviates.
    assert ("deviation" in cell) == (float(pct) >= 4.5), cell
