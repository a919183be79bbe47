"""Tests for the outbreak/campaign simulation and the stats helpers."""

import pytest

from repro import AutoVac, VaccinePackage
from repro.analysis.stats import (
    chi_square_statistic,
    geometric_mean_ratio,
    normalize,
    rank_agreement,
    summarize,
    total_variation,
)
from repro.campaign import CampaignResult, Fleet, attempt_infection, simulate_outbreak
from repro.corpus import build_family


@pytest.fixture(scope="module")
def conficker_package(family_programs):
    analysis = AutoVac().analyze(family_programs["conficker"])
    return family_programs["conficker"], VaccinePackage(vaccines=analysis.vaccines)


class TestFleet:
    def test_fleet_machines_distinct(self):
        fleet = Fleet(5, seed=1)
        names = {m.name for m in fleet.machines}
        assert len(names) == 5

    def test_vaccinate_coverage(self, conficker_package):
        _, package = conficker_package
        fleet = Fleet(10, seed=2)
        count = fleet.vaccinate(package, coverage=0.5)
        assert count == 5
        assert sum(m.vaccinated for m in fleet.machines) == 5

    def test_vaccinate_idempotent_on_vaccinated(self, conficker_package):
        _, package = conficker_package
        fleet = Fleet(4, seed=2)
        fleet.vaccinate(package, coverage=1.0)
        assert fleet.vaccinate(package, coverage=1.0) == 0


class TestInfectionMechanics:
    def test_infection_succeeds_on_clean_machine(self, conficker_package):
        worm, _ = conficker_package
        fleet = Fleet(1, seed=3)
        assert attempt_infection(worm, fleet.machines[0])

    def test_reinfection_fails_on_infected_machine(self, conficker_package):
        worm, _ = conficker_package
        fleet = Fleet(1, seed=3)
        assert attempt_infection(worm, fleet.machines[0])
        assert not attempt_infection(worm, fleet.machines[0])  # marker present

    def test_infection_fails_on_vaccinated_machine(self, conficker_package):
        worm, package = conficker_package
        fleet = Fleet(1, seed=3)
        fleet.vaccinate(package, coverage=1.0)
        assert not attempt_infection(worm, fleet.machines[0])

    def test_attempts_are_counted_into_the_result(self, conficker_package):
        worm, package = conficker_package
        result = CampaignResult()
        clean = Fleet(1, seed=3).machines[0]
        assert attempt_infection(worm, clean, result=result)
        assert not attempt_infection(worm, clean, result=result)  # marker present
        fleet = Fleet(1, seed=3)
        fleet.vaccinate(package, coverage=1.0)
        assert not attempt_infection(worm, fleet.machines[0], result=result)
        assert result.infection_attempts == 3
        assert (result.infections, result.attempts_blocked) == (1, 2)
        # A block by the worm's own marker has no rule to blame; only the
        # vaccinated host's block can be attributed.
        assert sum(result.blocked_by.values()) <= 1


class TestOutbreak:
    def test_unchecked_outbreak_spreads(self, conficker_package):
        worm, _ = conficker_package
        result = simulate_outbreak(worm, Fleet(12, seed=5), rounds=6)
        assert result.final_infection_rate > 0.8
        infected_over_time = [s.infected for s in result.history]
        assert infected_over_time == sorted(infected_over_time)  # monotone

    def test_campaign_caps_outbreak(self, conficker_package):
        worm, package = conficker_package
        result = simulate_outbreak(
            worm, Fleet(12, seed=5), rounds=6,
            vaccine_package=package, vaccinate_at_round=1,
        )
        assert result.final_infection_rate < 0.5

    def test_coverage_monotonicity(self, conficker_package):
        worm, package = conficker_package
        rates = []
        for coverage in (0.0, 0.5, 1.0):
            result = simulate_outbreak(
                worm, Fleet(10, seed=9), rounds=5,
                vaccine_package=package if coverage else None,
                vaccinate_at_round=1, coverage=coverage,
            )
            rates.append(result.final_infection_rate)
        assert rates[2] <= rates[1] <= rates[0]

    def test_history_bookkeeping(self, conficker_package):
        worm, package = conficker_package
        result = simulate_outbreak(worm, Fleet(6, seed=1), rounds=3,
                                   vaccine_package=package, vaccinate_at_round=2)
        assert [s.round for s in result.history] == [0, 1, 2, 3]
        assert result.history[-1].vaccinated > 0
        assert result.infected_at(0) >= 1


class TestStats:
    def test_normalize(self):
        assert normalize({"a": 1, "b": 3}) == {"a": 0.25, "b": 0.75}
        assert normalize({}) == {}

    def test_total_variation_bounds(self):
        assert total_variation({"a": 1}, {"a": 1}) == 0.0
        assert total_variation({"a": 1}, {"b": 1}) == 1.0

    def test_total_variation_accepts_counts(self):
        assert total_variation({"a": 2, "b": 2}, {"a": 50, "b": 50}) == 0.0

    def test_rank_agreement_perfect_and_inverted(self):
        p = {"a": 3, "b": 2, "c": 1}
        assert rank_agreement(p, p) == 1.0
        assert rank_agreement(p, {"a": 1, "b": 2, "c": 3}) == 0.0

    def test_chi_square_zero_for_exact_match(self):
        observed = {"a": 50, "b": 50}
        assert chi_square_statistic(observed, {"a": 0.5, "b": 0.5}) == 0.0

    def test_geometric_mean_ratio_identity(self):
        d = {"a": 0.4, "b": 0.6}
        assert geometric_mean_ratio(d, d) == pytest.approx(1.0)

    def test_summarize(self):
        assert summarize([3.0, 1.0, 2.0]) == (1.0, 2.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            summarize([])

    def test_paper_table2_distance_small(self):
        """The generator weights themselves are the paper's Table II."""
        from repro.corpus import CATEGORY_WEIGHTS

        paper = {"backdoor": 42.07, "downloader": 33.44, "trojan": 10.72,
                 "worm": 6.06, "adware": 4.25, "virus": 3.43}
        assert total_variation(CATEGORY_WEIGHTS, paper) < 0.01
        assert rank_agreement(CATEGORY_WEIGHTS, paper) == 1.0


class TestRustock:
    def test_pipeline_extracts_pipe_vaccine(self):
        from repro.corpus import build_rustock
        from repro.winenv import ResourceType

        analysis = AutoVac().analyze(build_rustock())
        pipe = next(v for v in analysis.vaccines if "pipe" in v.identifier)
        assert pipe.resource_type is ResourceType.FILE
        assert pipe.is_full_immunization

    def test_mapping_marker_vaccine(self):
        from repro.corpus import build_rustock
        from repro.winenv import ResourceType

        analysis = AutoVac().analyze(build_rustock())
        mapping = next(v for v in analysis.vaccines if v.identifier == "RstkShm_4")
        assert mapping.resource_type is ResourceType.MUTEX

    def test_vaccinated_host_protected(self):
        from repro import SystemEnvironment, deploy
        from repro.core import run_sample
        from repro.corpus import build_rustock

        program = build_rustock()
        analysis = AutoVac().analyze(program)
        host = SystemEnvironment()
        deploy(VaccinePackage(vaccines=analysis.vaccines), host)
        run = run_sample(program, environment=host, record_instructions=False)
        assert run.trace.terminated
        assert run.environment.services.lookup("rstkdrv") is None or \
            not run.environment.services.lookup("rstkdrv").is_kernel_driver
