"""End-to-end pipeline tests on the named families and the population."""

import pytest

from repro import AutoVac, SystemEnvironment, VaccinePackage, deploy
from repro.core import DeliveryKind, IdentifierKind, Immunization, Mechanism, run_sample
from repro.core.stages import ExclusivenessStage, default_stages
from repro.corpus import (
    benign_suite,
    build_control_dependence_evader,
    build_family,
    generate_population,
    GeneratorConfig,
)
from repro.winenv import MachineIdentity, ResourceType


@pytest.fixture(scope="module")
def analyses(family_programs):
    av = AutoVac()
    return {name: av.analyze(prog) for name, prog in family_programs.items()}


class TestFamilyVaccines:
    def test_every_family_yields_vaccines(self, analyses):
        for name, analysis in analyses.items():
            assert analysis.vaccines, f"{name} produced no vaccines"

    def test_zeus_file_vaccine_matches_paper(self, analyses):
        vaccines = analyses["zeus"].vaccines
        file_vaccine = next(v for v in vaccines if v.resource_type is ResourceType.FILE)
        assert file_vaccine.identifier == "c:\\windows\\system32\\sdra64.exe"
        assert file_vaccine.immunization is Immunization.FULL
        assert file_vaccine.delivery is DeliveryKind.DIRECT_INJECTION

    def test_zeus_avira_mutex_vaccine(self, analyses):
        vaccines = analyses["zeus"].vaccines
        mutex = next(v for v in vaccines if v.resource_type is ResourceType.MUTEX)
        assert mutex.identifier == "_AVIRA_2109"
        assert mutex.immunization.is_partial

    def test_conficker_algorithm_deterministic_mutex(self, analyses):
        vaccines = analyses["conficker"].vaccines
        mutex = next(v for v in vaccines if v.resource_type is ResourceType.MUTEX)
        assert mutex.identifier_kind is IdentifierKind.ALGORITHM_DETERMINISTIC
        assert mutex.slice is not None
        assert mutex.delivery is DeliveryKind.DAEMON
        assert mutex.immunization is Immunization.FULL

    def test_qakbot_registry_marker_vaccine(self, analyses):
        vaccines = analyses["qakbot"].vaccines
        reg = next(v for v in vaccines if v.resource_type is ResourceType.REGISTRY)
        assert reg.identifier == "hklm\\software\\microsoft\\sqinstalled"
        assert reg.immunization is Immunization.FULL

    def test_qakbot_partial_static_mutex(self, analyses):
        vaccines = analyses["qakbot"].vaccines
        partial = next(v for v in vaccines
                       if v.identifier_kind is IdentifierKind.PARTIAL_STATIC)
        assert partial.pattern.startswith("^qbot")

    def test_poisonivy_marker_mutex(self, analyses):
        vaccines = analyses["poisonivy"].vaccines
        mutex = next(v for v in vaccines if v.resource_type is ResourceType.MUTEX)
        assert mutex.identifier == ")!VoqA.I4"

    def test_sality_kernel_vaccine(self, analyses):
        vaccines = analyses["sality"].vaccines
        sysfile = next(v for v in vaccines if v.identifier.endswith(".sys"))
        assert sysfile.immunization is Immunization.TYPE_I_KERNEL

    def test_run_keys_never_become_vaccines(self, analyses):
        for analysis in analyses.values():
            for v in analysis.vaccines:
                assert "currentversion\\run" not in v.identifier


class TestImmunizationEndToEnd:
    def _immunize_and_run(self, program, vaccines, identity=None):
        host = SystemEnvironment(identity=identity, rng_seed=777)
        deploy(VaccinePackage(vaccines=vaccines), host)
        return run_sample(program, environment=host, record_instructions=False), host

    def test_zeus_blocked_on_vaccinated_host(self, family_programs, analyses):
        run, host = self._immunize_and_run(family_programs["zeus"], analyses["zeus"].vaccines)
        assert run.trace.terminated
        explorer = host.processes.find_by_name("explorer.exe")
        assert not explorer.was_injected

    def test_conficker_blocked_on_different_machine(self, family_programs, analyses):
        run, host = self._immunize_and_run(
            family_programs["conficker"], analyses["conficker"].vaccines,
            identity=MachineIdentity(computer_name="TOTALLY-DIFFERENT-HOST"),
        )
        assert run.trace.terminated
        assert run.environment.network.bytes_sent_by(run.process.pid) == 0

    def test_sality_driver_blocked(self, family_programs, analyses):
        run, host = self._immunize_and_run(family_programs["sality"], analyses["sality"].vaccines)
        svc = run.environment.services.lookup("amsint32")
        # Either never created, or it is the injected decoy — in no case did
        # the malware's kernel driver get registered and started.
        assert svc is None or (not svc.is_kernel_driver and svc.state.value == "stopped")

    def test_unvaccinated_host_still_infected(self, family_programs):
        run = run_sample(family_programs["zeus"], record_instructions=False)
        explorer = run.environment.processes.find_by_name("explorer.exe")
        assert explorer.was_injected

    def test_vaccines_survive_package_roundtrip(self, family_programs, analyses):
        pkg = VaccinePackage.from_json(
            VaccinePackage(vaccines=analyses["conficker"].vaccines).to_json()
        )
        run, host = self._immunize_and_run(
            family_programs["conficker"], pkg.vaccines,
            identity=MachineIdentity(computer_name="ROUNDTRIP-BOX"),
        )
        assert run.trace.terminated


class TestPipelineControls:
    def test_exclusiveness_disabled_yields_more_candidates(self, family_programs):
        program = build_family("sality")
        no_filter = tuple(
            ExclusivenessStage(enforce=False) if isinstance(s, ExclusivenessStage) else s
            for s in default_stages()
        )
        with_excl = AutoVac().analyze(program)
        without = AutoVac(stages=no_filter).analyze(program)
        assert len(without.vaccines) >= len(with_excl.vaccines)

    def test_clinic_integration(self, family_programs, benign_programs):
        av = AutoVac(clinic_programs=benign_programs)
        analysis = av.analyze(family_programs["zeus"])
        assert analysis.clinic is not None
        assert analysis.clinic.clean
        assert analysis.vaccines

    def test_evasive_sample_missed(self):
        analysis = AutoVac().analyze(build_control_dependence_evader())
        assert analysis.filtered_reason is not None
        assert not analysis.vaccines

    def test_timings_recorded(self, analyses):
        timing = analyses["zeus"].timings
        assert {"phase1", "exclusiveness", "impact", "determinism"} <= set(timing)


class TestPopulation:
    @pytest.fixture(scope="class")
    def population_result(self):
        samples = generate_population(GeneratorConfig(size=60, seed=13))
        av = AutoVac()
        return samples, av.analyze_population([s.program for s in samples])

    def test_yield_is_minority(self, population_result):
        samples, result = population_result
        assert 0 < result.samples_with_vaccines < len(samples) * 0.6

    def test_table4_shape_file_dominates(self, population_result):
        _, result = population_result
        table = result.count_by_resource_and_immunization()
        totals = {rt: sum(row.values()) for rt, row in table.items()}
        assert totals.get("file", 0) >= max(totals.get("window", 0), totals.get("service", 0))

    def test_static_identifiers_dominate(self, population_result):
        _, result = population_result
        kinds = result.count_by_identifier_kind()
        static = kinds.get("static", 0)
        other = sum(v for k, v in kinds.items() if k != "static")
        assert static > other

    def test_direct_injection_dominates(self, population_result):
        _, result = population_result
        delivery = result.count_by_delivery()
        assert delivery.get("direct_injection", 0) >= delivery.get("daemon", 0)

    def test_occurrence_influence_rate_high(self, population_result):
        _, result = population_result
        stats = result.occurrence_stats()
        assert stats["total"] > 0
        assert stats["influential"] / stats["total"] > 0.4

    def test_generator_deterministic(self):
        a = generate_population(GeneratorConfig(size=10, seed=5))
        b = generate_population(GeneratorConfig(size=10, seed=5))
        assert [s.program.source for s in a] == [s.program.source for s in b]

    def test_categories_follow_table2_ordering(self):
        from repro.corpus import category_distribution

        samples = generate_population(GeneratorConfig(size=400, seed=1))
        dist = category_distribution(samples)
        assert dist["backdoor"] > dist["downloader"] > dist["trojan"]
        assert dist["trojan"] > dist.get("virus", 0)
