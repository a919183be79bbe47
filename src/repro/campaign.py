"""Vaccination-campaign simulation (paper §I and §II "Use Case of Vaccines").

"If we were able to generate vaccines for a piece of malware, we would have
been able to prevent it from infecting a wider range of machines
(considering the case of botnets). … If we can capture the binary at the
initial infection stage, we can quickly generate vaccines and protect our
uninfected machines from the attacks."

This module makes that story measurable: a fleet of simulated machines, a
worm that actually *executes* on each machine it reaches (infection succeeds
only if the sample completes its infection logic there), and a vaccination
campaign deployed at some round to some coverage.  The output is the
infection curve — the epidemiological view of what a vaccine buys.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.policy import TemporalApiPolicy

from . import obs
from .core.runner import run_sample
from .delivery.engine import RuleEngine
from .delivery.package import VaccinePackage, deploy
from .vm.program import Program
from .winenv.environment import MachineIdentity, SystemEnvironment


@dataclass
class FleetMachine:
    """One host in the fleet."""

    name: str
    environment: SystemEnvironment
    infected: bool = False
    vaccinated: bool = False
    infected_round: Optional[int] = None
    #: The shared rule engine the machine's protection was compiled from —
    #: campaign accounting attributes blocked attempts through it, with the
    #: exact matching semantics the daemon enforced.
    enforcement: Optional[RuleEngine] = None


@dataclass
class RoundStats:
    round: int
    infected: int
    vaccinated: int
    newly_infected: int


@dataclass
class CampaignResult:
    history: List[RoundStats] = field(default_factory=list)
    machines: List[FleetMachine] = field(default_factory=list)
    #: Every attempt is an infection or a blocked attempt.
    infection_attempts: int = 0
    infections: int = 0
    attempts_blocked: int = 0
    #: Blocked attempts on vaccinated hosts per ``(rule origin, resource
    #: type)`` of the first rule the worm hit.
    blocked_by: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def final_infection_rate(self) -> float:
        if not self.machines:
            return 0.0
        return sum(m.infected for m in self.machines) / len(self.machines)

    @property
    def peak_new_infections(self) -> int:
        return max((r.newly_infected for r in self.history), default=0)

    def infected_at(self, round_index: int) -> int:
        for stats in self.history:
            if stats.round == round_index:
                return stats.infected
        return 0


class Fleet:
    """A set of simulated machines reachable by a propagating worm."""

    def __init__(self, size: int, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.machines: List[FleetMachine] = []
        for i in range(size):
            identity = MachineIdentity(computer_name=f"FLEET-{i:03d}")
            env = SystemEnvironment(identity=identity, rng_seed=seed * 1000 + i)
            self.machines.append(FleetMachine(name=identity.computer_name, environment=env))

    def vaccinate(self, package: VaccinePackage, coverage: float = 1.0,
                  only_uninfected: bool = True,
                  policies: Sequence["TemporalApiPolicy"] = ()) -> int:
        """Deploy the package to a fraction of the fleet (uninfected hosts
        first — the paper's 'protect our uninfected machines' scenario).
        ``policies`` ride along in each host's daemon; the fleet shares one
        compiled attribution engine."""
        eligible = [
            m for m in self.machines
            if not m.vaccinated and (not m.infected or not only_uninfected)
        ]
        engine = RuleEngine.compile(vaccines=package.vaccines, policies=policies)
        count = int(round(coverage * len(eligible)))
        for machine in self.rng.sample(eligible, min(count, len(eligible))):
            deploy(package, machine.environment, policies=policies)
            machine.vaccinated = True
            machine.enforcement = engine
        return count


def attempt_infection(
    worm: Program,
    machine: FleetMachine,
    max_steps: int = 200_000,
    result: Optional[CampaignResult] = None,
) -> bool:
    """Run the worm on the machine for real; infection = the sample completes
    its infection logic (doesn't self-terminate at a vaccine/marker check).
    The attempt, and what blocked it, is counted into ``result`` if given."""
    run = run_sample(
        worm,
        environment=machine.environment,
        record_instructions=False,
        max_steps=max_steps,
        clone_environment=False,  # infections persist on the machine
    )
    # Terminated == bailed at a check (marker present / vaccine hit).
    infected = not run.trace.terminated
    if result is None:
        return infected
    result.infection_attempts += 1
    if infected:
        result.infections += 1
        return infected
    result.attempts_blocked += 1
    if machine.enforcement is not None:
        # Attribute the block through the same engine the daemon enforced:
        # the first worm access a rule matches names the artifact that
        # stopped the infection (vaccine vs policy, per resource type).
        t0 = time.perf_counter() if obs.prof.enabled else 0.0
        for event in run.trace.api_calls:
            rule = machine.enforcement.match(
                event.resource_type, event.identifier, event.operation
            )
            if rule is not None:
                key = (rule.origin, rule.resource_type.value)
                result.blocked_by[key] = result.blocked_by.get(key, 0) + 1
                break
        if obs.prof.enabled:
            obs.prof.add("rules;campaign", time.perf_counter() - t0)
    return infected


def build_fleet_package(
    captured: Sequence[Program],
    jobs: int = 1,
    cache=None,
    config=None,
    description: str = "fleet vaccination campaign",
) -> VaccinePackage:
    """The paper's response loop, made fast: binaries captured at the
    initial infection stage go through the population executor (``jobs``
    worker processes, optional result cache) and every extracted vaccine is
    packaged for fleet-wide rollout via :meth:`Fleet.vaccinate`."""
    from .core.executor import PipelineConfig, analyze_population

    result = analyze_population(
        list(captured),
        config=config if config is not None else PipelineConfig(),
        jobs=jobs,
        cache=cache,
    )
    return VaccinePackage(vaccines=result.vaccines, description=description)


def simulate_outbreak(
    worm: Program,
    fleet: Fleet,
    rounds: int = 8,
    initial_infections: int = 1,
    contacts_per_infected: int = 2,
    vaccine_package: Optional[VaccinePackage] = None,
    vaccinate_at_round: int = 2,
    coverage: float = 1.0,
    max_steps: int = 200_000,
) -> CampaignResult:
    """Discrete-round outbreak: each infected machine attacks
    ``contacts_per_infected`` random peers per round.  Optionally deploy a
    vaccination campaign at ``vaccinate_at_round`` (the paper's 'capture the
    binary at the initial infection stage, quickly generate vaccines')."""
    result = CampaignResult(machines=fleet.machines)
    seeds = fleet.rng.sample(fleet.machines, min(initial_infections, len(fleet.machines)))
    newly = 0
    for machine in seeds:
        if attempt_infection(worm, machine, max_steps=max_steps, result=result):
            machine.infected = True
            machine.infected_round = 0
            newly += 1
    result.history.append(RoundStats(
        round=0,
        infected=sum(m.infected for m in fleet.machines),
        vaccinated=sum(m.vaccinated for m in fleet.machines),
        newly_infected=newly,
    ))

    for round_index in range(1, rounds + 1):
        if vaccine_package is not None and round_index == vaccinate_at_round:
            fleet.vaccinate(vaccine_package, coverage=coverage)

        attackers = [m for m in fleet.machines if m.infected]
        newly = 0
        for attacker in attackers:
            peers = [m for m in fleet.machines if m is not attacker]
            targets = fleet.rng.sample(peers, min(contacts_per_infected, len(peers)))
            for target in targets:
                if target.infected:
                    continue
                if attempt_infection(worm, target, max_steps=max_steps, result=result):
                    target.infected = True
                    target.infected_round = round_index
                    newly += 1
        result.history.append(RoundStats(
            round=round_index,
            infected=sum(m.infected for m in fleet.machines),
            vaccinated=sum(m.vaccinated for m in fleet.machines),
            newly_infected=newly,
        ))
    return result
