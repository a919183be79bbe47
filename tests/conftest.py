"""Shared fixtures for the AUTOVAC reproduction test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

import repro
from repro.corpus import all_families, benign_suite
from repro.vm import CPU, assemble
from repro.winapi import Dispatcher
from repro.winenv import IntegrityLevel, SystemEnvironment


@pytest.fixture
def env():
    """A pristine simulated machine."""
    return SystemEnvironment()


@pytest.fixture
def run_asm(env):
    """Assemble + execute guest assembly; returns the finished CPU.

    Usage: ``cpu = run_asm(src)``; the trace is ``cpu.trace`` and the
    machine is ``cpu.environment``.
    """

    def _run(
        source: str,
        environment=None,
        interceptors=None,
        max_steps: int = 50_000,
        integrity: IntegrityLevel = IntegrityLevel.MEDIUM,
        record_instructions: bool = True,
    ) -> CPU:
        machine = environment if environment is not None else env
        program = assemble(source, name="test")
        process = machine.spawn_process("test.exe", integrity=integrity)
        all_int = list(machine.global_interceptors) + list(interceptors or [])
        dispatcher = Dispatcher(machine, process, interceptors=all_int)
        cpu = CPU(
            program,
            environment=machine,
            process=process,
            dispatcher=dispatcher,
            max_steps=max_steps,
            record_instructions=record_instructions,
        )
        cpu.run()
        return cpu

    return _run


@pytest.fixture(scope="session")
def family_programs():
    """The six named family samples (assembled once per session)."""
    return {p.metadata["family"]: p for p in all_families()}


@pytest.fixture(scope="session")
def benign_programs():
    return benign_suite()


@pytest.fixture
def repro_command():
    """``(argv prefix, environment)`` for running ``python -m repro`` in a
    subprocess: this checkout's package, stdout block-buffered as when
    piped, and no ``REPRO_*`` setting inherited from the caller."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONUNBUFFERED"
    }
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return [sys.executable, "-m", "repro"], env
