"""VM tier-3 (superblock) performance: one dispatch per hot region.

Three kernels pin the execution tiers against each other (see DESIGN.md,
"Three-tier execution model"):

* **straight** — a long unrolled ALU block inside a short loop: maximal
  straight-line regions, the superblock compiler's best case;
* **loop** — a tight 6-instruction stalling loop (the Sality/Conficker
  anti-sandbox shape): one back-edge region that iterates internally,
  paying one dispatch per *entry* instead of per iteration;
* **taint** — the Conficker-style hash of the computer name, two API calls
  (``GetComputerNameA``, ``wsprintfA``) per round.  On an analysis
  (recorded) run its loads and predicates would carry taint; this run is
  unrecorded and so taint-free, and the kernel pins that an API-dense loop
  does not regress with superblocks on (each round leaves the compiled hash
  loop for one slow step per API call).

Each kernel runs with superblocks on and off and must finish in the same
machine state either way.  Artifacts: ``_artifacts/vm.txt`` and
``_artifacts/vm_baseline.json`` (gated by ``check_bench_regression.py``
under the shared ``per_sample_seconds`` schema), plus
``_artifacts/vm_profile.txt`` — one profiled run per kernel so a BENCH_vm
regression names the tier/region that moved, not just the ratio.
"""

from __future__ import annotations

import json

from repro import obs
from repro.obs.prof import render_table
from repro.corpus.builder import AsmBuilder, frag_computer_name_hash
from repro.vm import CPU, assemble
from repro.winapi import Dispatcher
from repro.winenv import SystemEnvironment

from benchutil import min_wall_seconds, write_artifact

STRAIGHT = """
    mov ecx, 2000
outer:
""" + "\n".join(
    "    mov eax, ecx\n    imul eax, 13\n    xor eax, 0x5a5a\n    add ebx, eax\n"
    "    mov edx, ebx\n    shr edx, 2\n    and edx, 0xffff\n    add esi, edx"
    for _ in range(8)
) + """
    dec ecx
    jnz outer
    halt
"""

LOOP = """
    mov ecx, 120000
spin:
    mov eax, ecx
    imul eax, 17
    xor eax, 0x1234
    add edx, eax
    dec ecx
    jnz spin
    halt
"""


def _taint_program():
    b = AsmBuilder("vm_bench_taint")
    out = b.buffer(64)
    # 400 rounds of the hash loop between two API calls: the loop compiles,
    # and every round pays one slow step per call.
    b.emit("    mov edi, 400")
    again = b.label("again")
    frag_computer_name_hash(b, out)
    b.emit("    dec edi", f"    jnz {again}", "    halt")
    return b.build(family="bench", category="bench")


def _run(program, superblocks: bool):
    env = SystemEnvironment()
    proc = env.spawn_process("vm-bench.exe")
    cpu = CPU(
        program,
        environment=env,
        process=proc,
        dispatcher=Dispatcher(env, proc),
        max_steps=2_000_000,
        record_instructions=False,
        superblocks=superblocks,
    )
    cpu.run()
    return cpu


def _state(cpu) -> tuple:
    return (cpu.status, cpu.steps, cpu.pc, dict(cpu.regs), dict(cpu.flags))


KERNELS = (
    ("straight", lambda: assemble(STRAIGHT, name="vm-straight")),
    ("loop", lambda: assemble(LOOP, name="vm-loop")),
    ("taint", _taint_program),
)


def test_superblock_kernels():
    per_sample = {}
    per_sample_off = {}
    rows = []
    with obs.disabled():
        for name, make in KERNELS:
            program = make()
            on_s, on_cpu = min_wall_seconds(lambda: _run(program, True), repeats=3)
            off_s, off_cpu = min_wall_seconds(lambda: _run(program, False), repeats=3)
            assert _state(on_cpu) == _state(off_cpu), f"{name}: state diverged"
            per_sample[name] = on_s
            per_sample_off[name] = off_s
            rows.append((name, on_cpu.steps, on_s, off_s))

    # Superblock-friendly kernels must actually win; the API-dense taint
    # kernel only has to avoid regressing.
    assert per_sample_off["straight"] / per_sample["straight"] >= 1.3
    assert per_sample_off["loop"] / per_sample["loop"] >= 1.3
    assert per_sample["taint"] <= per_sample_off["taint"] * 1.35

    lines = ["VM superblock kernels: superblocks on vs off (best of 3)"]
    for name, steps, on_s, off_s in rows:
        lines.append(
            f"  {name:<10} {steps:>9,} steps  on {on_s * 1e3:8.2f} ms"
            f"  off {off_s * 1e3:8.2f} ms  ({off_s / on_s:5.2f}x)"
        )
    write_artifact("vm.txt", "\n".join(lines) + "\n")
    write_artifact(
        "vm_baseline.json",
        json.dumps(
            {
                "per_sample_seconds": per_sample,
                "per_sample_seconds_superblocks_off": per_sample_off,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )

    # Attribution rider: one profiled run per kernel, outside the timed
    # section, so a regression in the numbers above comes with the tier or
    # region that moved.
    sections = ["VM kernels: per-tier attribution (one profiled run each)"]
    for name, make in KERNELS:
        obs.prof.reset()
        with obs.profiled():
            _run(make(), True)
            profile = obs.prof.snapshot()
        sections.append("")
        sections.append(f"[{name}]")
        sections.append(render_table(profile, top=10).rstrip("\n"))
    obs.prof.reset()
    write_artifact("vm_profile.txt", "\n".join(sections) + "\n")
