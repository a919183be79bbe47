"""Command-line interface.

Subcommands::

    python -m repro analyze  <family|asm-file> [-o pack.json] [--explore] [--minimal]
                             [--metrics m.json]
    python -m repro deploy   <pack.json> [--computer-name NAME] [--attack FAMILY]
    python -m repro families
    python -m repro survey   [--size N] [--seed S] [--jobs N] [--cache DIR]
                             [--timeout S] [--retries N] [--failures-json f.json]
                             [--metrics m.json] [--run-dir DIR] [--progress]
                             [--profile]
    python -m repro stats    <m.json> [--prom] [--depth N] [--top N]
    python -m repro profile  <family|asm-file> [--json|--folded] [--top N]
    python -m repro explain  <family|asm-file> [--vaccine SUBSTR] [--json FILE]
    python -m repro policy   <family|asm-file> [--json FILE] [--enforce]
    python -m repro tail     <run-dir> [--follow] [--interval S] [--json]
    python -m repro runs     <dir>

``analyze`` runs the full pipeline on a built-in family or an assembly file
and optionally writes a vaccine package; ``deploy`` simulates deployment on a
fresh machine (optionally re-attacking it with a family sample); ``survey``
prints the population-scale tables — ``--jobs N`` fans the analysis out to
worker processes and ``--cache DIR`` makes an interrupted survey resumable
(already-analyzed samples are served from the content-addressed result
cache).  ``--metrics`` captures the run's
observability snapshot (``repro.obs``: the timing tree rooted at
``pipeline.analyze`` and its stages, and the per-sample counters) to a
JSON file; ``stats`` pretty-prints such a file or re-emits it
as Prometheus text.  ``explain`` re-analyzes one sample with the
flight recorder on and prints, per vaccine, the causal chain of journal
events that led to it (mutation, divergence, verdicts, back to the original
API interception).  ``policy`` synthesizes a sample's temporal API policy
(init-phase vs steady-state allowlists plus benign-subtracted steady-state
deny rules); ``--enforce`` clinic-certifies it against the benign suite and
re-attacks a policy-enforcing host with the sample.  Set ``REPRO_LOG=info``
for structured logs.

``survey --run-dir DIR`` records live run telemetry (DESIGN.md §12): one
file, a persistent ledger of per-sample lifecycle events bracketed by
``run.started``/``run.finished``; add ``--progress`` for a live progress
line.  ``tail`` replays (or, with ``--follow``, streams) a run directory's
ledger — attachable while the survey is still running from another
terminal (``--interval`` sets the poll period); ``runs`` lists the run
directories under a parent directory with their status and outcomes, all
derived from each ledger.

``profile`` analyzes one sample with the hot-path profiler (``obs.prof``)
on and prints the self-time attribution table, per pipeline stage: VM time
per tier (slow/fast; analysis compiles no superblock regions), API
dispatch per handler with the ``read_stack_args`` cost split out, snapshot
capture/restore, and rule matching.  ``--json`` emits the nested tree, ``--folded`` collapsed stacks
for flamegraph tooling.  ``survey --profile`` collects the same attribution
population-wide (merged across workers; each sample's own profile stays in
its ``SampleAnalysis`` and cache entry).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import obs
from .core import AutoVac, render_report, run_sample, select_minimal
from .corpus import FAMILIES, GeneratorConfig, build_family, generate_population
from .delivery import VaccinePackage, deploy
from .vm.assembler import assemble
from .winenv import MachineIdentity, SystemEnvironment


def _load_program(spec: str):
    if spec in FAMILIES:
        return build_family(spec)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(f"error: {spec!r} is neither a family ({', '.join(FAMILIES)}) "
                         f"nor an assembly file")
    return assemble(path.read_text(), name=path.stem)


def _write_metrics(path: Optional[str]) -> None:
    if path:
        try:
            obs.export_json(path)
        except OSError as exc:
            raise SystemExit(f"error: cannot write metrics snapshot: {exc}")
        print(f"wrote metrics snapshot {path}")


def cmd_families(args: argparse.Namespace) -> int:
    for name, module in sorted(FAMILIES.items()):
        # A family module may have no (or an empty) docstring; don't crash on it.
        doc_lines = (module.__doc__ or "").strip().splitlines()
        summary = doc_lines[0] if doc_lines else "(no description)"
        print(f"{name:12s} {module.CATEGORY:10s} {summary}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    program = _load_program(args.sample)
    autovac = AutoVac(explore_paths=args.explore)
    analysis = autovac.analyze(program)

    if analysis.filtered_reason:
        print(f"{program.name}: filtered — {analysis.filtered_reason}")
        _write_metrics(args.metrics)
        return 1

    phase1 = analysis.phase1
    print(f"{program.name}: {phase1.total_occurrences} resource accesses, "
          f"{len(phase1.candidates)} candidates, "
          f"{len(analysis.vaccines)} vaccines")
    vaccines = analysis.vaccines
    if args.minimal:
        selection = select_minimal(vaccines)
        vaccines = selection.selected
        print(f"minimal set: {len(vaccines)} kept, {len(selection.dropped)} dropped")
    for vaccine in vaccines:
        print(f"  {vaccine.describe()}")

    if args.output:
        package = VaccinePackage(vaccines=vaccines,
                                 description=f"vaccines for {program.name}")
        package.save(args.output)
        print(f"wrote {args.output} ({len(package)} vaccines)")
    if args.report:
        Path(args.report).write_text(render_report(analysis))
        print(f"wrote {args.report}")
    _write_metrics(args.metrics)
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    package = VaccinePackage.load(args.package)
    identity = MachineIdentity(computer_name=args.computer_name)
    host = SystemEnvironment(identity=identity)
    deployment = deploy(package, host)
    print(f"deployed {len(package)} vaccines on {identity.computer_name}: "
          f"{len(deployment.injections)} direct injections, "
          f"daemon={'yes' if deployment.daemon_needed else 'no'}")
    for record in deployment.injections:
        print(f"  {record.action}: {record.identifier}")
    for vaccine, reason in deployment.failures:
        print(f"  FAILED {vaccine.identifier}: {reason}")

    if args.attack:
        program = _load_program(args.attack)
        run = run_sample(program, environment=host, record_instructions=False)
        verdict = "PROTECTED" if run.trace.terminated else "check manually"
        print(f"attack with {program.name}: exit={run.trace.exit_status}, "
              f"{len(run.trace.api_calls)} API calls -> {verdict}")
        return 0 if run.trace.terminated else 2
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    import json as _json

    from .core.executor import PipelineConfig, analyze_population

    run_dir = args.run_dir
    progress = None
    if args.progress:
        if run_dir is None:
            import tempfile

            run_dir = tempfile.mkdtemp(prefix="repro-run-")
        progress = obs.ProgressView()
    if run_dir is not None:
        print(f"run dir: {run_dir} (watch with: repro tail {run_dir} --follow)")

    samples = generate_population(GeneratorConfig(size=args.size, seed=args.seed))
    try:
        result = analyze_population(
            [s.program for s in samples],
            config=PipelineConfig(
                sample_timeout=args.timeout,
                sample_retries=args.retries,
                profile=args.profile,
            ),
            jobs=args.jobs,
            cache=args.cache,
            run_dir=run_dir,
            progress=progress,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    failed = result.failed()
    print(f"{args.size} samples ({len(result.succeeded())} analyzed, "
          f"{len(failed)} failed) -> {len(result.vaccines)} vaccines "
          f"from {result.samples_with_vaccines} samples")
    if failed:
        kinds: dict = {}
        for failure in failed:
            kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        print(f"failures: {len(failed)} sample(s) quarantined ({breakdown})")
        for failure in failed:
            print(f"  FAILED {failure.describe()}")
    if args.failures_json:
        doc = {"failures": [f.to_dict() for f in failed]}
        try:
            Path(args.failures_json).write_text(_json.dumps(doc, indent=2))
        except OSError as exc:
            raise SystemExit(f"error: cannot write failure summary: {exc}")
        print(f"wrote failure summary {args.failures_json}")
    if args.cache:
        print(f"cache: {obs.metrics.value('pipeline.cache_hits'):.0f} hits, "
              f"{obs.metrics.value('pipeline.cache_misses'):.0f} misses")
    print("by resource x immunization:")
    for rtype, row in sorted(result.count_by_resource_and_immunization().items()):
        cells = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
        print(f"  {rtype:10s} {cells}")
    print("identifier kinds:", result.count_by_identifier_kind())
    print("delivery:", result.count_by_delivery())
    if args.profile and len(obs.prof):
        print("hot paths (merged across the population):")
        sys.stdout.write(obs.render_table(obs.prof.snapshot(), top=15))
    _write_metrics(args.metrics)
    return 0


def cmd_policy(args: argparse.Namespace) -> int:
    import json as _json

    from .core.policy import validate_policy
    from .corpus.benign import benign_suite
    from .delivery.daemon import VaccineDaemon

    program = _load_program(args.sample)
    analysis = AutoVac().analyze(program)
    if analysis.filtered_reason:
        print(f"{program.name}: filtered — {analysis.filtered_reason}")
        return 1
    policy = analysis.policy
    if policy is None:
        print(f"{program.name}: no temporal policy — no effective impact "
              f"gave the synthesizer a boundary")
        return 1

    print(policy.describe())
    for phase, allow in (("init", policy.init_allow), ("steady", policy.steady_allow)):
        for (rtype, op), identifiers in allow.items():
            names = ", ".join(identifiers)
            print(f"  allow [{phase:6s}] {rtype.value}:{op.value} -> {names}")
    for rule in policy.deny:
        print(f"  {rule.describe()} via {', '.join(rule.apis)}")
    for sub in policy.subtracted:
        print(f"  subtracted {sub.resource_type.value}:{sub.identifier!r} — {sub.reason}")

    status = 0
    if args.enforce:
        benign = benign_suite()
        validation = validate_policy(policy, benign)
        verdict = (
            "clean"
            if validation.clean
            else f"{len(validation.incidents)} incident(s), "
                 f"{len(validation.removed)} deny rule(s) removed"
        )
        print(f"clinic: {len(benign)} benign programs -> {verdict} "
              f"(certified={policy.certified})")
        host = SystemEnvironment()
        daemon = VaccineDaemon(policies=[policy])
        daemon.install(host)
        run = run_sample(program, environment=host, record_instructions=False)
        denied = daemon.policy_violations
        protected = denied > 0
        print(f"attack with {program.name}: exit={run.trace.exit_status}, "
              f"{denied} steady-state acquisition(s) denied -> "
              f"{'PROTECTED' if protected else 'check manually'}")
        if not policy.certified or not protected:
            status = 2

    if args.json:
        doc = {"sample": program.name, "policy": policy.to_dict()}
        try:
            Path(args.json).write_text(_json.dumps(doc, indent=2))
        except OSError as exc:
            raise SystemExit(f"error: cannot write policy: {exc}")
        print(f"wrote {args.json} ({len(policy.deny)} deny rules)")
    return status


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        data = obs.load(args.snapshot)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    if args.prom:
        sys.stdout.write(obs.render_prometheus(data))
    else:
        sys.stdout.write(obs.render_stats(data, max_depth=args.depth, top=args.top))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json as _json

    from .obs.prof import render_table, to_folded, to_tree

    program = _load_program(args.sample)
    with obs.profiled():
        analysis = AutoVac().analyze(program)
    profile = analysis.profile
    if args.json:
        doc = {"sample": program.name, "tree": to_tree(profile)}
        sys.stdout.write(_json.dumps(doc, indent=2) + "\n")
    elif args.folded:
        sys.stdout.write(to_folded(profile))
    else:
        print(f"hot paths for {program.name} (self-time attribution):")
        sys.stdout.write(render_table(profile, top=args.top))
    return 0


def _explain_failure(args, program, exc) -> int:
    """``repro explain`` on a sample whose analysis died (the executor
    would have quarantined it as a :class:`SampleFailure`): print the
    failure record and the partial journal the analysis left open instead
    of an unhandled traceback."""
    import json as _json

    from .core.faults import InjectedHang
    from .core.pipeline import SampleFailure

    failure = SampleFailure(
        sample=program.name,
        index=0,
        kind="timeout" if isinstance(exc, InjectedHang) else "crash",
        error_type=type(exc).__name__,
        message=str(exc),
    )
    # The failed analysis never closed its window: close it and take it.
    window = obs.flight.end_sample(obs.flight.window)
    partial = window.events if window is not None else []
    print(f"{program.name}: analysis failed — no SampleAnalysis to explain")
    print(f"  {failure.describe()}")
    if partial:
        print(f"  partial journal ({len(partial)} events recorded before the failure):")
        for event in partial[-12:]:
            print(f"    [e{event.event_id}] {obs.summarize_event(event)}")
    else:
        print("  no journal events were recorded before the failure")
    if args.json:
        doc = {
            "sample": program.name,
            "failure": failure.to_dict(),
            "journal": {
                "sample": program.name,
                "events": [e.to_dict() for e in partial],
            },
        }
        try:
            Path(args.json).write_text(_json.dumps(doc, indent=2))
        except OSError as write_exc:
            raise SystemExit(f"error: cannot write journal: {write_exc}")
        print(f"wrote {args.json} (failure record + {len(partial)} partial events)")
    return 1


def cmd_explain(args: argparse.Namespace) -> int:
    import json as _json

    from .core.faults import FaultPlan

    program = _load_program(args.sample)
    try:
        # The fault plan applies here too, so an injected failure can be
        # explained the same way a real analyzer crash would be.
        FaultPlan.from_env().raise_inline(0, program.name, 1)
        analysis = AutoVac().analyze(program)
    except Exception as exc:  # noqa: BLE001 - report, don't traceback
        return _explain_failure(args, program, exc)
    journal = analysis.journal
    if journal is None or not len(journal):
        print(f"{program.name}: no journal recorded (flight recorder disabled?)")
        return 1

    anchors = journal.find("vaccine")
    if args.vaccine:
        needle = args.vaccine.lower()

        def matches(event):
            return needle in str(event.attrs.get("identifier", "")).lower() or (
                needle == str(event.attrs.get("resource", "")).lower()
            )

        anchors = [e for e in anchors if matches(e)]
        if not anchors:
            # The candidate may have been discarded before becoming a
            # vaccine; fall back to its last recorded verdict.
            anchors = [
                e for e in journal.events
                if e.kind.startswith(("vaccine.", "verdict.")) and matches(e)
            ]

    if args.json:
        doc = {
            "sample": journal.sample,
            "anchors": [e.event_id for e in anchors],
            "journal": journal.to_dict(),
        }
        try:
            Path(args.json).write_text(_json.dumps(doc, indent=2))
        except OSError as exc:
            raise SystemExit(f"error: cannot write journal: {exc}")
        print(f"wrote {args.json} ({len(journal)} events, {len(anchors)} anchors)")

    if not anchors:
        what = f"matching {args.vaccine!r}" if args.vaccine else "recorded"
        print(f"{program.name}: no vaccine or verdict events {what} "
              f"({len(journal)} journal events)")
        return 1

    print(f"{program.name}: {len(journal)} journal events, "
          f"{len(anchors)} decision(s) to explain")
    for anchor in anchors:
        print()
        print(obs.render_chain(journal, anchor.event_id, max_depth=args.depth))
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import ledger

    try:
        fold = ledger.read_run(args.run_dir)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    started = fold.started_unix
    count = 0
    try:
        for event in ledger.iter_ledger(
            args.run_dir, follow=args.follow, poll_seconds=args.interval
        ):
            count += 1
            if args.json:
                print(_json.dumps(event))
            else:
                print(ledger.render_event(event, started))
    except KeyboardInterrupt:  # pragma: no cover - interactive detach
        pass
    except BrokenPipeError:  # piped into `head` and the reader left
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    try:
        fold = ledger.read_run(args.run_dir)
    except ValueError:
        pass
    if not args.json:
        print(f"-- {count} event(s) | {ledger.describe_run(fold)}")
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from .core import render_run_summary
    from .obs import ledger

    root = Path(args.dir)
    if (root / ledger.LEDGER_NAME).is_file():
        # Pointed at a single run: render its summary.
        try:
            fold = ledger.read_run(root)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        sys.stdout.write(render_run_summary(fold))
        return 0
    runs = ledger.list_runs(root)
    if not runs:
        print(f"no runs under {root}")
        return 1
    for fold in runs:
        print(ledger.describe_run(fold))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AUTOVAC reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list built-in malware families")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("analyze", help="run the pipeline on a sample")
    p.add_argument("sample", help="family name or .asm file path")
    p.add_argument("-o", "--output", help="write a vaccine package (JSON)")
    p.add_argument("--explore", action="store_true",
                   help="enable enforced execution (dormant-path discovery)")
    p.add_argument("--minimal", action="store_true",
                   help="reduce to the minimal covering vaccine set")
    p.add_argument("--report", help="write a markdown analysis report")
    p.add_argument("--metrics", help="write an observability snapshot (JSON)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("deploy", help="simulate deployment on a fresh machine")
    p.add_argument("package", help="vaccine package JSON file")
    p.add_argument("--computer-name", default="END-HOST-01")
    p.add_argument("--attack", help="re-attack the host with a family/sample")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("survey", help="population-scale pipeline statistics")
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = in-process, sequential)")
    p.add_argument("--cache",
                   help="content-addressed result cache directory "
                        "(makes interrupted surveys resumable)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-sample wall-clock limit in seconds; needs "
                        "--jobs > 1 (default: off; overdue workers are killed "
                        "and the sample retried, then quarantined)")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts for a failing sample before it is "
                        "quarantined (default 1)")
    p.add_argument("--failures-json",
                   help="write quarantined-sample records (JSON) here")
    p.add_argument("--metrics", help="write an observability snapshot (JSON)")
    p.add_argument("--run-dir",
                   help="record live run telemetry (one event ledger) into "
                        "this directory; watch with `repro tail`")
    p.add_argument("--progress", action="store_true",
                   help="render live progress (TTY status line, or periodic "
                        "log lines when stdout is not a TTY); implies a "
                        "temporary --run-dir when none is given")
    p.add_argument("--profile", action="store_true",
                   help="collect hot-path profiles (merged across workers); "
                        "prints the population-wide attribution table")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("policy",
                       help="synthesize (and optionally enforce) a temporal "
                            "API policy for a sample")
    p.add_argument("sample", help="family name or .asm file path")
    p.add_argument("--json", help="write the policy document (JSON) here")
    p.add_argument("--enforce", action="store_true",
                   help="clinic-certify against the benign suite, then "
                        "re-attack a policy-enforcing host with the sample")
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("stats", help="render a captured metrics snapshot")
    p.add_argument("snapshot", help="JSON file written by --metrics")
    p.add_argument("--prom", action="store_true",
                   help="emit Prometheus text format instead of the summary")
    p.add_argument("--depth", type=int, default=6,
                   help="max profile-tree depth in the summary (default 6)")
    p.add_argument("--top", type=int, default=None,
                   help="keep only the N widest profile-tree nodes per level")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("profile",
                       help="analyze one sample with the hot-path profiler "
                            "and print the self-time attribution")
    p.add_argument("sample", help="family name or .asm file path")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the nested profile tree as JSON")
    fmt.add_argument("--folded", action="store_true",
                     help="emit collapsed/folded stacks (flamegraph.pl / "
                          "speedscope input)")
    p.add_argument("--top", type=int, default=None,
                   help="table rows to keep (default: all)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("explain",
                       help="walk a sample's provenance journal per vaccine")
    p.add_argument("sample", help="family name or .asm file path")
    p.add_argument("--vaccine",
                   help="only explain vaccines/verdicts whose identifier "
                        "contains this substring (or whose resource type "
                        "equals it, e.g. 'mutex')")
    p.add_argument("--json", help="also write the raw journal (JSON) here")
    p.add_argument("--depth", type=int, default=12,
                   help="max causal-chain depth (default 12)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("tail",
                       help="replay or stream a run directory's telemetry ledger")
    p.add_argument("run_dir", help="directory written by `survey --run-dir`")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep streaming until the run finishes (attach to an "
                        "in-flight survey)")
    p.add_argument("--interval", type=float, default=0.2, metavar="S",
                   help="poll period in seconds while following "
                        "(default 0.2; larger values cost less I/O on "
                        "network filesystems)")
    p.add_argument("--json", action="store_true",
                   help="emit raw JSONL events instead of rendered lines")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("runs",
                       help="list historical runs (and their outcomes) under a directory")
    p.add_argument("dir", help="parent directory of run dirs, or one run dir")
    p.set_defaults(func=cmd_runs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
