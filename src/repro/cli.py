"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the registered experiments (every table/figure).
* ``run <experiment-id>`` — run one experiment and print its results
  next to the published values, through the experiment's renderer in
  :data:`repro.analysis.RENDERERS` (JSON for ids without one).
* ``figures`` — render every regenerable figure to SVG files.
* ``validate [<experiment-id> ...]`` — run the acceptance suite: each
  graded experiment runs once, as ``repro run`` runs it, and every
  quantity is graded pass/shape/fail against the published values.
* ``replay`` — replay a trace file through the memory hierarchy with
  strict/lenient validation.
* ``sweep`` — run a campaign of experiments in crash-isolated,
  supervised workers with timeouts, retries, and a resumable journal.
* ``verify`` — integrity-check an artifact offline: a checkpoint's
  sha256 envelope or a journal's per-line CRCs; exits 1 on corruption.
* ``lint`` — run the static invariant passes (determinism, layering,
  experiment contracts, physics hygiene, and resource and event-loop
  hygiene in the runner and service) over the source tree; exits 2 on
  any finding.
* ``dst`` — deterministic simulation testing: drive the real
  scheduler/lease/journal/service stack through seed-derived fault
  histories on a virtual clock, checking protocol invariants after
  every event; violations are shrunk to a minimal replayable
  ``(seed, schedule)`` artifact (exit 1 on violation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from repro.analysis import RENDERERS
from repro.core.experiments import get_experiment, list_experiments


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Registered experiments (paper tables/figures):")
    for experiment_id in list_experiments():
        experiment = get_experiment(experiment_id)
        print(f"  {experiment_id:12} {experiment.title}")
    return 0


def _run_kwargs(args: argparse.Namespace) -> dict:
    """The ``--nx``/``--scale``/``--seed`` flags as experiment kwargs
    (unset: omitted; ``validate`` has no ``--seed``)."""
    return {
        k: getattr(args, k)
        for k in ("nx", "scale", "seed")
        if getattr(args, k, None) is not None
    }


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.experiments import run_experiment
    from repro.oracles.config import set_oracle_mode

    if getattr(args, "oracles", None):
        set_oracle_mode(args.oracles)
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as exc:
        print(f"run: {exc.args[0]}", file=sys.stderr)
        return 2
    kwargs = _run_kwargs(args)
    # Failures are captured (not raised) so the exit status is always
    # meaningful for scripting: 0 on success, 1 on failure, 3 on a
    # completed-but-degraded run (an oracle detected corruption and
    # fell back to a trusted path).  --strict re-raises for debugging
    # with a full traceback.
    outcome = run_experiment(args.experiment, strict=args.strict, **kwargs)
    violations = (outcome.oracles or {}).get("violations", [])
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, default=str))
        return (3 if violations else 0) if outcome.ok else 1
    print(f"{experiment.id}: {experiment.title}")
    if not outcome.ok:
        print(f"\nFAILED ({outcome.error_type}): {outcome.error}")
        if outcome.partial:
            print("partial results before failure:")
            print(json.dumps(outcome.partial, indent=2, default=str))
        print(f"\nreproduce: fingerprint {outcome.fingerprint} "
              f"(kwargs {outcome.kwargs})")
        return 1
    renderer = RENDERERS.get(experiment.id)
    if renderer is None:
        print("\npaper values:")
        print(json.dumps(experiment.paper_values, indent=2, default=str))
        print("\nmeasured:")
        print(json.dumps(outcome.result, indent=2, default=str))
    else:
        print()
        print(renderer(outcome.result, experiment.paper_values))
    if outcome.oracles:
        checks = outcome.oracles.get("total_checks", 0)
        print(f"\noracles ({outcome.oracles.get('mode')}): "
              f"{checks} checks, {len(violations)} violation(s)")
        for violation in violations:
            print(f"  DEGRADED [{violation.get('oracle')}] "
                  f"{violation.get('detail')} -> {violation.get('action')}")
    return 3 if violations else 0


def _parse_chaos_force(specs: List[str]) -> dict:
    """``mode[:target[:count]]`` flags -> FaultInjector forced_failures.

    Worker modes (``crash``, ``hang``, ...) target a task id and map to
    ``worker-<mode>[:<task>]`` stages.  ``duplicate-delivery`` targets a
    task id and maps to its stage name unprefixed.  Service modes
    (``slow-client``, ``request-flood``, ``corrupt-cached-result``,
    ``backend-partition``) target a client id or task fingerprint and
    are unprefixed too (``repro serve --chaos-force``).
    """
    from repro.resilience.faults import SERVICE_FAULT_MODES, WORKER_FAULT_MODES

    unprefixed = ("duplicate-delivery",) + SERVICE_FAULT_MODES
    forced = {}
    for spec in specs:
        parts = spec.split(":")
        mode = parts[0]
        if mode in WORKER_FAULT_MODES:
            prefix = f"worker-{mode}"
        elif mode in unprefixed:
            prefix = mode
        else:
            known = WORKER_FAULT_MODES + unprefixed
            raise ValueError(
                f"unknown chaos mode {mode!r}; known: {known}"
            )
        count = -1
        target = ""
        if len(parts) >= 2 and parts[1]:
            target = parts[1]
        if len(parts) >= 3:
            count = int(parts[2])
        key = prefix + (f":{target}" if target else "")
        forced[key] = count
    return forced


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.analysis import render_campaign_report
    from repro.resilience.faults import FaultInjector
    from repro.runner.scheduler import (
        CampaignConfig,
        RetryPolicy,
        run_campaign,
    )
    from repro.runner.tasks import select_tasks

    try:
        tasks = select_tasks(args.experiments, kwargs=_run_kwargs(args))
        forced = _parse_chaos_force(args.chaos_force or [])
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if args.resume and not os.path.exists(args.journal):
        print(f"sweep: --resume given but journal {args.journal!r} "
              f"does not exist", file=sys.stderr)
        return 2

    rates = {
        mode: rate
        for mode, rate in (
            ("crash", args.chaos_crash),
            ("hang", args.chaos_hang),
            ("corrupt-result", args.chaos_corrupt),
        )
        if rate
    }
    injector = None
    if forced or rates:
        injector = FaultInjector(
            seed=args.chaos_seed,
            forced_failures=forced,
            worker_fault_rates=rates,
        )

    try:
        config = CampaignConfig(
            workers=args.workers,
            task_timeout_s=args.timeout,
            heartbeat_timeout_s=args.heartbeat_timeout,
            retry=RetryPolicy(max_retries=args.retries),
            journal_path=args.journal,
            resume=args.resume,
            injector=injector,
            oracle_mode=args.oracles,
            backend=args.backend,
            lease_ttl_s=args.lease_ttl,
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(tasks, config)
    rendered = render_campaign_report(report.to_dict())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=str))
        print(rendered, file=sys.stderr)
    else:
        print(rendered)
    # 0: all ok; 3: campaign completed but degraded (scripts can tell
    # "partial failure" from hard errors, which exit 1/2).
    return 3 if report.degraded else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.memsim import baseline_config
    from repro.memsim.replay import replay_trace
    from repro.resilience.errors import ReproError
    from repro.traces.record import read_trace

    strict = args.mode != "lenient"
    try:
        records = list(read_trace(args.trace, strict=strict))
        stats = replay_trace(
            records,
            baseline_config(),
            warmup_fraction=args.warmup_fraction,
            mode=args.mode,
        )
    except (ReproError, OSError) as exc:
        print(f"replay failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    print(f"replayed {args.trace}: {stats.n_accesses} measured references")
    print(f"  CPMA          {stats.cpma:.3f} cycles/access")
    print(f"  avg latency   {stats.avg_latency:.1f} cycles")
    print(f"  off-die BW    {stats.bandwidth_gbps:.2f} GB/s")
    print(f"  bus power     {stats.bus_power_w:.2f} W")
    if stats.quarantined:
        print(f"  quarantined   {stats.quarantined} corrupt record(s): "
              f"{stats.quarantined_by_reason}")
    return 0


def _verify_file(path: str) -> tuple:
    """``(status, detail)`` for one artifact; status ok|corrupt|skipped.

    The one classification both ``repro verify`` modes use: a
    checkpoint (sha256 envelope) or a journal (per-line CRC) that proves
    itself is ``ok``; one that fails any check, or a journal with no
    verifiable entry, is ``corrupt``; an empty file is ``skipped``
    (nothing to prove either way).  Raises ``OSError`` if *path* cannot
    be read.
    """
    from repro.resilience.checkpoint import MAGIC, verify_checkpoint
    from repro.resilience.errors import CheckpointError
    from repro.runner.journal import scan_journal

    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if not head:
        return "skipped", "empty file"
    if head == MAGIC:
        try:
            summary = verify_checkpoint(path)
        except CheckpointError as exc:
            return "corrupt", f"checkpoint: {exc}"
        return "ok", (
            f"checkpoint OK kind={summary['kind']} nbytes={summary['nbytes']}"
        )
    entries, torn, crc_failed = scan_journal(path)
    detail = (
        f"journal with {len(entries)} verifiable entr(ies), {torn} torn "
        f"line(s), {crc_failed} CRC failure(s)"
    )
    return ("corrupt" if crc_failed or not entries else "ok"), detail


def _cmd_verify_batch(root: str) -> int:
    """Verify every artifact under *root*; exit 1 if any is corrupt.

    Quarantined artifacts (``*.quarantined``) and in-flight temporaries
    (``*.tmp``) are reported as skipped, not corrupt: quarantine is the
    system *working* — the file was already caught, moved aside, and
    its fingerprint re-simulated.
    """
    import os

    checked = {"ok": 0, "corrupt": 0, "skipped": 0}
    corrupt_files = []
    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        if path.endswith((".quarantined", ".tmp")):
            status, detail = "skipped", "quarantined/temporary artifact"
        else:
            try:
                status, detail = _verify_file(path)
            except OSError as exc:
                status, detail = "corrupt", f"cannot read: {exc}"
        checked[status] += 1
        marker = {"ok": "ok     ", "corrupt": "CORRUPT",
                  "skipped": "skipped"}[status]
        print(f"  {marker} {path}: {detail}")
        if status == "corrupt":
            corrupt_files.append(path)
    total = sum(checked.values())
    print(f"{root}: {total} file(s) checked, {checked['ok']} ok, "
          f"{checked['corrupt']} corrupt, {checked['skipped']} skipped")
    if corrupt_files:
        print(f"verify: CORRUPT artifact(s): {corrupt_files}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Offline integrity check of checkpoint/journal artifacts.

    A file argument gets the same verdict it would get inside a
    directory; a directory argument verifies every file under it (batch
    mode) with a per-file report.  Exit 1 when anything is corrupt, 2
    when the file cannot be read.
    """
    import os

    if os.path.isdir(args.artifact):
        return _cmd_verify_batch(args.artifact)
    try:
        status, detail = _verify_file(args.artifact)
    except OSError as exc:
        print(f"verify: cannot read {args.artifact}: {exc}", file=sys.stderr)
        return 2
    print(f"{args.artifact}: {detail}")
    if status == "corrupt":
        print(f"verify: CORRUPT {args.artifact}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the fault-tolerant simulation service (blocking)."""
    from repro.resilience.faults import FaultInjector
    from repro.service.server import ServiceConfig, run_service

    injector = None
    try:
        forced = _parse_chaos_force(args.chaos_force or [])
        if forced:
            injector = FaultInjector(
                seed=args.chaos_seed, forced_failures=forced
            )
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            data_dir=args.data_dir,
            registry_spec=args.registry,
            backend=args.backend,
            parallel_jobs=args.parallel_jobs,
            job_timeout_s=args.job_timeout,
            max_job_attempts=args.max_attempts,
            rate_per_s=args.rate,
            burst=args.burst,
            queue_depth=args.queue_depth,
            shed_watermark=args.shed_watermark,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset,
            oracle_mode=args.oracles,
            injector=injector,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return run_service(config)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.checks.engine import main as lint_main

    return lint_main(args)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import render_all_figures

    written = render_all_figures(
        args.out,
        scale=args.scale,
        length_factor=args.length_factor,
        nx=args.nx or 40,
        workloads=args.workloads.split(",") if args.workloads else None,
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import run_validation

    try:
        report = run_validation(args.experiments, **_run_kwargs(args))
    except KeyError as exc:
        print(f"validate: {exc.args[0]}", file=sys.stderr)
        return 2
    print(report.render())
    return 1 if report.failures else 0


def _cmd_dst(args: argparse.Namespace) -> int:
    from repro.dst import explore, replay
    from repro.dst.mutations import apply_mutation

    def _progress(history: Any) -> None:
        if args.verbose:
            print(history.summary())

    with apply_mutation(args.mutate):
        if args.replay:
            history = replay(args.replay)
            print(history.summary())
            for violation in history.violations:
                print(f"  - {violation}")
            print(f"journal sha256 {history.journal_sha}")
            print(f"report  sha256 {history.report_sha}")
            if args.json:
                print(json.dumps({
                    "seed": history.seed,
                    "ok": history.ok,
                    "violations": history.violations,
                    "journal_sha": history.journal_sha,
                    "report_sha": history.report_sha,
                }, indent=2, sort_keys=True))
            return 0 if history.ok else 1
        summary = explore(
            args.seeds,
            seed_base=args.seed_base,
            profile=args.profile,
            artifact_path=args.artifact,
            on_history=_progress,
            shrink=not args.no_shrink,
        )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif summary["ok"]:
        print(
            f"dst: {summary['explored']} histories "
            f"[{args.profile}], no invariant violations"
        )
    if not summary["ok"]:
        print(
            f"dst: seed {summary['failing_seed']} violated after "
            f"{summary['explored']} histories; minimized to "
            f"{summary['minimal_events']} fault event(s)"
        )
        for violation in summary["violations"]:
            print(f"  - {violation}")
        if summary["artifact"]:
            print(f"replayable artifact: {summary['artifact']}")
            print(f"  (re-run: repro dst --replay {summary['artifact']})")
    return 0 if summary["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Die Stacking (3D) Microarchitecture - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run one table/figure experiment")
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument("--nx", type=int, help="thermal grid resolution")
    run.add_argument("--scale", type=int, help="capacity/footprint scale")
    run.add_argument("--seed", type=int,
                     help="input seed (figure-5 traces, dtm_load_spike "
                          "load); other experiments ignore it")
    run.add_argument("--json", action="store_true",
                     help="print the structured outcome (ok/result/error/"
                          "fingerprint) as JSON")
    run.add_argument("--strict", action="store_true",
                     help="re-raise failures with a traceback instead of "
                          "capturing them")
    run.add_argument("--oracles", choices=("off", "sample", "strict"),
                     default="sample",
                     help="runtime invariant oracles: off, sample "
                          "(default; cheap checks + sampled differential "
                          "re-execution), or strict (check everything)")

    sweep = sub.add_parser(
        "sweep",
        help="run a supervised campaign of experiments in crash-isolated "
             "workers",
    )
    sweep.add_argument("experiments", nargs="*",
                       help="experiment id globs, e.g. 'figure-*' "
                            "(default: every registered experiment)")
    sweep.add_argument("--workers", type=int, default=2,
                       help="max concurrent worker processes")
    sweep.add_argument("--timeout", type=float, default=600.0,
                       help="per-task wall-clock budget in seconds; "
                            "workers past it are killed")
    sweep.add_argument("--retries", type=int, default=2,
                       help="retry budget per task (exponential backoff)")
    sweep.add_argument("--journal", default="campaign.jsonl",
                       help="append-only JSONL result journal")
    sweep.add_argument("--resume", action="store_true",
                       help="skip tasks with an ok entry in the journal; "
                            "re-run only failures")
    sweep.add_argument("--seed", type=int,
                       help="input seed every task gets (see 'run --seed')")
    sweep.add_argument("--nx", type=int, help="thermal grid resolution")
    sweep.add_argument("--scale", type=int, help="capacity/footprint scale")
    sweep.add_argument("--backend", default="local",
                       metavar="{local,inproc}",
                       help="executor backend: 'local' (worker pool in "
                            "this process) or 'inproc' (synchronous, "
                            "deterministic, no chaos)")
    sweep.add_argument("--lease-ttl", type=float, default=15.0,
                       help="seconds a claimed task may go without its "
                            "executor heartbeating before the lease is "
                            "reclaimed and the work re-queued")
    sweep.add_argument("--heartbeat-timeout", type=float, default=15.0,
                       help="seconds without a worker heartbeat before "
                            "it is declared dead and killed")
    sweep.add_argument("--json", action="store_true",
                       help="print the campaign report as JSON on stdout "
                            "(human rendering goes to stderr)")
    sweep.add_argument("--chaos-seed", type=int, default=0,
                       help="fault-injection seed (chaos soak)")
    sweep.add_argument("--chaos-crash", type=float, default=0.0,
                       metavar="RATE", help="worker crash probability")
    sweep.add_argument("--chaos-hang", type=float, default=0.0,
                       metavar="RATE", help="worker hang probability")
    sweep.add_argument("--chaos-corrupt", type=float, default=0.0,
                       metavar="RATE",
                       help="corrupt-result probability")
    sweep.add_argument("--chaos-force", action="append",
                       metavar="MODE[:TARGET[:N]]",
                       help="force a fault: worker modes crash|hang|stall|"
                            "corrupt-result|flip-operator or "
                            "duplicate-delivery (target: task id), "
                            "N times (-1 = always)")
    sweep.add_argument("--oracles", choices=("off", "sample", "strict"),
                       default="sample",
                       help="oracle mode workers run under (default: "
                            "sample)")

    verify = sub.add_parser(
        "verify",
        help="integrity-check a checkpoint (sha256 envelope) or journal "
             "(per-line CRC) without applying it; a directory argument "
             "verifies every artifact under it",
    )
    verify.add_argument("artifact",
                        help="checkpoint or JSONL journal file to verify, "
                             "or a directory of artifacts (batch mode: "
                             "per-file report, exit 1 on any corrupt "
                             "item)")

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant simulation service: an async HTTP "
             "job API with admission control, a circuit breaker around "
             "the executor backend, and a verify-before-serve result "
             "cache",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port (0: pick a free port and print it)")
    serve.add_argument("--data-dir", default="service-data",
                       help="root for the result cache, spool journals, "
                            "and the service journal")
    serve.add_argument("--registry",
                       default="repro.core.experiments:REGISTRY",
                       metavar="MODULE:ATTR",
                       help="experiment registry the service runs from")
    serve.add_argument("--backend", default="inproc",
                       metavar="{local,inproc}",
                       help="executor backend jobs are scheduled onto")
    serve.add_argument("--parallel-jobs", type=int, default=2,
                       help="jobs simulated concurrently")
    serve.add_argument("--job-timeout", type=float, default=60.0,
                       help="wall-clock budget per job run (seconds)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="dispatch attempts per job after backend "
                            "losses")
    serve.add_argument("--rate", type=float, default=20.0,
                       help="per-client sustained requests/second")
    serve.add_argument("--burst", type=float, default=40.0,
                       help="per-client burst budget (token bucket size)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="hard capacity of the admission queue")
    serve.add_argument("--shed-watermark", type=int, default=48,
                       help="queue depth at which new jobs shed 503")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive backend losses that open the "
                            "circuit breaker")
    serve.add_argument("--breaker-reset", type=float, default=2.0,
                       help="seconds before the open breaker half-opens "
                            "for a probe")
    serve.add_argument("--oracles", choices=("off", "sample", "strict"),
                       default="sample",
                       help="oracle mode job runs execute under")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="fault-injection seed")
    serve.add_argument("--chaos-force", action="append",
                       metavar="MODE[:TARGET[:N]]",
                       help="force a service fault: slow-client|"
                            "request-flood (target: client id) or "
                            "corrupt-cached-result|backend-partition "
                            "(target: task fingerprint), N times "
                            "(-1 = always)")

    replay = sub.add_parser(
        "replay", help="replay a trace file through the memory hierarchy"
    )
    replay.add_argument("trace", help="trace file (see traces.record.write_trace)")
    mode = replay.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="mode", action="store_const",
                      const="strict", default="strict",
                      help="fail on the first corrupt record (default)")
    mode.add_argument("--lenient", dest="mode", action="store_const",
                      const="lenient",
                      help="quarantine corrupt records and report counts")
    replay.add_argument("--warmup-fraction", type=float, default=0.3,
                        help="leading fraction used to warm the caches")

    lint = sub.add_parser(
        "lint",
        help="run the static invariant passes (RPL1xx determinism, "
             "RPL2xx layering, RPL3xx contracts, RPL4xx physics; "
             "RPL503 resource close, RPL504 explicit clock, RPL601 "
             "blocking call in async def)",
    )
    lint.add_argument("--root", metavar="DIR",
                      help="package directory to scan (default: the "
                           "installed repro package)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (json includes every diagnostic "
                           "plus the code table)")
    lint.add_argument("--select", action="append", metavar="RPLxxx",
                      help="only run codes with these prefixes "
                           "(comma-separated or repeated)")
    lint.add_argument("--explain", metavar="RPL###",
                      help="print the rule's rationale, an example "
                           "violation and the fix pattern, then exit")

    figures = sub.add_parser(
        "figures", help="render every figure to SVG files"
    )
    figures.add_argument("--out", default="figures", help="output directory")
    figures.add_argument("--nx", type=int, help="thermal grid resolution")
    figures.add_argument("--scale", type=int, default=16)
    figures.add_argument("--length-factor", type=float, default=0.5)
    figures.add_argument("--workloads", help="comma-separated kernel names")

    dst = sub.add_parser(
        "dst",
        help="deterministic simulation testing of the distributed stack",
    )
    dst.add_argument("--seeds", type=int, default=50,
                     help="number of seed-derived fault histories to "
                          "explore")
    dst.add_argument("--seed-base", type=int, default=0,
                     help="first seed of the batch")
    dst.add_argument("--profile", default="quick",
                     choices=["quick", "deep"],
                     help="history length/chaos profile")
    dst.add_argument("--replay", metavar="FILE",
                     help="re-execute a saved (seed, schedule) artifact "
                          "instead of exploring")
    dst.add_argument("--artifact", default="dst-artifact.json",
                     help="where to write the minimized replay artifact "
                          "on failure")
    dst.add_argument("--mutate", metavar="NAME",
                     help="arm a deliberate protocol bug (see "
                          "repro.dst.mutations) to validate detection")
    dst.add_argument("--no-shrink", action="store_true",
                     help="skip schedule minimization on failure")
    dst.add_argument("--verbose", action="store_true",
                     help="print one line per explored history")
    dst.add_argument("--json", action="store_true",
                     help="emit the exploration summary as JSON")

    validate = sub.add_parser("validate", help="run the acceptance suite")
    validate.add_argument("experiments", nargs="*",
                          help="graded experiment ids (default: all)")
    validate.add_argument("--nx", type=int, help="thermal grid resolution")
    validate.add_argument("--scale", type=int, help="capacity/footprint scale")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "figures": _cmd_figures,
        "validate": _cmd_validate,
        "replay": _cmd_replay,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
        "dst": _cmd_dst,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
