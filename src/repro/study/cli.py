"""The ``python -m repro`` command line: declarative studies from spec files.

Subcommands
-----------
``run <spec.json>``
    Execute a study (all its seeds) and emit one ``study_result`` JSON line
    per seed on stdout or to ``--output``.
``resume <checkpoint.jsonl>``
    Continue an interrupted study from its checkpoint; the replayed prefix
    consumes no simulations and the final history is bit-identical to an
    uninterrupted run.
``list-optimizers`` / ``list-problems`` (alias ``list-circuits``)
    Human-readable (or ``--json``) listings of both registries;
    ``list-problems`` includes each problem's accepted ``problem_options``
    (corner sets, Monte Carlo configuration, ...) so spec files are
    discoverable from the terminal.
``worker``
    Claim and evaluate queued jobs against a shared results store
    (``--db``); any number of workers shard a distributed study.
``dashboard``
    Serve the HTTP status API and HTML dashboard over a results store.
``db import`` / ``db ingest-bench``
    Load JSONL checkpoints and ``BENCH_*.json`` benchmark records into a
    results store.

``run``/``resume`` accept ``--db`` to checkpoint into a SQLite results
store instead of JSONL (add ``--distributed`` to dispatch evaluations
through the store's work queue).  Progress goes to stderr (``--quiet``
silences it); structured results go to stdout or the ``--output`` file,
one JSON object per line.

``run``/``resume``/``worker`` accept ``--telemetry`` (equivalent to setting
``REPRO_TELEMETRY=1``) to capture solver spans and metrics; ``run``/
``resume`` additionally take ``--trace PATH`` to export the captured spans
as a Perfetto-compatible JSON trace, and print a metrics report to stderr
on exit unless ``--quiet``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.errors import ReproError
from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative KATO-reproduction optimization studies.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run a study from a JSON spec file")
    run.add_argument("spec", help="path to a StudySpec JSON file")
    _add_run_output_options(run)
    run.add_argument("--checkpoint", metavar="PATH",
                     help="write a JSONL checkpoint (per seed) for resume")
    run.add_argument("--seed", type=int, help="override spec.seed")
    run.add_argument("--n-simulations", type=int,
                     help="override spec.n_simulations")
    run.add_argument("--n-seeds", type=int, help="override spec.n_seeds")
    run.add_argument("--backend", help="override spec.backend "
                                       "(serial/batched/process)")
    _add_service_options(run)

    resume = commands.add_parser(
        "resume", help="continue an interrupted study from its checkpoint")
    resume.add_argument("checkpoint",
                        help="path to a study checkpoint JSONL, or (with "
                             "--db) a study id in the results store")
    _add_run_output_options(resume)
    _add_service_options(resume)

    worker = commands.add_parser(
        "worker", help="claim and evaluate queued jobs from a results store")
    worker.add_argument("--db", required=True, metavar="PATH",
                        help="SQLite results store shared with the driver")
    worker.add_argument("--worker-id", help="stable worker identity "
                                            "(default: host-pid-suffix)")
    worker.add_argument("--lease", type=float, default=None, metavar="SECONDS",
                        help="job lease duration (default 60)")
    worker.add_argument("--poll-interval", type=float, default=0.2,
                        metavar="SECONDS", help="idle sleep between claims")
    worker.add_argument("--backend", default="serial",
                        help="evaluation backend inside the worker "
                             "(serial/batched; default serial)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after this many jobs")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long with an empty queue")
    _add_telemetry_options(worker)
    _add_import_option(worker)

    dashboard = commands.add_parser(
        "dashboard", help="serve the HTTP status API and dashboard")
    dashboard.add_argument("--db", required=True, metavar="PATH",
                           help="SQLite results store to serve")
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, default=8732)
    dashboard.add_argument("--quiet", action="store_true",
                           help="suppress per-request logging")
    _add_import_option(dashboard)

    db = commands.add_parser(
        "db", help="results-store maintenance (import, ingest-bench)")
    db_commands = db.add_subparsers(dest="db_command", required=True)
    db_import = db_commands.add_parser(
        "import", help="import a JSONL study checkpoint into the store")
    db_import.add_argument("checkpoint",
                           help="path to a study checkpoint JSONL file")
    db_import.add_argument("--db", required=True, metavar="PATH")
    db_import.add_argument("--study-id",
                           help="store under this id (default: derived "
                                "from the checkpoint's spec and seed)")
    db_import.add_argument("--import", action="append", default=[],
                           dest="imports", metavar="MODULE",
                           help=argparse.SUPPRESS)
    db_ingest = db_commands.add_parser(
        "ingest-bench",
        help="ingest BENCH_*.json benchmark records into the store")
    db_ingest.add_argument("files", nargs="*",
                           help="BENCH_*.json files (default: BENCH_*.json "
                                "in the current directory)")
    db_ingest.add_argument("--db", required=True, metavar="PATH")

    list_optimizers = commands.add_parser(
        "list-optimizers", help="list registered optimizers and aliases")
    list_optimizers.add_argument(
        "name", nargs="?", default=None,
        help="describe just this optimizer (aliases resolve); an unknown "
             f"name exits with code {EXIT_UNKNOWN_NAME}")
    list_optimizers.add_argument("--json", action="store_true", dest="as_json")

    for command_name in ("list-problems", "list-circuits"):
        list_problems = commands.add_parser(
            command_name,
            help="list registered problems with their problem_options")
        list_problems.add_argument(
            "name", nargs="?", default=None,
            help="describe just this problem; an unknown name exits with "
                 f"code {EXIT_UNKNOWN_NAME}")
        list_problems.add_argument("--json", action="store_true",
                                   dest="as_json")
    return parser


def _add_run_output_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("-o", "--output", default="-", metavar="PATH",
                           help="result JSONL file ('-' for stdout)")
    subparser.add_argument("--quiet", action="store_true",
                           help="suppress progress logging on stderr")
    _add_telemetry_options(subparser, trace=True)


def _add_telemetry_options(subparser: argparse.ArgumentParser,
                           trace: bool = False) -> None:
    group = subparser.add_argument_group(
        "telemetry", "solver-to-service instrumentation; also enabled by "
                     "the REPRO_TELEMETRY environment variable")
    group.add_argument("--telemetry", action="store_true",
                       help="capture solver spans and metrics "
                            "(zero overhead when off)")
    if trace:
        group.add_argument("--trace", metavar="PATH",
                           help="export captured spans as a Perfetto JSON "
                                "trace on exit (implies --telemetry)")


def _apply_telemetry(args) -> None:
    """Enable telemetry before any pools or workers spawn (env inherits)."""
    if getattr(args, "telemetry", False) or getattr(args, "trace", None):
        from repro import telemetry
        telemetry.enable()


def _finish_telemetry(args, quiet: bool) -> None:
    from repro import telemetry
    if not telemetry.enabled():
        return
    trace_path = getattr(args, "trace", None)
    if trace_path:
        n_spans = telemetry.export_trace(trace_path)
        print(f"telemetry trace: {n_spans} spans -> {trace_path}",
              file=sys.stderr)
    if not quiet:
        print(telemetry.report(), file=sys.stderr)


def _add_import_option(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--import", action="append", default=[],
                           dest="imports", metavar="MODULE",
                           help="import this module first (repeatable); how "
                                "plugin problems/optimizers register in "
                                "worker and dashboard processes")


def _add_service_options(subparser: argparse.ArgumentParser) -> None:
    service = subparser.add_argument_group(
        "results store", "checkpoint into a shared SQLite store instead of "
                         "JSONL; see the worker/dashboard/db subcommands")
    service.add_argument("--db", metavar="PATH",
                         help="SQLite results store (per-seed checkpoints, "
                              "queryable via the dashboard)")
    service.add_argument("--study-id",
                         help="store under this id (default: derived from "
                              "spec and seed; with --db only)")
    service.add_argument("--distributed", action="store_true",
                         help="dispatch evaluation batches through the "
                              "store's work queue (needs --db and at least "
                              "one worker)")
    service.add_argument("--shard-size", type=int, default=1, metavar="N",
                         help="designs per queued job (default 1)")
    service.add_argument("--lease", type=float, default=None,
                         metavar="SECONDS",
                         help="job lease duration (default 60)")
    service.add_argument("--dispatch-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="fail a dispatch that no worker finishes in "
                              "this long (default: wait forever)")
    service.add_argument("--spawn-workers", type=int, default=0, metavar="N",
                         help="also run N worker threads in this process "
                              "(self-contained distributed runs)")
    _add_import_option(subparser)


def _apply_imports(args) -> None:
    import importlib
    for module in getattr(args, "imports", []):
        importlib.import_module(module)


class _SpawnedWorkers:
    """N in-process worker threads for self-contained --distributed runs."""

    def __init__(self, db_path: str, count: int, lease_seconds: float | None,
                 backend: str = "serial"):
        import threading

        from repro.service.queue import DEFAULT_LEASE_SECONDS
        from repro.service.worker import Worker
        self.workers = [
            Worker(db_path, worker_id=f"spawned-{index}",
                   lease_seconds=lease_seconds or DEFAULT_LEASE_SECONDS,
                   backend=backend)
            for index in range(count)]
        self.threads = [threading.Thread(target=worker.run, daemon=True)
                        for worker in self.workers]

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc_info):
        for worker in self.workers:
            worker.request_stop()
        for thread in self.threads:
            thread.join(timeout=30.0)
        for worker in self.workers:
            worker.store.close()
        return False


def _emit_results(results: list[dict], output: str) -> None:
    lines = [json.dumps(record, sort_keys=True) for record in results]
    if output == "-":
        for line in lines:
            print(line)
        return
    with open(output, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def _run_callbacks(quiet: bool):
    from repro.study.callbacks import LoggingCallback
    return () if quiet else (LoggingCallback(),)


def _apply_overrides(spec, args):
    from dataclasses import replace
    overrides = {}
    for attribute in ("seed", "n_simulations", "n_seeds", "backend"):
        value = getattr(args, attribute, None)
        if value is not None:
            overrides[attribute] = value
    return replace(spec, **overrides) if overrides else spec


def _check_service_args(args, parser_hint: str) -> str | None:
    """Validate the --db option cluster; returns the db path (or None)."""
    db = getattr(args, "db", None)
    if db is None:
        for option in ("study_id", "distributed"):
            if getattr(args, option, None):
                raise ValueError(f"--{option.replace('_', '-')} requires "
                                 f"--db ({parser_hint})")
        if getattr(args, "spawn_workers", 0):
            raise ValueError(f"--spawn-workers requires --db ({parser_hint})")
    return db


def _command_run(args) -> int:
    _apply_imports(args)
    _apply_telemetry(args)
    db = _check_service_args(args, "run --help")
    from repro.study.spec import StudySpec
    spec = _apply_overrides(StudySpec.from_file(args.spec), args)
    db = db or spec.results_db
    if db is None:
        from repro.study.study import run_study
        outcome = run_study(spec, callbacks=_run_callbacks(args.quiet),
                            checkpoint_path=args.checkpoint)
    else:
        if args.checkpoint is not None:
            raise ValueError("--checkpoint and --db are exclusive: the "
                             "results store is the checkpoint")
        outcome = _service_run(args, spec, db)
    _emit_results([result.to_record() for result in outcome["results"]],
                  args.output)
    _finish_telemetry(args, args.quiet)
    return 0


def _service_run(args, spec, db: str) -> dict:
    from repro.service.driver import run_service_study
    with _spawned_workers(args, db):
        outcome = run_service_study(
            spec, db, study_id=args.study_id,
            callbacks=_run_callbacks(args.quiet),
            distributed=_distributed(args), shard_size=args.shard_size,
            **_lease_kwargs(args))
    for study_id in outcome["study_ids"]:
        print(f"study stored: {study_id} (db: {db})", file=sys.stderr)
    return outcome


def _command_resume(args) -> int:
    _apply_imports(args)
    _apply_telemetry(args)
    db = _check_service_args(args, "resume --help")
    if db is None:
        from repro.study.study import Study
        study = Study.resume(args.checkpoint,
                             callbacks=_run_callbacks(args.quiet))
        result = study.run()
    else:
        from repro.service.driver import resume_service_study
        with _spawned_workers(args, db):
            result = resume_service_study(
                db, args.checkpoint, callbacks=_run_callbacks(args.quiet),
                distributed=_distributed(args), shard_size=args.shard_size,
                **_lease_kwargs(args))
    _emit_results([result.to_record()], args.output)
    _finish_telemetry(args, args.quiet)
    return 0


def _distributed(args) -> bool:
    return bool(args.distributed or args.spawn_workers)


def _lease_kwargs(args) -> dict:
    from repro.service.queue import DEFAULT_LEASE_SECONDS
    return {"lease_seconds": args.lease or DEFAULT_LEASE_SECONDS,
            "dispatch_timeout": args.dispatch_timeout}


def _spawned_workers(args, db: str):
    from contextlib import nullcontext
    if not args.spawn_workers:
        return nullcontext()
    return _SpawnedWorkers(db, args.spawn_workers, args.lease)


def _command_worker(args) -> int:
    _apply_imports(args)
    _apply_telemetry(args)
    from repro.service.queue import DEFAULT_LEASE_SECONDS
    from repro.service.worker import run_worker
    n_done = run_worker(args.db, worker_id=args.worker_id,
                        lease_seconds=args.lease or DEFAULT_LEASE_SECONDS,
                        poll_interval=args.poll_interval,
                        backend=args.backend, max_jobs=args.max_jobs,
                        idle_timeout=args.idle_timeout)
    print(f"worker exiting after {n_done} jobs", file=sys.stderr)
    return 0


def _command_dashboard(args) -> int:
    _apply_imports(args)
    from repro.service.api import serve_dashboard
    serve_dashboard(args.db, host=args.host, port=args.port,
                    quiet=args.quiet)
    return 0


def _command_db(args) -> int:
    _apply_imports(args)
    from repro.service.store import ResultsStore
    store = ResultsStore(args.db)
    try:
        if args.db_command == "import":
            study_id = store.import_jsonl(args.checkpoint,
                                          study_id=args.study_id)
            print(f"imported {args.checkpoint} as study {study_id}")
        else:  # ingest-bench
            import glob
            files = args.files or sorted(glob.glob("BENCH_*.json"))
            if not files:
                print("no BENCH_*.json files found", file=sys.stderr)
            total = new = 0
            for path in files:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                name = payload.get("name") or os.path.splitext(
                    os.path.basename(path))[0]
                records = payload.get("records", [])
                total += len(records)
                new += sum(store.ingest_bench_record(name, record,
                                                     source=path)
                           for record in records)
            print(f"ingested {new} new of {total} records "
                  f"from {len(files)} files")
    finally:
        store.close()
    return 0


#: Exit code for a name that resolves against neither registry -- stable,
#: distinct from 2 (generic usage/user error), so scripts and the dashboard
#: can tell "no such problem" from "malformed invocation".
EXIT_UNKNOWN_NAME = 3


def optimizer_entries(name: str | None = None) -> list[dict]:
    """Machine-readable optimizer listing (what ``--json`` prints).

    With ``name``, the listing is restricted to that optimizer (aliases
    resolve); an unknown name raises
    :class:`~repro.study.registry.UnknownOptimizerError`.  The HTTP API's
    ``/api/optimizers`` endpoint serves exactly this structure.
    """
    from repro.study.registry import optimizer_specs, resolve_optimizer
    specs = optimizer_specs()
    if name is not None:
        specs = [resolve_optimizer(name)]
    return [{
        "name": spec.name,
        "aliases": list(spec.aliases),
        "class": spec.cls.__name__,
        "constrained": spec.supports_constrained,
        "unconstrained": spec.supports_unconstrained,
        "requires_source": spec.requires_source,
        "requires_source_data": spec.requires_source_data,
        "description": spec.description,
    } for spec in specs]


def _command_list_optimizers(args) -> int:
    from repro.study.registry import UnknownOptimizerError
    try:
        entries = optimizer_entries(getattr(args, "name", None))
    except UnknownOptimizerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    if args.as_json:
        print(json.dumps(entries, indent=2))
        return 0
    from repro.study.registry import optimizer_specs, resolve_optimizer
    specs = optimizer_specs()
    if getattr(args, "name", None) is not None:
        specs = [resolve_optimizer(args.name)]
    width = max(len(spec.name) for spec in specs)
    print(f"{'NAME':<{width}}  PROBLEMS     TRANSFER  ALIASES")
    for spec in specs:
        problems = ("both" if spec.supports_constrained
                    and spec.supports_unconstrained
                    else "constrained" if spec.supports_constrained
                    else "fom-only")
        transfer = ("source" if spec.requires_source
                    else "data" if spec.requires_source_data else "-")
        aliases = ", ".join(spec.aliases) or "-"
        print(f"{spec.name:<{width}}  {problems:<11}  {transfer:<8}  {aliases}")
        if spec.description:
            print(f"{'':<{width}}    {spec.description}")
    return 0


def _problem_options(cls) -> dict[str, str]:
    """Constructor keywords a spec's ``problem_options`` may set.

    Introspected from the registered class, so plugins are covered with
    zero bookkeeping.  ``technology`` is excluded (it is a top-level spec
    field) and ``**kwargs`` pass-throughs surface as ``"..."``.
    """
    import inspect
    options: dict[str, str] = {}
    for parameter in inspect.signature(cls.__init__).parameters.values():
        if parameter.name in ("self", "technology"):
            continue
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            options["..."] = "forwarded to the wrapped problem"
        elif parameter.kind is not inspect.Parameter.VAR_POSITIONAL:
            default = ("required" if parameter.default is inspect.Parameter.empty
                       else repr(parameter.default))
            options[parameter.name] = default
    return options


def _command_list_circuits(args) -> int:
    """Legacy alias: keeps the original ``--json`` shape (a name list)."""
    from repro.circuits import available_problems
    if args.as_json:
        print(json.dumps(available_problems(), indent=2))
        return 0
    return _command_list_problems(args)


def problem_entries(name: str | None = None) -> list[dict]:
    """Machine-readable problem listing (what ``--json`` prints).

    With ``name``, only that problem is described; an unknown name raises
    :class:`KeyError`.  The HTTP API's ``/api/problems`` endpoint serves
    exactly this structure.
    """
    from repro.circuits import available_problems, make_problem
    from repro.circuits.registry import _PROBLEMS
    names = available_problems()
    if name is not None:
        key = name.lower()
        if key not in names:
            from repro.utils.validation import suggestion_hint
            raise KeyError(f"unknown problem {name!r}"
                           f"{suggestion_hint(key, names)}")
        names = [key]
    entries = []
    for entry_name in names:
        problem = make_problem(entry_name)
        try:
            entries.append({
                "name": entry_name,
                "objective": problem.objective,
                "minimize": problem.minimize,
                "n_design_variables": problem.design_space.dim,
                "constraints": [
                    f"{c.name} {'>=' if c.sense == 'ge' else '<='} {c.threshold:g}"
                    for c in problem.constraints],
                "problem_options": _problem_options(_PROBLEMS[entry_name]),
            })
        finally:
            problem.close()
    return entries


def _command_list_problems(args) -> int:
    try:
        entries = problem_entries(getattr(args, "name", None))
    except KeyError as exc:
        # KeyError reprs its message; unwrap for a clean one-line error.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    if args.as_json:
        print(json.dumps(entries, indent=2))
        return 0
    for entry in entries:
        direction = "minimise" if entry["minimize"] else "maximise"
        print(f"{entry['name']}: {direction} {entry['objective']}, "
              f"{entry['n_design_variables']} variables, "
              f"s.t. {', '.join(entry['constraints']) or '(unconstrained)'}")
        options = ", ".join(f"{key}={value}" for key, value
                            in entry["problem_options"].items())
        print(f"  problem_options: {options or '(none)'}")
    return 0


_COMMANDS = {
    "run": _command_run,
    "resume": _command_resume,
    "list-optimizers": _command_list_optimizers,
    "list-problems": _command_list_problems,
    "list-circuits": _command_list_circuits,
    "worker": _command_worker,
    "dashboard": _command_dashboard,
    "db": _command_db,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted (checkpoints, if enabled, are resumable)",
              file=sys.stderr)
        return 130
    except (ValueError, OSError, KeyError, ReproError) as exc:
        # SpecError, UnknownOptimizerError, CheckpointError and unreadable
        # files all land here: user errors get one clean line, not a trace.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
