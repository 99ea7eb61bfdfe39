"""Command-line entry point: score, search, correlate, stats.

Outputs are canonical JSON (fixed key order, compact separators) so that
reruns with identical config, seed and evaluation budgets are byte-identical.
``search`` and ``correlate`` write a manifest beside their outputs; ``score``
writes only its ``--out`` report and ``stats`` only prints.  Every output path
is checked, and its directory created, before any input is scored.  Exit
codes: 0 ok, 1 internal error, 2 invalid input (``score``: a genome whose
proxy is not finite, too).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, archspace, bench, evolve, metrics, netgraph

log = logging.getLogger("esnas")

PRESETS = {
    "S0": {"max_params": 3_500_000, "phase_seconds": 300, "total_seconds": 2700},
    "S1": {"max_params": 6_000_000, "phase_seconds": 300, "total_seconds": 2700},
    "S2": {"max_params": 12_500_000, "phase_seconds": 360, "total_seconds": 3300},
}
MULTISTART_SECONDS = 180

# Defaults when --budget-mode evals is selected without explicit budgets.
EVAL_BUDGETS = {"multistart": 30, "phase": 60, "total": 400}


class CliError(Exception):
    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or []


def canonical_json(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def atomic_write(path, text):
    """Write ``text`` to ``path`` through a temporary file beside it, which a
    failed write or replace removes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _output_paths(directory, *names):
    """Check and create a command's outputs before any work: refuse two
    names for one file and a name that is an existing directory, create
    ``directory``, and return the paths of ``names`` in it.  Each refusal
    names the path and creates nothing."""
    paths = [directory / name for name in names]
    for i, path in enumerate(paths):
        if path in paths[:i]:
            raise CliError(f"output file {path} would be written twice")
    for path in paths:
        if path.is_dir():
            raise CliError(f"output file {path} is a directory")
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create output directory {directory}", [str(e)])
    return paths


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _load_json_file(path, what):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}")
    except OSError as e:
        raise CliError(f"cannot read {what} file {path}", [str(e)])
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CliError(f"{what} file {path} is not valid JSON", [str(e)])


def _load_space(path):
    try:
        return archspace.SearchSpaceConfig.from_dict(_load_json_file(path, "config"))
    except archspace.ConfigError as e:
        raise CliError(f"invalid search-space config {path}", [str(e)])


def _load_genome(path):
    d = _load_json_file(path, "genome")
    try:
        return archspace.ArchGenome.from_dict(d)
    except (KeyError, ValueError, TypeError) as e:
        raise CliError(f"invalid genome file {path}", [str(e)])


class ManifestWriter:
    """A run's record: ``config_obj`` (with its hash) and ``seed`` rerun it,
    together with any ``fields``, such as search's budget mode and preset."""

    def __init__(self, subcommand, config_obj, seed, **fields):
        self.data = {
            "tool_version": __version__,
            "config_hash": hashlib.sha256(
                canonical_json(config_obj).encode()).hexdigest(),
            "config": config_obj,
            "master_seed": seed,
            "started_at": datetime.now(timezone.utc).isoformat(),
            "ended_at": None,
            "subcommand": subcommand,
            **fields,
            "outputs": [],
        }

    def finish(self, path, outputs):
        self.data["ended_at"] = datetime.now(timezone.utc).isoformat()
        self.data["outputs"] = [str(o) for o in outputs]
        atomic_write(path, json.dumps(self.data, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_score(args):
    space = _load_space(args.config)
    genome = _load_genome(args.arch)
    if args.out:
        out = Path(args.out)
        out_path, = _output_paths(out.parent, out.name)
    try:
        report = metrics.score_genome(genome, space, base_seed=args.seed)
    except FloatingPointError as e:
        raise CliError("a proxy of the genome is not finite", [str(e)])
    text = report.to_json()
    if args.out:
        atomic_write(out_path, text + "\n")
    print(text)
    return 0


def cmd_stats(args):
    space = _load_space(args.config)
    structure = netgraph.build_structure(_load_genome(args.arch), space)
    out = {
        "params": netgraph.count_graph_params(structure),
        "macs": netgraph.count_graph_macs(structure),
    }
    print(canonical_json(out))
    return 0


SEARCH_SECTIONS = {cls.section: cls for cls in (
    archspace.SearchSpaceConfig, evolve.SearchSchedule, metrics.EntropicConfig)}


def _search_config(args):
    """Merge the budget mode's and preset's defaults, then an optional
    config file."""
    cfg = {name: {} for name in SEARCH_SECTIONS}
    p = PRESETS.get(args.preset)
    if p:
        cfg["space"]["max_params"] = p["max_params"]
    if args.budget_mode == "evals":
        kind, budgets = "evaluations", EVAL_BUDGETS
    else:
        kind, budgets = "wallclock_seconds", p and {
            "multistart": MULTISTART_SECONDS, "phase": p["phase_seconds"],
            "total": p["total_seconds"]}
    if budgets:
        cfg["schedule"] = {f"{name}_budget": {"kind": kind, "amount": amount}
                           for name, amount in budgets.items()}
    if args.config:
        user = _load_json_file(args.config, "config")
        if not isinstance(user, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
        cfg = _deep_merge(cfg, user)
    return cfg


def cmd_search(args):
    cfg = _search_config(args)
    problems = []
    unknown = [k for k in cfg if k not in SEARCH_SECTIONS]
    if unknown:
        problems.append(f"unknown top-level key(s) "
                        f"{', '.join(map(repr, unknown))}; known keys: "
                        f"{', '.join(SEARCH_SECTIONS)}")
    parsed = {}
    for name, cls in SEARCH_SECTIONS.items():
        try:
            parsed[name] = cls.from_dict(cfg[name])
        except archspace.ConfigError as e:
            problems.append(f"{name}: {e}")
    if problems:
        raise CliError("invalid search configuration", problems)
    space, schedule, ecfg = parsed["space"], parsed["schedule"], parsed["entropic"]
    if args.budget_mode == "evals":
        for b in (schedule.multistart_budget, schedule.phase_budget,
                  schedule.total_budget):
            if b.kind != "evaluations":
                raise CliError("--budget-mode evals requires evaluation budgets",
                               [f"{b.kind} budget found"])
    engine = evolve.SearchEngine(space, schedule, args.seed, ecfg)
    genome_path, report_path, history_path, manifest_path = _output_paths(
        Path(args.out or "."), "best_genome.json", "best_report.json",
        "history.ndjson", "manifest.json")
    manifest = ManifestWriter("search", cfg, args.seed,
                              budget_mode=args.budget_mode, preset=args.preset)

    log.info("starting search: space=%s schedule=%s", space.ref(),
             schedule.to_dict())
    best, history = engine.cyclic_search()
    events = [ev["event"] for ev in history]
    manifest.data.update(evaluations=engine.step,
                         failed_evaluations=events.count("eval_failed"),
                         steps_skipped=events.count("step_skipped"))
    atomic_write(genome_path, best.genome.to_json() + "\n")
    atomic_write(report_path, best.report.to_json() + "\n")
    atomic_write(history_path,
                 "".join(canonical_json(ev) + "\n" for ev in history))
    manifest.finish(manifest_path, [genome_path, report_path, history_path])
    print(canonical_json({
        "best_genome": str(genome_path),
        "params": best.report.params,
        "entropic": best.report.entropic,
        "logsynflow": best.report.logsynflow,
    }))
    return 0


def cmd_correlate(args):
    try:
        entries = bench.load_benchmark_csv(args.bench)
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read benchmark file {args.bench}", [str(e)])
    if args.sample:
        entries = bench.sample_entries(entries, args.sample, args.seed)
    space = _load_space(args.config) if args.config else None
    if space is None and any(args.metric not in e.precomputed_scores
                             and e.arch is not None for e in entries):
        raise CliError(
            f"benchmark rows lack precomputed 'score_{args.metric}' values; "
            f"--config is required to instantiate architectures")
    out = Path(args.out or "report.json")
    out_path, scatter_path, manifest_path = _output_paths(
        out.parent, out.name, "scatter.csv", "manifest.json")
    manifest = ManifestWriter("correlate", {
        "bench": str(args.bench), "metric": args.metric,
        "space": space.to_dict() if space else None, "sample": args.sample,
        "workers": args.workers}, args.seed)
    try:
        report, pairs = bench.correlate_benchmark(
            entries, args.metric, config=space, base_seed=args.seed,
            workers=args.workers)
    except bench.CorrelationError as e:
        raise CliError("correlation failed", [str(e)])
    atomic_write(out_path, canonical_json(report.to_dict()) + "\n")
    atomic_write(scatter_path, "score,accuracy\n" + "".join(
        f"{s!r},{a!r}\n" for s, a in pairs))
    manifest.finish(manifest_path, [out_path, scatter_path])
    print(canonical_json(report.to_dict()))
    return 0


# ---------------------------------------------------------------------------

def _int_at_least(least):
    """The argparse type of an int of at least ``least``; argparse reports
    the ValueError of a non-int as an invalid int value."""
    def check(text):
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    check.__name__ = "int"
    return check


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esnas",
        description="Training-free NAS: entropy/gradient-flow scoring and "
                    "decoupled evolutionary search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_int_at_least(0), default=0,
                       help="master seed, a non-negative int")
        p.add_argument("--out", help="output file or directory")

    p = sub.add_parser("score", help="score one genome file")
    common(p)
    p.add_argument("--arch", required=True, help="genome JSON file")
    p.add_argument("--config", required=True, help="search-space JSON file")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="print params and MACs for a genome")
    p.add_argument("--arch", required=True, help="genome JSON file")
    p.add_argument("--config", required=True, help="search-space JSON file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("search", help="run the decoupled cyclic search")
    common(p)
    p.add_argument("--config", help="JSON with space/schedule/entropic sections")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="parameter-budget preset")
    p.add_argument("--budget-mode", choices=["wallclock", "evals"],
                   default="wallclock", dest="budget_mode")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("correlate", help="rank-correlate a metric vs accuracy")
    common(p)
    p.add_argument("--bench", required=True, help="benchmark CSV file")
    p.add_argument("--metric", required=True,
                   choices=metrics.PROXIES)
    p.add_argument("--config", help="search-space JSON (needed to score rows)")
    p.add_argument("--sample", type=_int_at_least(1),
                   help="uniform row sample size")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="scoring pool size; 1 scores rows in this process")
    p.set_defaults(func=cmd_correlate)

    return parser


def _error(message, details, code):
    print(json.dumps({"error": {"message": message, "details": details}}),
          file=sys.stderr)
    return code


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def main(argv=None):
    level = (os.environ.get("ESNAS_LOG") or "WARNING").upper()
    if level not in LOG_LEVELS:
        return _error(f"ESNAS_LOG={os.environ['ESNAS_LOG']!r} is not a log "
                      f"level", [f"accepted levels: {', '.join(LOG_LEVELS)}"],
                      2)
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        return _error(str(e), e.details, 2)
    except archspace.InvalidGenomeError as e:
        # build_structure's validation is the one check of a genome
        return _error("genome fails validation", e.violations, 2)
    except archspace.ConfigError as e:
        return _error("invalid search configuration", [str(e)], 2)
    except Exception as e:  # noqa: BLE001 - report, keep machine-readable
        log.exception("internal error")
        return _error(f"internal error: {e}", [], 1)


if __name__ == "__main__":
    sys.exit(main())
