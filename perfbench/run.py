"""esnas benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload score_224 --seed 0 --seconds 20 \
        --trace 0

Run from the root of a checkout; the program is imported from its src/.
Prints the environment and every metric by name with its unit, and as the
last line one JSON object with the keys correct, attempted, failed, metrics.

--trace 0 measures the end-to-end metrics.  Only metrics.score_genome is
wrapped, because the latency metrics are the durations of its calls.
--trace 1 measures an untraced window and then a traced window that wraps
every layer; it reports the per-layer metrics and both windows' throughput.
Inputs, outputs, the full result and the spans go to
perfbench/.work/<workload>-<seed>-t<trace>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import environment, peak_rss_mb, tail_percentile, tail_ready
from tracer import Tracer, durations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60


def import_program():
    """Put the checkout's src/ first on the path; refuse any other esnas."""
    pkg = ROOT / "src" / "esnas"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found: run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import esnas

    if Path(esnas.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported esnas from {esnas.__file__}")


def metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def closed_loop(wl, seconds, tracer, stats, after_pass=None):
    """Closed loop with one client: run passes over the seed's inputs, each
    operation starting when the previous one returns, until ``seconds`` of
    passes have run and the latency samples reach the TAIL_MIN_PERCENTILE
    tail.  Returns the seconds spent in passes.

    Ending on whole passes keeps the mix of inputs in every run the seed's
    full set, so counts repeat exactly and timings do not depend on where
    in a pass the clock ran out.  ``after_pass`` runs between passes,
    outside the timed part, as does merging the spans pool workers wrote.
    """
    busy = 0.0
    op = 0
    while True:
        t0 = time.perf_counter()
        for i in range(len(wl.items)):
            tracer.op = op
            wl.run(i, stats)
            op += 1
        busy += time.perf_counter() - t0
        tracer.merge_spills()
        if after_pass is not None:
            after_pass()
        if busy >= seconds and tail_ready(
                len(durations(tracer.spans, "metrics.score_genome"))):
            return busy


def probe_seconds(workload, work):
    """Time from starting a fresh interpreter to its first graph build."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                           workload, str(work)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("error: set-up probe did not exit")
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe failed ({proc.returncode})")
    return elapsed


def end_to_end(args, wl, work):
    import layers
    from workloads import Stats

    stats = Stats()
    tracer = Tracer(spill_dir=work)
    setups = []

    def probe():
        # Spread over the run, so the median sees more than one stretch
        # of the machine's speed.
        if len(setups) < SETUP_REPEATS:
            setups.append(probe_seconds(args.workload, work))

    layers.install(tracer, full=False)
    try:
        wall = closed_loop(wl, args.seconds, tracer, stats, after_pass=probe)
    finally:
        tracer.restore()
    while len(setups) < SETUP_REPEATS:
        probe()
    lat = durations(tracer.spans, "metrics.score_genome")
    pct, tail, n = tail_percentile(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "score_p50_s": statistics.median(lat),
        "score_tail_s": tail,
        "candidates_per_s": len(lat) / wall,
        "evals_per_s": stats.ops / wall,
        "rows_per_s": stats.ops / wall,
        "peak_rss_mb": peak_rss_mb(tracer.workers_growth_kb),
    }
    extra = {"wall_s": wall, "tail_percentile": pct, "latency_samples": n,
             "setup_samples_s": setups}
    return metrics, [stats], extra


def per_layer(args, wl, work):
    import layers
    from esnas import archspace
    from workloads import Stats

    windows = {}
    for mode in ("untraced", "traced"):
        stats = Stats()
        tracer = Tracer(spill_dir=work)
        if mode == "traced":
            layers.install(tracer, full=True,
                           on_score=lambda g: stats.scored.append(g.to_json()))
        else:
            layers.install(tracer, full=False)
        try:
            wall = closed_loop(wl, args.seconds, tracer, stats)
        finally:
            tracer.restore()
        windows[mode] = (stats, tracer, wall)
    throughput = {}
    for mode, (stats, tracer, wall) in windows.items():
        cands = len(durations(tracer.spans, "metrics.score_genome"))
        throughput[f"{mode}.candidates_per_s"] = cands / wall
        throughput[f"{mode}.evals_per_s"] = stats.ops / wall
    stats, tracer, wall = windows["traced"]
    costs = {}
    for g in set(stats.scored):
        costs[g] = layers.checked_class_costs(
            archspace.ArchGenome.from_json(g), wl.space)
        if not costs[g][2]:
            stats.fail(1, "op-class MACs do not sum to count_graph_macs")
    metrics = layers.per_layer_metrics(tracer, stats, costs, throughput)
    tracer.write(work / "trace.ndjson")
    extra = {"wall_s": {m: w[2] for m, w in windows.items()},
             "spans": len(tracer.spans)}
    return metrics, [w[0] for w in windows.values()], extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    units = metric_units(args.trace)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(ROOT, args.workload, args.seed)
    wl = WORKLOADS[args.workload](work, args.seed)

    run = per_layer if args.trace else end_to_end
    metrics, windows, extra = run(args, wl, work)
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")
    attempted = sum(s.ops for s in windows)
    failed = sum(s.failed for s in windows)
    errors = [e for s in windows for e in s.errors]
    record = {"environment": env, "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "errors": errors,
              **extra,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    for key in ("seconds", "trace", "attempted", "failed", "error_rate",
                *extra):
        print(f"{key} {json.dumps(record[key])}")
    for e in errors:
        print(f"check failed: {e}")
    for k in units:
        print(f"{k} {metrics[k]!r} {units[k]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
