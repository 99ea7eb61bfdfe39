"""Regenerate the input pools and reference outputs under refs/.

    python3 perfbench/make_refs.py [score_224 search_s0_32px correlate_pool]

With no names it regenerates all three.  Run it only on a commit whose scores are trusted: the benchmark counts every
later deviation from these files as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from esnas import archspace, metrics  # noqa: E402

from workloads import REFS, quiet_cli  # noqa: E402

SCORE_POOL = 48
SEARCH_POOL = 24
CORRELATE_POOL = 96
BASE_SEED = 0

# The stock evals-mode S0 schedule scaled by 1/5 so that it keeps the stock
# mix of steps: 5 multi-start populations of 25 -> 5 members, 30 -> 6 steps
# each; 45 refill and 15 evolution steps per phase -> 9 and 3 (population
# 50 -> 14 with the default 5 seeds per phase); 400 steps in all -> 80.
# Both split into 31% initial members, 48% refills and 21% evolution steps,
# with 4 whole phases and a partial one that only refills.
SEARCH_CONFIG = {
    "space": {"input_resolution": 32, "max_params": 3_500_000},
    "schedule": {
        "multistart_populations": 5,
        "multistart_population_size": 5,
        "multistart_tournament_size": 2,
        "multistart_budget": {"kind": "evaluations", "amount": 6},
        "population_size": 14,
        "tournament_size": 3,
        "phase_budget": {"kind": "evaluations", "amount": 12},
        "total_budget": {"kind": "evaluations", "amount": 80},
    },
}


def distinct_genomes(space, n, first_seed):
    seen, out, seed = set(), [], first_seed
    while len(out) < n:
        g = archspace.random_genome(space, seed)
        seed += 1
        if g.to_json() not in seen:
            seen.add(g.to_json())
            out.append(g)
    return out


def timed(fn, *args, repeats=1, **kwargs):
    """fn's result and its fastest time over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return out, best


def peak_traced_bytes(fn, *args, **kwargs):
    """Peak bytes allocated while fn runs, as tracemalloc (numpy included)
    counts them: deterministic, unlike the resident set."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def score_pool():
    space = archspace.SearchSpaceConfig().validate()
    cands = []
    for g in distinct_genomes(space, SCORE_POOL, 0):
        r, cost = timed(metrics.score_genome, g, space, repeats=2,
                        base_seed=BASE_SEED)
        cands.append({"genome": g.to_json(), "params": r.params,
                      "macs": r.macs, "entropic": r.entropic,
                      "logsynflow": r.logsynflow, "cost_s": cost,
                      "peak_bytes": peak_traced_bytes(
                          metrics.score_genome, g, space,
                          base_seed=BASE_SEED)})
    return {"space": space.to_dict(), "base_seed": BASE_SEED,
            "candidates": cands}


def search_pool():
    searches = []
    tmp = HERE / ".work" / "make_refs"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(SEARCH_CONFIG))
    for seed in range(SEARCH_POOL):
        out = tmp / f"s{seed}"
        rc, cost = timed(quiet_cli, [
            "search", "--preset", "S0", "--budget-mode", "evals",
            "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
        if rc != 0:
            raise SystemExit(f"search seed {seed} exited {rc}")
        last = json.loads(
            (out / "history.ndjson").read_text().splitlines()[-1])
        report = json.loads((out / "best_report.json").read_text())
        searches.append({
            "seed": seed, "steps": last["step"],
            "best_genome": (out / "best_genome.json").read_text().strip(),
            "params": report["params"], "entropic": report["entropic"],
            "logsynflow": report["logsynflow"], "cost_s": cost})
    return {"config": SEARCH_CONFIG, "searches": searches}


def correlate_pool():
    space = archspace.SearchSpaceConfig(input_resolution=32).validate()
    rows = []
    for g in distinct_genomes(space, CORRELATE_POOL, 10_000):
        r, cost = timed(metrics.score_genome, g, space, repeats=2,
                        base_seed=BASE_SEED)
        rows.append({"genome": g.to_json(), "entropic": r.entropic,
                     "cost_s": cost})
    return {"space": space.to_dict(), "metric": "entropic", "rows": rows}


MAKERS = {"score_224": score_pool, "search_s0_32px": search_pool,
          "correlate_pool": correlate_pool}


def main(names):
    unknown = set(names) - set(MAKERS)
    if unknown:
        raise SystemExit(f"unknown refs {sorted(unknown)}; "
                         f"choose from {sorted(MAKERS)}")
    REFS.mkdir(exist_ok=True)
    for name in names or MAKERS:
        (REFS / f"{name}.json").write_text(
            json.dumps(MAKERS[name](), indent=1) + "\n")
        print(f"wrote {name}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
