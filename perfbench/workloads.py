"""The benchmark's workloads: inputs made from a seed, one operation each,
and the checks of its outputs against the stored references.

Every workload draws its inputs from a pool stored under ``refs/`` together
with the reference outputs, so that any seed yields inputs whose correct
outputs are known.  ``make_refs.py`` regenerates the pools.

Draws are stratified by the cost each pool item took when the pool was made
(``cost_s``): every seed gets a different set with the same spread of cost,
so that run-to-run differences reflect the program rather than the draw.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

from esnas import archspace, cli, metrics
from scipy import stats as st

from layers import checked_class_costs

REFS = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-9  # scores: only the order of float64 arithmetic may differ

SCORE_PER_SEED = 20      # candidates a score_224 seed draws from its pool
SEARCH_PER_SEED = 4      # searches a search_s0_32px seed draws
CORRELATE_ROWS = 60      # CSV rows a correlate_pool seed draws
CORRELATE_WORKERS = 2


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def load_ref(name):
    return json.loads((REFS / f"{name}.json").read_text())


def stratified_sample(pool, k, rng):
    """One item from each of k contiguous strata of the pool ranked by
    ``cost_s``, in random order."""
    ranked = sorted(pool, key=lambda item: item["cost_s"])
    cuts = [round(j * len(ranked) / k) for j in range(k + 1)]
    picks = [ranked[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
    rng.shuffle(picks)
    return picks


class Stats:
    """What one measuring window did: operations, failures and counts."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.errors = []
        self.scored = []  # genome JSON of each candidate scored, for op costs
        self.searches = 0
        self.search_steps = 0
        self.steps_skipped = 0
        self.invocations = 0
        self.rows_scored = 0
        self.skipped_rows = 0

    def fail(self, n, why):
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)


def quiet_cli(argv):
    """Run the esnas command line in this process; its stdout is dropped
    (the benchmark owns stdout) and its exit code returned."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Score224:
    """Closed loop, one client: metrics.score_genome on distinct default-space
    genomes at 224 px.  One operation is one candidate."""

    name = "score_224"

    def __init__(self, work, seed):
        ref = load_ref(self.name)
        # Peak memory is a maximum over the set, so every set holds the
        # pool's most memory-hungry candidate; the rest are stratified.
        pool = ref["candidates"]
        anchor = max(pool, key=lambda c: c["peak_bytes"])
        rng = random.Random(seed)
        self.items = [anchor] + stratified_sample(
            [c for c in pool if c is not anchor], SCORE_PER_SEED - 1, rng)
        rng.shuffle(self.items)
        (work / "space.json").write_text(json.dumps(ref["space"]))
        (work / "genomes.ndjson").write_text(
            "".join(c["genome"] + "\n" for c in self.items))
        self.space = archspace.SearchSpaceConfig.from_dict(ref["space"])
        self.genomes = [archspace.ArchGenome.from_json(c["genome"])
                        for c in self.items]
        self.base_seed = ref["base_seed"]
        # Computed op-class MACs must add up to the engine's own count.
        self.unclassified = {i for i, g in enumerate(self.genomes)
                             if not checked_class_costs(g, self.space)[2]}

    def run(self, i, stats):
        ref = self.items[i]
        stats.ops += 1
        try:
            r = metrics.score_genome(self.genomes[i], self.space,
                                     base_seed=self.base_seed)
        except Exception as e:  # noqa: BLE001 - a failed candidate is counted
            stats.fail(1, f"candidate {i}: {type(e).__name__}: {e}")
            return
        bad = [k for k in ("params", "macs") if getattr(r, k) != ref[k]]
        bad += [k for k in ("entropic", "logsynflow")
                if not close(getattr(r, k), ref[k])]
        if i in self.unclassified:
            bad.append("op-class MACs")
        if bad:
            stats.fail(1, f"candidate {i}: {bad} differ from the reference")


class SearchS0:
    """`esnas search --preset S0 --budget-mode evals` at 32 px with the stock
    schedule scaled by 1/5 (see make_refs.SEARCH_CONFIG), which keeps its
    mix of initial, refill and evolution steps.  One operation is one
    proposal step."""

    name = "search_s0_32px"

    def __init__(self, work, seed):
        ref = load_ref(self.name)
        self.items = stratified_sample(ref["searches"], SEARCH_PER_SEED,
                                       random.Random(seed))
        self.space = archspace.SearchSpaceConfig.from_dict(
            ref["config"]["space"])
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(ref["config"]))
        (work / "search_seeds.json").write_text(
            json.dumps([s["seed"] for s in self.items]))

    def run(self, i, stats):
        ref = self.items[i]
        out = self.work / f"search-{ref['seed']}"
        rc = quiet_cli(["search", "--preset", "S0", "--budget-mode", "evals",
                         "--config", str(self.config_path), "--out", str(out),
                         "--seed", str(ref["seed"])])
        try:
            if rc != 0:
                raise ValueError(f"exit {rc}")
            history = [json.loads(line) for line in
                       (out / "history.ndjson").read_text().splitlines()]
            steps = history[-1]["step"]
            best = (out / "best_genome.json").read_text().strip()
            report = json.loads((out / "best_report.json").read_text())
        except (OSError, ValueError, KeyError, IndexError) as e:
            stats.ops += ref["steps"]
            stats.fail(ref["steps"], f"search seed {ref['seed']}: {e}")
            return
        stats.ops += steps
        stats.searches += 1
        stats.search_steps += steps
        stats.steps_skipped += sum(ev["event"] == "step_skipped"
                                   for ev in history)
        bad = [] if best == ref["best_genome"] else ["best_genome"]
        bad += [] if steps == ref["steps"] else ["steps"]
        bad += [] if report["params"] == ref["params"] else ["params"]
        bad += [k for k in ("entropic", "logsynflow")
                if not close(report[k], ref[k])]
        if bad:
            stats.fail(steps, f"search seed {ref['seed']}: {bad} differ "
                              f"from the reference")


class CorrelatePool:
    """`esnas correlate --workers 2` on a CSV of `arch_json,accuracy` rows at
    32 px.  Accuracies are drawn from the seed; the reference coefficients
    come from the stored per-genome scores through scipy.  One operation is
    one row; every pass is one invocation, pool start-up included."""

    name = "correlate_pool"

    def __init__(self, work, seed):
        ref = load_ref(self.name)
        rng = random.Random(seed)
        self.rows = stratified_sample(ref["rows"], CORRELATE_ROWS, rng)
        self.accuracies = [round(rng.uniform(40.0, 95.0), 2)
                           for _ in self.rows]
        self.metric = ref["metric"]
        self.work = work
        self.csv_path = work / "bench.csv"
        with open(self.csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["arch_json", "accuracy"])
            for row, acc in zip(self.rows, self.accuracies):
                w.writerow([row["genome"], f"{acc:.2f}"])
        self.space_path = work / "space.json"
        self.space_path.write_text(json.dumps(ref["space"]))
        self.space = archspace.SearchSpaceConfig.from_dict(ref["space"])
        scores = [row[self.metric] for row in self.rows]
        self.expect = {
            "kendall_tau": float(st.kendalltau(scores, self.accuracies)[0]),
            "spearman_rho": float(st.spearmanr(scores, self.accuracies)[0]),
            "n": CORRELATE_ROWS,
            "skipped_rows": 0,
        }
        self.items = [0]

    def run(self, i, stats):
        out = self.work / "correlate" / "report.json"
        out.parent.mkdir(exist_ok=True)
        n = CORRELATE_ROWS
        stats.ops += n
        stats.invocations += 1
        rc = quiet_cli(["correlate", "--bench", str(self.csv_path),
                         "--metric", self.metric,
                         "--config", str(self.space_path),
                         "--workers", str(CORRELATE_WORKERS),
                         "--out", str(out)])
        try:
            if rc != 0:
                raise ValueError(f"exit {rc}")
            report = json.loads(out.read_text())
            pairs = list(csv.reader(io.StringIO(
                (out.parent / "scatter.csv").read_text())))[1:]
        except (OSError, ValueError) as e:
            stats.fail(n, f"correlate: {e}")
            return
        stats.scored.extend(row["genome"] for row in self.rows)
        stats.rows_scored += report["n"]
        stats.skipped_rows += report["skipped_rows"]
        bad = [k for k in ("n", "skipped_rows") if report[k] != self.expect[k]]
        bad += [k for k in ("kendall_tau", "spearman_rho")
                if not close(report[k], self.expect[k])]
        if bad:
            stats.fail(n, f"correlate: {bad} differ from the reference")
            return
        wrong = sum(1 for (s, a), row, acc in
                    zip(pairs, self.rows, self.accuracies)
                    if not close(float(s), row[self.metric])
                    or float(a) != acc)
        wrong += abs(len(pairs) - n)
        if wrong:
            stats.fail(wrong, f"correlate: {wrong} rows differ from the "
                              f"reference scores")


WORKLOADS = {w.name: w for w in (Score224, SearchS0, CorrelatePool)}
