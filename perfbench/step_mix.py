"""Compare the benchmark's search schedule with the stock evals-mode S0 one.

    python3 perfbench/step_mix.py [--stock] SEED...

Runs one 32 px search per seed in this process with every layer wrapped and
prints one JSON line each: seconds per step, the share of steps that seed a
multi-start population (init), refill a phase population (refill) or evolve
a child (evolve), unique scorings per step, and the share of wall time spent
in the layers that dominate at 32 px.  ``--stock`` runs the stock budgets
(400 steps, about 75 s) instead of make_refs.SEARCH_CONFIG.
"""

from __future__ import annotations

import argparse
import functools
import json
import time
from collections import Counter

from make_refs import SEARCH_CONFIG  # puts src/ and this directory on the path

from esnas import archspace, cli, evolve  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, inclusive_times  # noqa: E402

KINDS = {"init_population": "init", "refill_population": "refill",
         "evolution_step": "evolve"}
SHARES = ("netgraph.reinit", "netgraph.prepare_for_scoring",
          "netgraph.build_graph", "archspace.count_params",
          "netgraph.forward", "netgraph.backward_param_grads")


def stock_schedule():
    return {f"{k}_budget": {"kind": "evaluations", "amount": v}
            for k, v in cli.EVAL_BUDGETS.items()}


def step_mix(schedule, seed):
    space = archspace.SearchSpaceConfig.from_dict(SEARCH_CONFIG["space"])
    tracer = Tracer()
    mix = Counter()

    def counting(kind):
        def make(original):
            @functools.wraps(original)
            def wrapper(self, *args, **kwargs):
                before = self.step
                try:
                    return original(self, *args, **kwargs)
                finally:
                    mix[kind] += self.step - before
            return wrapper
        return make

    for attr, kind in KINDS.items():
        tracer.patch(evolve.SearchEngine, attr, counting(kind))
    layers.install(tracer, full=True)
    try:
        t0 = time.perf_counter()
        _, history = evolve.cyclic_search(
            space, evolve.SearchSchedule.from_dict(schedule), seed)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    steps = history[-1]["step"]
    inc = inclusive_times(tracer.spans)
    scorings = sum(s.name == "metrics.score_genome" for s in tracer.spans)
    return {
        "seed": seed, "steps": steps, "s_per_step": wall / steps,
        "mix": {k: mix[k] / steps for k in KINDS.values()},
        "unique_per_step": scorings / steps,
        "skipped": sum(ev["event"] == "step_skipped" for ev in history),
        "time_share": {name: inc[name] / wall for name in SHARES},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stock", action="store_true")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    schedule = stock_schedule() if args.stock else SEARCH_CONFIG["schedule"]
    for seed in args.seeds:
        print(json.dumps(step_mix(schedule, seed)), flush=True)


if __name__ == "__main__":
    main()
