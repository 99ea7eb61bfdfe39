"""Set-up probe: from a fresh interpreter to the first graph build.

    python3 perfbench/probe.py <workload> <work dir>

Imports esnas, validates the workload's configuration from the inputs the
benchmark wrote to <work dir>, builds the first graph the workload would
build, then prints "ready".  run.py times this from process start.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(workload, work):
    if workload == "score_224":
        from esnas import archspace, metrics, netgraph  # noqa: F401

        space = archspace.SearchSpaceConfig.from_dict(
            json.loads((work / "space.json").read_text()))
        first = (work / "genomes.ndjson").read_text().splitlines()[0]
        netgraph.build_graph(archspace.ArchGenome.from_json(first), space,
                             seed=0)
    elif workload == "search_s0_32px":
        from esnas import archspace, cli, evolve, metrics  # noqa: F401

        cfg = json.loads((work / "config.json").read_text())
        space = archspace.SearchSpaceConfig.from_dict(cfg["space"])
        evolve.SearchSchedule.from_dict(cfg["schedule"])
        metrics.EntropicConfig.from_dict(cfg.get("entropic", {}))
        seed = json.loads((work / "search_seeds.json").read_text())[0]
        archspace.count_params(archspace.random_genome(space, seed), space)
    elif workload == "correlate_pool":
        from esnas import archspace, bench, cli, netgraph  # noqa: F401

        entries = bench.load_benchmark_csv(work / "bench.csv")
        space = archspace.SearchSpaceConfig.from_dict(
            json.loads((work / "space.json").read_text()))
        netgraph.build_graph(archspace.ArchGenome.from_json(entries[0].arch),
                             space, seed=0)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
