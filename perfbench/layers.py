"""Instrumentation of the esnas layers, installed from outside the package,
and the per-layer metrics derived from what it records."""

from __future__ import annotations

import functools
import math
from collections import Counter

from esnas import archspace, bench, cli, evolve, metrics, netgraph

from tracer import inclusive_times, self_times

OP_CLASSES = ("conv1x1", "dwconv", "conv_dense", "attn")
BYTES_PER_ELEMENT = 8  # the engine computes in float64

# (owner, attribute, span name) of every timed public function.
TIMED = [
    (netgraph, "build_graph", "netgraph.build_graph"),
    (netgraph, "reinit", "netgraph.reinit"),
    (netgraph, "prepare_for_scoring", "netgraph.prepare_for_scoring"),
    (metrics, "entropic_score", "metrics.entropic_score"),
    (metrics, "normalize_activations", "metrics.normalize_activations"),
    (metrics, "layer_entropy", "metrics.layer_entropy"),
    (metrics, "logsynflow", "metrics.logsynflow"),
    (archspace, "count_params", "archspace.count_params"),
    (archspace, "mutate", "archspace.mutate"),
    (archspace, "crossover", "archspace.crossover"),
    (archspace, "random_genome", "archspace.random_genome"),
    (evolve, "cyclic_search", "evolve.cyclic_search"),
    (bench, "load_benchmark_csv", "bench.load_benchmark_csv"),
    (bench, "correlate_benchmark", "bench.correlate_benchmark"),
    (bench, "kendall_tau", "bench.kendall_tau"),
    (cli, "cmd_correlate", "cli.correlate"),
]


def install(tracer, full, on_score=None):
    """Wrap metrics.score_genome (always: the latency metrics are its span
    durations) and, when ``full``, every layer the per-layer metrics need.

    ``on_score(genome)`` is called ahead of each scoring in this process.
    """
    tracer.wrap(metrics, "score_genome", "metrics.score_genome",
                before=(lambda genome, *a, **k: on_score(genome))
                if on_score else None)
    if not full:
        return

    def dispatched(graph, *args, **kwargs):
        tracer.count("netgraph.nodes_dispatched", len(graph.nodes))
        tracer.count("netgraph.identity_nodes_dispatched",
                     sum(n.kind == "identity" for n in graph.nodes))

    tracer.wrap(netgraph, "forward", "netgraph.forward", before=dispatched)
    tracer.wrap(netgraph, "backward_param_grads",
                "netgraph.backward_param_grads", before=dispatched)
    for owner, attr, name in TIMED:
        tracer.wrap(owner, attr, name)

    # Cache lookups and feasibility checks are evolve's own work: counted,
    # not timed, so their cost stays in evolve's self time.
    def counting_score(original):
        @functools.wraps(original)
        def score(self, genome):
            tracer.count("evolve.cache_lookups")
            return original(self, genome)
        return score

    def counting_feasible(original):
        @functools.wraps(original)
        def feasible(self, genome):
            ok = original(self, genome)
            tracer.count("evolve.feasible_checks")
            tracer.count("evolve.feasible_true", bool(ok))
            return ok
        return feasible

    tracer.patch(evolve.SearchEngine, "score", counting_score)
    tracer.patch(evolve.SearchEngine, "feasible", counting_feasible)


# ---------------------------------------------------------------------------
# computed op-class costs

def op_class(node):
    if node.kind == "conv2d":
        if node.attrs["groups"] > 1:
            return "dwconv"
        return "conv1x1" if node.attrs["kernel"] == 1 else "conv_dense"
    if node.kind == "matmul":
        return "attn"
    return None


def class_costs(graph):
    """Computed MACs and bytes of one forward pass, per op class.

    Bytes are 8 x (input + parameter + output elements) of each node: array
    sizes, not a measurement, so cache reuse and misses are ignored.
    """
    def shape(i):
        if i == netgraph.INPUT:
            return graph.input_shape
        return graph.out_shapes[i]

    macs = dict.fromkeys(OP_CLASSES, 0)
    nbytes = dict.fromkeys(OP_CLASSES, 0)
    for nid, node in enumerate(graph.nodes):
        cls = op_class(node)
        if cls is None:
            continue
        out = graph.out_shapes[nid]
        if node.kind == "conv2d":
            a = node.attrs
            macs[cls] += (a["kernel"] ** 2 * (a["in_ch"] // a["groups"])
                          * a["out_ch"] * out[1] * out[2])
        else:
            a_shape = shape(node.inputs[0])
            inner = a_shape[-2 if node.attrs.get("transpose_a") else -1]
            macs[cls] += math.prod(out) * inner
        elements = (math.prod(out)
                    + sum(math.prod(shape(i)) for i in node.inputs)
                    + sum(p.size for p in node.params))
        nbytes[cls] += BYTES_PER_ELEMENT * elements
    return macs, nbytes


def checked_class_costs(genome, space):
    """class_costs of the genome's graph, and whether the classes sum to
    netgraph.count_graph_macs (every MAC-bearing node has a class)."""
    graph = netgraph.build_graph(genome, space, seed=0)
    macs, nbytes = class_costs(graph)
    return macs, nbytes, sum(macs.values()) == netgraph.count_graph_macs(graph)


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, stats, costs, throughput):
    """Per-layer figures of a traced window.

    Times are seconds per operation of the workload; netgraph counts and
    op-class costs are per scored candidate; evolve counts per search;
    bench counts per correlate invocation.
    """
    spans = tracer.spans
    inc = inclusive_times(spans)
    own = self_times(spans)
    calls = Counter(s.name for s in spans)
    counts = tracer.counts
    ops = stats.ops
    cands = calls["metrics.score_genome"]
    searches = stats.searches
    invocations = stats.invocations
    m = {}
    for name in ("netgraph.forward", "netgraph.backward_param_grads",
                 "netgraph.reinit", "netgraph.prepare_for_scoring",
                 "netgraph.build_graph"):
        m[name + ".s"] = _ratio(inc[name], ops)
    m["netgraph.forward.calls"] = _ratio(calls["netgraph.forward"], cands)
    m["netgraph.backward_param_grads.calls"] = _ratio(
        calls["netgraph.backward_param_grads"], cands)
    for name in ("netgraph.nodes_dispatched",
                 "netgraph.identity_nodes_dispatched"):
        m[name] = _ratio(counts[name], cands)
    for cls in OP_CLASSES:
        m[f"netgraph.macs.{cls}"] = _ratio(
            sum(costs[g][0][cls] for g in stats.scored), len(stats.scored))
    for cls in OP_CLASSES:
        m[f"netgraph.bytes_computed.{cls}"] = _ratio(
            sum(costs[g][1][cls] for g in stats.scored), len(stats.scored))
    m["metrics.entropic_score.s"] = _ratio(inc["metrics.entropic_score"], ops)
    m["metrics.logsynflow.s"] = _ratio(inc["metrics.logsynflow"], ops)
    m["metrics.entropy.s"] = _ratio(inc["metrics.normalize_activations"]
                                    + inc["metrics.layer_entropy"], ops)
    m["metrics.score_genome.self_s"] = _ratio(own["metrics.score_genome"], ops)
    m["archspace.count_params.calls"] = _ratio(
        calls["archspace.count_params"], ops)
    for name in ("archspace.count_params", "archspace.mutate",
                 "archspace.crossover", "archspace.random_genome"):
        m[name + ".s"] = _ratio(inc[name], ops)
    lookups = counts["evolve.cache_lookups"]
    search_scorings = cands if searches else 0
    m["evolve.steps"] = _ratio(stats.search_steps, searches)
    m["evolve.unique_scorings"] = _ratio(search_scorings, searches)
    m["evolve.cache_lookups"] = _ratio(lookups, searches)
    m["evolve.cache_hit_ratio"] = _ratio(lookups - search_scorings, lookups)
    m["evolve.steps_skipped"] = _ratio(stats.steps_skipped, searches)
    m["evolve.feasible_checks"] = _ratio(counts["evolve.feasible_checks"],
                                         searches)
    m["evolve.feasible_ratio"] = _ratio(counts["evolve.feasible_true"],
                                        counts["evolve.feasible_checks"])
    m["evolve.self_s"] = _ratio(own["evolve.cyclic_search"], ops)
    for name in ("bench.load_benchmark_csv", "bench.correlate_benchmark",
                 "bench.kendall_tau"):
        m[name + ".s"] = _ratio(inc[name], ops)
    m["bench.rows_scored"] = _ratio(stats.rows_scored, invocations)
    m["bench.skipped_rows"] = _ratio(stats.skipped_rows, invocations)
    m["cli.correlate.self_s"] = _ratio(own["cli.correlate"], ops)
    for key, value in throughput.items():
        m[f"trace.{key}"] = value
    return m
