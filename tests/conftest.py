import itertools
import math
import os

import numpy as np
import pytest

from esnas import archspace, metrics, netgraph


def conv1x1_graph(weights, bias=None):
    """A linear layer as the engine runs it: one 1x1 conv over an
    ``(in, 1, 1)`` input, with ``weights`` (out, in) and an optional bias."""
    w = np.array(weights, dtype=float)
    b = netgraph._Builder((w.shape[1], 1, 1))
    nid = b.conv(netgraph.INPUT, w.shape[1], w.shape[0], 1,
                 bias=bias is not None)
    b.nodes[nid].params = [w.reshape(w.shape + (1, 1))] + (
        [] if bias is None else [np.array(bias, dtype=float)])
    return netgraph.Graph(b.nodes, b.input_shape, nid, [], b.shapes)


def signed_graph(genome, config, seed):
    """A genome's layout with seeded signed weights: each conv, in node
    order, draws its weight and then its bias from U(-1/fan_in, 1/fan_in).
    The engine draws only their absolute values (``netgraph.reinit``);
    signed weights put ReLU inputs on both sides of zero, as a check of the
    ReLU backward needs."""
    graph = netgraph.build_structure(genome, config)
    rng = np.random.default_rng(seed)
    for node in graph.nodes:
        if node.kind == "conv2d":
            bound = 1.0 / node.attrs["fan_in"]
            node.params = [rng.uniform(-bound, bound, p.shape)
                           for p in node.params]
    return graph


def genome_norm_params(genome, config):
    """Scale and shift parameters of a genome's norms, from its genes: an
    IBN FFN normalises its hidden width twice and its output once, a
    ConvNeXt FFN its input once, and attention has no norm."""
    total, cin = 0, config.stem_channels
    for _, _, gene in genome.blocks():
        if gene.ffn_type == "ibn":
            total += 2 * (2 * gene.expansion_ratio * cin + gene.out_channels)
        else:
            total += 2 * cin
        cin = gene.out_channels
    return total


@pytest.fixture
def tiny_config():
    """Two conv blocks at 16px, no attention; cheap enough for heavy loops."""
    return archspace.SearchSpaceConfig(
        num_stages=1,
        blocks_per_stage=[2],
        attention_stages=set(),
        stem_channels=8,
        channel_domain=[[8, 16]],
        kernel_domain=[3, 5],
        expansion_domain=[2],
        heads_domain=[2],
        head_dim_domain=[8],
        input_resolution=16,
        input_channels=3,
        max_params=10_000_000,
    ).validate()


@pytest.fixture
def attn_config():
    """Two stages with attention permitted in the second one."""
    return archspace.SearchSpaceConfig(
        num_stages=2,
        blocks_per_stage=[1, 2],
        attention_stages={2},
        stem_channels=8,
        channel_domain=[[8, 16], [16, 24]],
        kernel_domain=[3, 5],
        expansion_domain=[2, 3],
        heads_domain=[2, 4],
        head_dim_domain=[4, 8],
        input_resolution=16,
        input_channels=3,
        max_params=10_000_000,
    ).validate()


@pytest.fixture
def singleton_config():
    """One-point search space: every domain is a singleton."""
    return archspace.SearchSpaceConfig(
        num_stages=1,
        blocks_per_stage=[1],
        attention_stages=set(),
        stem_channels=8,
        channel_domain=[[8]],
        kernel_domain=[3],
        expansion_domain=[2],
        heads_domain=[2],
        head_dim_domain=[8],
        ffn_types=["ibn"],
        input_resolution=16,
        input_channels=3,
        max_params=10_000_000,
    ).validate()


def enumerate_space(config):
    """Exhaustively enumerate every valid genome of a small space."""
    per_block = []
    for si in range(config.num_stages):
        genes = [archspace.FfnGene(ft, ch, k, e)
                 for ft in config.ffn_types
                 for ch in config.channel_domain[si]
                 for k in config.kernel_domain
                 for e in config.expansion_domain]
        if si + 1 in config.attention_stages:
            genes += [archspace.AttnGene(ft, ch, e, h, d)
                      for ft in config.ffn_types
                      for ch in config.channel_domain[si]
                      for e in config.expansion_domain
                      for h in config.heads_domain
                      for d in config.head_dim_domain]
        per_block += [genes] * config.blocks_per_stage[si]
    cref = config.ref()
    genomes = []
    for combo in itertools.product(*per_block):
        stages, it = [], iter(combo)
        for si in range(config.num_stages):
            stages.append([next(it) for _ in range(config.blocks_per_stage[si])])
        g = archspace.ArchGenome(stages=stages, config_ref=cref)
        if not archspace.validate(g, config):
            genomes.append(g)
    return genomes


@pytest.fixture
def helper_thread(monkeypatch, tmp_path):
    """``helper_thread(on)`` makes ``score_genome`` run its log-SynFlow pass
    in the helper process (True) or on the calling thread (False), whatever
    the candidate's size and the CPU count.  It returns a function that
    lists, for each log-SynFlow pass from then on, whether it ran outside
    the test's process, i.e. in the helper.

    The helper runs the code it was forked with, so each call stops it: the
    next helper is forked after the test's patches so far.  It is stopped
    again when the test ends."""
    passes = tmp_path / "logsynflow-passes"
    logsynflow = metrics.logsynflow
    test_pid = os.getpid()

    def recording(graph):
        with open(passes, "a") as fh:
            fh.write("1" if os.getpid() != test_pid else "0")
        return logsynflow(graph)

    def in_helper():
        return [c == "1" for c in passes.read_text()] if passes.exists() else []

    def force(on):
        metrics._stop_helper()
        monkeypatch.setattr(metrics, "HELPER_MIN_MACS", 0 if on else math.inf)
        passes.unlink(missing_ok=True)
        return in_helper

    monkeypatch.setattr(metrics, "logsynflow", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield force
    metrics._stop_helper()
