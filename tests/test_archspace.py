import hashlib
import json
import math
import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from esnas import archspace, netgraph
from esnas.archspace import (
    PHASE_SIZE,
    PHASE_TOPOLOGY,
    ArchGenome,
    ConfigError,
    FfnGene,
    SearchSpaceConfig,
    crossover,
    mutate,
    random_genome,
    repair_channels,
    validate,
)

from conftest import conv1x1_graph, enumerate_space, genome_norm_params


def count_macs(genome, config):
    return netgraph.count_graph_macs(netgraph.build_structure(genome, config))


def size_fields_multiset(genome):
    out = []
    for _, _, g in genome.blocks():
        out.append(("out_channels", g.out_channels))
        out.append(("expansion_ratio", g.expansion_ratio))
        if hasattr(g, "head_dim"):
            out.append(("head_dim", g.head_dim))
    return sorted(out)


def topology_fields(genome):
    out = []
    for si, bi, g in genome.blocks():
        out.append((si, bi, "ffn_type", g.ffn_type))
        if hasattr(g, "kernel_size"):
            out.append((si, bi, "kernel_size", g.kernel_size))
        else:
            out.append((si, bi, "num_heads", g.num_heads))
    return out


class TestConfig:
    def test_defaults_valid(self):
        SearchSpaceConfig().validate()

    def test_bad_kernel_domain(self):
        with pytest.raises(ConfigError, match="odd"):
            SearchSpaceConfig(kernel_domain=[3, 4]).validate()

    def test_non_increasing_domain(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            SearchSpaceConfig(expansion_domain=[4, 2]).validate()

    def test_blocks_per_stage_mismatch(self):
        with pytest.raises(ConfigError, match="blocks_per_stage"):
            SearchSpaceConfig(blocks_per_stage=[2, 2]).validate()

    def test_roundtrip(self):
        cfg = SearchSpaceConfig()
        again = SearchSpaceConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.ref() == cfg.ref()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="'input_resolutoin'"):
            SearchSpaceConfig.from_dict({"input_resolutoin": 32})

    @pytest.mark.parametrize("key, dom, problem", [
        ("kernel_domain", [3.0, 5.0, 7.0], "kernel_domain must hold integers"),
        ("expansion_domain", [True, 2], "expansion_domain must hold integers"),
        ("heads_domain", [2, 4.0], "heads_domain must hold integers"),
        ("head_dim_domain", [8.0], "head_dim_domain must hold integers"),
        ("channel_domain", [[16, 24, 32], [32, 48.0, 64], [64, 96, 128],
                            [128, 176, 224]], "channel_domain[1] must hold integers"),
        # zero sizes and head counts failed inside graph construction
        ("expansion_domain", [0, 2], "expansion_domain must hold values >= 1"),
        ("heads_domain", [0], "heads_domain must hold values >= 1"),
        ("head_dim_domain", [-8, 8], "head_dim_domain must hold values >= 1"),
        ("channel_domain", [[-8, 16], [32], [64], [128]],
         "channel_domain[0] must hold values >= 1"),
    ])
    def test_domains_hold_positive_integers(self, key, dom, problem):
        with pytest.raises(ConfigError, match=re.escape(problem)):
            SearchSpaceConfig(**{key: dom}).validate()

    @pytest.mark.parametrize("chans", [[[64], [8]], [[8, 16, 24, 32], [16]]])
    def test_channel_ranges_must_not_fall(self, chans):
        # sort-repair would move a channel out of its stage's menu
        with pytest.raises(ConfigError, match="must not fall"):
            SearchSpaceConfig(num_stages=2, blocks_per_stage=[1, 1],
                              attention_stages=set(), channel_domain=chans).validate()

    def test_fewer_channel_lists_than_stages(self):
        with pytest.raises(ConfigError, match="channel_domain has 2 stage lists"):
            SearchSpaceConfig(num_stages=3, blocks_per_stage=[1, 1, 1],
                              attention_stages=set(), channel_domain=[[8], [16]]).validate()


class TestRandomGenome:
    def test_singleton_space_unique(self, singleton_config):
        genomes = {random_genome(singleton_config, s).to_json() for s in range(20)}
        assert len(genomes) == 1

    def test_deterministic(self):
        cfg = SearchSpaceConfig().validate()
        a = random_genome(cfg, 7)
        b = random_genome(cfg, 7)
        assert a.to_json() == b.to_json()

    def test_closure_1000_random(self):
        cfg = SearchSpaceConfig().validate()
        for s in range(1000):
            g = random_genome(cfg, s)
            assert validate(g, cfg) == []


class TestValidate:
    def test_monotone_ok(self, tiny_config):
        g = ArchGenome(stages=[[FfnGene("ibn", 8, 3, 2), FfnGene("ibn", 16, 3, 2)]],
                       config_ref=tiny_config.ref())
        assert validate(g, tiny_config) == []

    def test_decreasing_channels(self, tiny_config):
        g = ArchGenome(stages=[[FfnGene("ibn", 16, 3, 2), FfnGene("ibn", 8, 3, 2)]])
        msgs = validate(g, tiny_config)
        assert any("decreasing channels at block 2" in m for m in msgs)

    def test_kernel_not_in_domain(self, tiny_config):
        g = ArchGenome(stages=[[FfnGene("ibn", 8, 7, 2), FfnGene("ibn", 8, 3, 2)]])
        msgs = validate(g, tiny_config)
        assert any("kernel 7" in m for m in msgs)

    def test_attention_outside_allowed_stage(self, tiny_config):
        g = ArchGenome(stages=[[archspace.AttnGene("ibn", 8, 2, 2, 8),
                                FfnGene("ibn", 8, 3, 2)]])
        msgs = validate(g, tiny_config)
        assert any("attention block outside" in m for m in msgs)


class TestMutate:
    def test_size_phase_touches_only_size_fields(self, attn_config):
        for s in range(200):
            g = random_genome(attn_config, s)
            m = mutate(g, attn_config, PHASE_SIZE, 1, seed=1000 + s)
            assert topology_fields(m) == topology_fields(g)
            assert validate(m, attn_config) == []

    def test_topology_phase_preserves_size_multiset(self, attn_config):
        for s in range(200):
            g = random_genome(attn_config, s)
            m = mutate(g, attn_config, PHASE_TOPOLOGY, 1, seed=1000 + s)
            assert size_fields_multiset(m) == size_fields_multiset(g)
            assert validate(m, attn_config) == []

    def test_uniform_resampling(self):
        # One block whose only varying topology field is the kernel; the other
        # topology slot (ffn_type) has a singleton domain.  With n=1 the final
        # kernel distribution is p(start) = 1/2 + 1/6, p(other) = 1/6 each.
        cfg = SearchSpaceConfig(
            num_stages=1, blocks_per_stage=[1], attention_stages=set(),
            stem_channels=8, channel_domain=[[8]], kernel_domain=[3, 5, 7],
            expansion_domain=[2], ffn_types=["ibn"], input_resolution=16,
        ).validate()
        g = ArchGenome(stages=[[FfnGene("ibn", 8, 3, 2)]], config_ref=cfg.ref())
        n = 10_000
        counts = {3: 0, 5: 0, 7: 0}
        for s in range(n):
            m = mutate(g, cfg, PHASE_TOPOLOGY, 1, seed=s)
            counts[m.stages[0][0].kernel_size] += 1
        expect = {3: n * (1 / 2 + 1 / 6), 5: n / 6, 7: n / 6}
        for k, p in [(3, 2 / 3), (5, 1 / 6), (7, 1 / 6)]:
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[k] - expect[k]) < 3 * sigma, (k, counts)


class TestCrossover:
    def test_identical_parents(self, attn_config):
        for s in range(20):
            g = random_genome(attn_config, s)
            assert crossover(g, g, attn_config, seed=s).to_json() == g.to_json()

    def test_child_fields_come_from_parents(self, tiny_config):
        a = ArchGenome(stages=[[FfnGene("ibn", 8, 3, 2), FfnGene("ibn", 8, 3, 2)]],
                       config_ref=tiny_config.ref())
        b = ArchGenome(stages=[[FfnGene("convnext", 16, 5, 2),
                                FfnGene("convnext", 16, 5, 2)]],
                       config_ref=tiny_config.ref())
        for s in range(100):
            child = crossover(a, b, tiny_config, seed=s)
            for _, _, g in child.blocks():
                assert g.ffn_type in ("ibn", "convnext")
                assert g.out_channels in (8, 16)
                assert g.kernel_size in (3, 5)
            assert validate(child, tiny_config) == []

    def test_parent_origin_is_balanced(self):
        cfg = SearchSpaceConfig(
            num_stages=1, blocks_per_stage=[1], attention_stages=set(),
            stem_channels=8, channel_domain=[[8]], kernel_domain=[3, 5],
            expansion_domain=[2], input_resolution=16).validate()
        a = ArchGenome(stages=[[FfnGene("ibn", 8, 3, 2)]], config_ref=cfg.ref())
        b = ArchGenome(stages=[[FfnGene("ibn", 8, 5, 2)]], config_ref=cfg.ref())
        n = 10_000
        from_a = sum(crossover(a, b, cfg, seed=s).stages[0][0].kernel_size == 3
                     for s in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(from_a - n / 2) < 3 * sigma


TOPOLOGY_FIELDS = {"ffn_type", "kernel_size", "num_heads"}


def fields_of_role(genome, phase):
    """(stage, block, kind, field, value) of every field in the given role."""
    return [(si, bi, g.kind, f, v) for si, bi, g in genome.blocks()
            for f, v in vars(g).items() if (f in TOPOLOGY_FIELDS) == (phase == PHASE_TOPOLOGY)]


def sorted_subset(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=3,
                    unique=True).map(sorted)


@st.composite
def small_configs(draw):
    """Small random spaces; channel menus are any sorted subsets of one grid,
    kept only when SearchSpaceConfig.validate accepts them."""
    n = draw(st.integers(1, 3))
    try:
        cfg = SearchSpaceConfig(
            num_stages=n,
            blocks_per_stage=draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
            attention_stages=draw(st.sets(st.integers(1, n))),
            stem_channels=8,
            channel_domain=draw(st.lists(sorted_subset([8, 16, 24, 32, 48, 64]),
                                         min_size=n, max_size=n)),
            kernel_domain=draw(sorted_subset([3, 5, 7])),
            expansion_domain=draw(sorted_subset([1, 2, 3, 4])),
            heads_domain=draw(sorted_subset([1, 2, 4])),
            head_dim_domain=draw(sorted_subset([4, 8, 16])),
            ffn_types=draw(st.lists(st.sampled_from(["ibn", "convnext"]),
                                    min_size=1, max_size=2, unique=True)),
            attention_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
            input_resolution=16,
        ).validate()
    except ConfigError:
        assume(False)
    return cfg


class TestOperatorProperties:
    @settings(derandomize=True, deadline=None)
    @given(cfg=small_configs(), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 4))
    def test_operators_stay_in_space(self, cfg, seed, n):
        g = random_genome(cfg, seed)
        other = random_genome(cfg, seed + 1)
        assert validate(g, cfg) == []
        assert validate(crossover(g, other, cfg, seed), cfg) == []
        for phase in (PHASE_TOPOLOGY, PHASE_SIZE):
            m = mutate(g, cfg, phase, n, seed)
            assert validate(m, cfg) == []
            kept = PHASE_SIZE if phase == PHASE_TOPOLOGY else PHASE_TOPOLOGY
            assert fields_of_role(m, kept) == fields_of_role(g, kept)

    @settings(derandomize=True, deadline=None)
    @given(cfg=small_configs(), seed=st.integers(0, 2**32 - 1))
    def test_json_round_trips(self, cfg, seed):
        """Configs and the genomes the operators make survive a trip through
        JSON text unchanged."""
        again = SearchSpaceConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg and again.ref() == cfg.ref()
        g = random_genome(cfg, seed)
        for out in (g, crossover(g, random_genome(cfg, seed + 1), cfg, seed),
                    mutate(g, cfg, PHASE_TOPOLOGY, 2, seed),
                    mutate(g, cfg, PHASE_SIZE, 2, seed)):
            assert ArchGenome.from_json(out.to_json()) == out

    def test_operator_outputs_pinned(self):
        # sha256 of the operators' JSON over fixed seeds: any change in draw
        # order moves every search trajectory and every scoring seed
        cfg = SearchSpaceConfig(input_resolution=32).validate()
        h = hashlib.sha256()
        for s in range(200):
            g = random_genome(cfg, s)
            for out in (g, mutate(g, cfg, PHASE_TOPOLOGY, 2, seed=s),
                        mutate(g, cfg, PHASE_SIZE, 2, seed=s),
                        crossover(g, random_genome(cfg, s + 200), cfg, seed=s)):
                h.update(out.to_json().encode() + b"\n")
        assert h.hexdigest() == \
            "f5ae384d1536be30ae8f63ef739d17f2ccf6030a8fa5cffffc8d177838544d67"


class TestRepair:
    def test_preserves_multiset_and_sorts(self, tiny_config):
        g = ArchGenome(stages=[[FfnGene("ibn", 16, 3, 2), FfnGene("ibn", 8, 3, 2)]],
                       config_ref=tiny_config.ref())
        r = repair_channels(g)
        chans = [x.out_channels for _, _, x in r.blocks()]
        assert chans == [8, 16]

    def test_idempotent_on_monotone(self):
        cfg = SearchSpaceConfig().validate()
        for s in range(50):
            g = random_genome(cfg, s)
            assert repair_channels(g).to_json() == g.to_json()


class TestCounting:
    def test_standalone_linear(self):
        g = conv1x1_graph(np.zeros((3, 4)), bias=np.zeros(3))
        assert netgraph.count_graph_params(g) == 15

    def test_ibn_block_conv_params(self):
        # One IBN block, C_in = C_out = 16, expansion 4, kernel 3.
        # Expected non-normalization parameter count, by enumerating the block
        # tensors: expand 16*64+64, depthwise 64*9+64, project 64*16+16 = 2768.
        cfg = SearchSpaceConfig(
            num_stages=1, blocks_per_stage=[1], attention_stages=set(),
            stem_channels=16, channel_domain=[[16]], kernel_domain=[3],
            expansion_domain=[4], ffn_types=["ibn"], input_resolution=16,
        ).validate()
        g = random_genome(cfg, 0)
        graph = netgraph.build_graph(g, cfg, seed=0)
        block_nodes = graph.nodes[2:]  # first two nodes are the fixed stem
        conv_params = sum(p.size for n in block_nodes if n.kind == "conv2d"
                          for p in n.params)
        assert conv_params == 2768
        # scale and shift of the norms after expand, depthwise and project
        norm_params = 2 * (64 + 64 + 16)
        assert norm_params == 288
        stem_params = sum(p.size for n in graph.nodes[:2] for p in n.params)
        assert archspace.count_params(g, cfg) == conv_params + norm_params + stem_params

    def test_count_params_matches_graph_enumeration(self, attn_config):
        for s in range(10):
            g = random_genome(attn_config, s)
            graph = netgraph.build_graph(g, attn_config, seed=s)
            enumerated = sum(np.prod(p.shape) for node in graph.nodes
                             for p in node.params)
            enumerated += genome_norm_params(g, attn_config)
            assert archspace.count_params(g, attn_config) == enumerated

    def test_count_params_draws_nothing(self, attn_config, monkeypatch):
        genomes = [random_genome(attn_config, s) for s in range(10)]
        enumerated = [netgraph.count_graph_params(
            netgraph.build_graph(g, attn_config, seed=0)) for g in genomes]
        macs = [count_macs(g, attn_config) for g in genomes]

        def no_draws(*args, **kwargs):
            raise AssertionError("counting drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(netgraph, "reinit", no_draws)
        assert [archspace.count_params(g, attn_config)
                for g in genomes] == enumerated
        assert [count_macs(g, attn_config) for g in genomes] == macs

    def test_macs_pointwise_conv(self):
        b = netgraph._Builder((8, 4, 4))
        b.conv(netgraph.INPUT, 8, 16, 1, bias=False)
        g = netgraph.Graph(b.nodes, b.input_shape, 0, [], b.shapes)
        assert netgraph.count_graph_macs(g) == 8 * 16 * 16

    def test_macs_depthwise_conv(self):
        b = netgraph._Builder((8, 4, 4))
        b.conv(netgraph.INPUT, 8, 8, 3, groups=8, bias=False)
        g = netgraph.Graph(b.nodes, b.input_shape, 0, [], b.shapes)
        assert netgraph.count_graph_macs(g) == 9 * 8 * 16

    def test_macs_match_per_node_walk(self, attn_config):
        for s in range(5):
            g = random_genome(attn_config, s)
            graph = netgraph.build_graph(g, attn_config, seed=0)
            total = 0
            for node, shape in zip(graph.nodes, graph.out_shapes):
                if node.kind == "conv2d":
                    a = node.attrs
                    total += (a["kernel"] ** 2 * a["in_ch"] // a["groups"]
                              * a["out_ch"] * shape[1] * shape[2])
                elif node.kind == "matmul":
                    src = node.inputs[0]
                    a_shape = graph.out_shapes[src]
                    inner = a_shape[-2] if node.attrs["transpose_a"] else a_shape[-1]
                    total += int(np.prod(shape[:-2])) * shape[-2] * shape[-1] * inner
            assert count_macs(g, attn_config) == total

    def test_counts_seed_independent(self, attn_config):
        g = random_genome(attn_config, 3)
        assert archspace.count_params(g, attn_config) == archspace.count_params(g, attn_config)
        g1 = netgraph.build_graph(g, attn_config, seed=1)
        g2 = netgraph.build_graph(g, attn_config, seed=2)
        assert len(g1.nodes) == len(g2.nodes)
        assert g1.activation_taps == g2.activation_taps

    def test_least_params_is_the_least_over_the_space(self, tiny_config,
                                                      attn_config, singleton_config):
        # the last space's least genome has attention blocks: their FFN's
        # 3x3 kernel undercuts a conv block's least kernel of 5
        small_attn = replace(attn_config, num_stages=1, blocks_per_stage=[2],
                             attention_stages={1}, channel_domain=[[8, 16]],
                             kernel_domain=[5, 7], expansion_domain=[2],
                             heads_domain=[1, 2], head_dim_domain=[1, 2]).validate()
        for cfg, least in ((tiny_config, 1160), (singleton_config, 928),
                           (small_attn, 1246)):
            counts = {g.to_json(): archspace.count_params(g, cfg)
                      for g in enumerate_space(cfg)}
            assert archspace.least_params(cfg) == min(counts.values()) == least
        assert any('"type":"attn"' in g and n == 1246 for g, n in counts.items())


class TestSerialization:
    def test_roundtrip(self, attn_config):
        for s in range(20):
            g = random_genome(attn_config, s)
            again = ArchGenome.from_json(g.to_json())
            assert again.to_json() == g.to_json()

    def test_config_ref_pinned(self):
        # key order and values feed ref(), genome JSON and scoring seeds
        assert SearchSpaceConfig().ref() == "e2c51d884e7f"
        assert SearchSpaceConfig(input_resolution=32).ref() == "451fc25dc3c0"

    def test_stored_genomes_reserialise_byte_for_byte(self):
        refs = Path(__file__).resolve().parents[1] / "perfbench" / "refs"
        stored = []
        for name, items, key in (("score_224", "candidates", "genome"),
                                 ("correlate_pool", "rows", "genome"),
                                 ("search_s0_32px", "searches", "best_genome")):
            data = json.loads((refs / f"{name}.json").read_text())
            stored.extend(item[key] for item in data[items])
        assert len(stored) == 48 + 96 + 24
        for text in stored:
            assert ArchGenome.from_json(text).to_json() == text

    def test_unknown_gene_type_rejected(self):
        d = {"stages": [[{"type": "conv", "ffn_type": "ibn"}]]}
        with pytest.raises(ValueError, match="unknown gene type 'conv'"):
            ArchGenome.from_dict(d)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(stagess=[]), r"unknown genome key\(s\) 'stagess'"),
        (lambda d: d["stages"][0][0].update(kernal_size=7),
         r"unknown ffn gene key\(s\) 'kernal_size'"),
        (lambda d: d.update(schema_version=7), "schema_version 7 is not 1$"),
        (lambda d: d.update(schema_version=True), "schema_version True is not 1$")],
        ids=["genome key", "gene key", "version", "boolean version"])
    def test_undefined_key_or_version_rejected(self, tiny_config, edit,
                                               message):
        # a misspelt key would otherwise be dropped without a word
        d = random_genome(tiny_config, 0).to_dict()
        edit(d)
        with pytest.raises(ValueError, match=message):
            ArchGenome.from_dict(d)

    def test_missing_schema_version_loads(self, tiny_config):
        g = random_genome(tiny_config, 0)
        d = g.to_dict()
        del d["schema_version"]
        assert ArchGenome.from_dict(d) == g

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            ArchGenome.from_dict([])

    def test_schema_fields(self, tiny_config):
        d = random_genome(tiny_config, 0).to_dict()
        assert d["schema_version"] == 1
        assert list(d) == ["schema_version", "config_ref", "stages"]
        gene = d["stages"][0][0]
        assert gene["type"] == "ffn"
        assert all(isinstance(v, (int, str)) for v in gene.values())

    def test_invalid_genome_error_pickles(self):
        err = archspace.InvalidGenomeError(["a bad", "b bad"])
        again = pickle.loads(pickle.dumps(err))
        assert again.violations == ["a bad", "b bad"]
        assert str(again) == str(err) == "a bad; b bad"
