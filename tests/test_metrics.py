import copy
import ctypes
import gc
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from esnas import metrics, netgraph
from esnas.archspace import (
    ArchGenome,
    AttnGene,
    FfnGene,
    InvalidGenomeError,
    SearchSpaceConfig,
    random_genome,
)
from esnas.metrics import (
    PROXIES,
    EntropicConfig,
    ScoreReport,
    derive_seeds,
    entropic_score,
    layer_entropy,
    logsynflow,
    normalize_activations,
    score_genome,
)
from esnas.netgraph import INPUT, Graph, _Builder, forward

from conftest import conv1x1_graph

rng = np.random.default_rng(777)

# An input range wide enough that attention products overflow float64.
OVERFLOWING_INPUT = EntropicConfig(input_low=-1e300, input_high=1e300)


def entropy_reference(tap, epsilon, norm_axis="across_channels"):
    """Element-by-element reimplementation of the per-layer entropy term."""
    tap = np.asarray(tap, dtype=float)
    flatpos = tap.reshape(tap.shape[0], -1) if tap.ndim > 1 else tap[:, None]
    c, k = flatpos.shape
    total = 0.0
    count = 0
    for j in range(k):
        col = flatpos[:, j]
        for i in range(c):
            if norm_axis == "across_channels":
                m = max(col)
            else:
                m = max(flatpos[i])
            a = flatpos[i, j] / m if m > 0 else 0.0
            total += -a * math.log(a + epsilon)
            count += 1
    return max(total / count, 0.0)


class TestNormalize:
    def test_constant_positive_becomes_ones(self):
        cfg = EntropicConfig()
        out = normalize_activations(np.full((4, 3, 3), 2.5), cfg)
        assert np.array_equal(out, np.ones((4, 3, 3)))

    def test_all_zero_stays_zero(self):
        cfg = EntropicConfig()
        out = normalize_activations(np.zeros((4, 3, 3)), cfg)
        assert np.array_equal(out, np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("axis", ["across_channels", "per_channel"])
    def test_group_maximum_is_one(self, axis):
        cfg = EntropicConfig(norm_axis=axis)
        tap = np.abs(rng.normal(0, 1, (5, 4, 4)))
        out = normalize_activations(tap, cfg)
        assert out.min() >= 0 and out.max() <= 1
        if axis == "across_channels":
            assert np.allclose(out.max(axis=0), 1.0)
        else:
            assert np.allclose(out.max(axis=(1, 2)), 1.0)

    def test_partially_dead_groups(self):
        cfg = EntropicConfig()
        tap = np.abs(rng.normal(0, 1, (3, 2, 2)))
        tap[:, 0, 0] = 0.0
        out = normalize_activations(tap, cfg)
        assert np.array_equal(out[:, 0, 0], np.zeros(3))
        assert np.allclose(out[:, 0, 1].max(), 1.0)

    def test_1d_tap(self):
        cfg = EntropicConfig()
        out = normalize_activations(np.array([1.0, 2.0, 4.0]), cfg)
        assert np.allclose(out, [0.25, 0.5, 1.0])


class TestLayerEntropy:
    def test_all_ones_is_clamped_to_zero(self):
        assert layer_entropy(np.ones((8, 8)), 1e-8) == 0.0

    def test_analytic_two_element(self):
        val = layer_entropy(np.array([1.0, 1.0 / math.e]), 1e-15)
        assert abs(val - 1.0 / (2.0 * math.e)) < 1e-12

    def test_matches_brute_force_sum(self):
        a = rng.uniform(0, 1, 64)
        eps = 1e-8
        ref = sum(-x * math.log(x + eps) for x in a) / 64
        assert abs(layer_entropy(a, eps) - max(ref, 0.0)) < 1e-12

    def test_upper_bound(self):
        for _ in range(20):
            a = rng.uniform(0, 1, 100)
            assert layer_entropy(a, 1e-8) <= 1.0 / math.e + 1e-6


def pinned_taps(axis):
    """Non-negative (4, 3, 3) taps: every group live, one group zero, one
    group holding a NaN; a group is a position across channels, or a
    channel."""
    live = np.abs(np.random.default_rng(31).normal(0, 1, (4, 3, 3)))
    zero, nan = live.copy(), live.copy()
    zero[(slice(None), 1, 2) if axis == "across_channels" else 2] = 0.0
    nan[(1, 1, 2) if axis == "across_channels" else (2, 0, 1)] = np.nan
    return {"live": live, "zero group": zero, "nan group": nan}


class TestEntropyPinnedFormulas:
    """normalize_activations and layer_entropy equal, bit for bit, the
    formulas they were first written as."""

    @pytest.mark.parametrize("axis", ["across_channels", "per_channel"])
    def test_bit_for_bit(self, axis):
        cfg = EntropicConfig(norm_axis=axis)
        for name, tap in pinned_taps(axis).items():
            m = (tap.max(axis=0, keepdims=True) if axis == "across_channels"
                 else tap.max(axis=(1, 2), keepdims=True))
            ref = np.divide(tap, m, out=np.zeros_like(tap), where=m > 0)
            out = normalize_activations(tap, cfg)
            assert out.tobytes() == ref.tobytes(), name
            assert np.isfinite(out).all(), name
            for a in (ref, tap / np.nanmax(tap)):
                want = max(float(np.mean(-a * np.log(a + cfg.epsilon))), 0.0)
                got = layer_entropy(a, cfg.epsilon)
                assert np.float64(got).tobytes() == np.float64(want).tobytes() \
                    or (math.isnan(got) and math.isnan(want)), name


class TestEntropicScore:
    def test_single_element_tap_scores_zero(self):
        b = _Builder((1, 1, 1))
        x = b.conv(INPUT, 1, 1, 1)
        x = b.unary("relu", x)
        g = Graph(b.nodes, b.input_shape, x, [1], b.shapes)
        cfg = EntropicConfig()
        score, _ = entropic_score(g, cfg, seeds=[0, 1, 2])
        assert abs(score) < 1e-6

    def test_requires_matching_seed_count(self, tiny_config):
        g = netgraph.build_graph(random_genome(tiny_config, 0), tiny_config, 0)
        with pytest.raises(ValueError, match="seeds"):
            entropic_score(g, EntropicConfig(), seeds=[1, 2])

    def test_deterministic(self, tiny_config):
        g = netgraph.build_graph(random_genome(tiny_config, 0), tiny_config, 0)
        cfg = EntropicConfig()
        assert entropic_score(g, cfg, [5, 6, 7]) == entropic_score(g, cfg, [5, 6, 7])

    def test_bounded_by_tap_count(self, attn_config):
        cfg = EntropicConfig()
        for s in range(10):
            genome = random_genome(attn_config, s)
            g = netgraph.build_graph(genome, attn_config, seed=s)
            n = len(netgraph.prepare_for_scoring(g).activation_taps)
            score, _ = entropic_score(g, cfg, [s, s + 1, s + 2])
            assert 0.0 <= score <= n / math.e + 1e-6

    def test_replay_oracle_and_sum_order(self, tiny_config):
        """Recompute the score from scratch: same seeding discipline, but the
        per-tap entropy is an element-wise loop independent of the library."""
        genome = ArchGenome(
            stages=[[FfnGene("ibn", 8, 3, 2), FfnGene("ibn", 16, 5, 2)]],
            config_ref=tiny_config.ref())
        graph = netgraph.build_graph(genome, tiny_config, seed=3)
        cfg = EntropicConfig()
        seeds = [11, 12, 13]
        score, by_repeat = entropic_score(graph, cfg, seeds)

        per_repeat = []
        for seed in seeds:
            wseed, xseed = np.random.SeedSequence(seed).spawn(2)
            g = netgraph.prepare_for_scoring(netgraph.reinit(graph, wseed))
            x = np.random.default_rng(xseed).uniform(-0.5, 0.5, graph.input_shape)
            _, taps = forward(g, x)
            terms = [entropy_reference(t, cfg.epsilon) for t in taps]
            random.Random(seed).shuffle(terms)  # order must not matter
            per_repeat.append(math.fsum(terms))
        assert np.allclose(by_repeat, per_repeat, rtol=0, atol=1e-9)
        assert abs(score - sum(per_repeat) / len(per_repeat)) < 1e-9

    def test_repeat_holds_no_redrawn_graph(self):
        """Each repeat draws a conv's weights as its forward reaches the conv
        and drops them after it: no repeat holds a whole redraw.  A redraw
        of these structures is 8.5-13.7 MiB; a repeat that built one peaked
        above it, and one that draws lazily peaks at ~1 MiB."""
        space = SearchSpaceConfig(input_resolution=32).validate()
        for s in range(3):
            prepared = netgraph.prepare_for_scoring(
                netgraph.build_structure(random_genome(space, s), space))
            redraw_bytes = 8 * sum(p.size for _, _, p in prepared.iter_params())
            tracemalloc.start()
            try:
                entropic_score(prepared, EntropicConfig(), [s, s + 1, s + 2])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < redraw_bytes / 4, (s, peak, redraw_bytes)

    def test_proxies_neither_prepare_nor_copy_the_graph(self, attn_config,
                                                        monkeypatch):
        """Both proxies run the graph they are given: scoring hands them a
        layout and a redraw, whose weights are absolute already."""
        structure = netgraph.build_structure(random_genome(attn_config, 0),
                                             attn_config)
        redraw = netgraph.reinit(structure, 4)
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counting(*args):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(owner, name, counting)

        count(netgraph, "prepare_for_scoring")
        count(netgraph, "reinit")
        entropic_score(structure, EntropicConfig(), [1, 2, 3])
        logsynflow(redraw)
        assert calls == []

    def test_scale_invariance_of_tap_entropy(self):
        """Multiplying one layer's weights rescales its taps but leaves the
        normalised activations, and hence the summed entropy, unchanged."""
        cfg = EntropicConfig()
        for seed in range(5):
            r = np.random.default_rng(seed)
            b = _Builder((3, 4, 4))
            x = b.conv(INPUT, 3, 6, 3, bias=False)
            x = b.unary("relu", x)
            x = b.conv(x, 6, 4, 1, bias=False)
            x = b.unary("relu", x)
            g = Graph(b.nodes, b.input_shape, x, [1, 3], b.shapes)
            for node in g.nodes:
                node.params = [r.uniform(0, 1, p.shape) for p in node.params]
            g = netgraph.prepare_for_scoring(g)
            xin = r.uniform(-0.5, 0.5, g.input_shape)

            def summed_entropy(graph):
                _, taps = forward(graph, xin)
                return sum(layer_entropy(normalize_activations(t, cfg),
                                         cfg.epsilon) for t in taps)

            base = summed_entropy(g)
            for c in (0.5, 2.0, 10.0):
                g2 = copy.deepcopy(g)
                g2.nodes[0].params = [p * c for p in g2.nodes[0].params]
                assert abs(summed_entropy(g2) - base) <= 1e-9 * max(abs(base), 1)


class TestLogSynflow:
    def test_single_linear_analytic(self):
        g = netgraph.prepare_for_scoring(conv1x1_graph(np.array([[3.0, -4.0]])))
        assert abs(logsynflow(g) - 7.0 * math.log(2.0)) < 1e-12

    def test_zero_weights_scores_zero(self):
        g = conv1x1_graph(np.zeros((3, 5)))
        assert logsynflow(g) == 0.0

    def test_monotone_in_weight_magnitude(self):
        lo = logsynflow(conv1x1_graph(np.array([[3.0, 4.0]])))
        hi = logsynflow(conv1x1_graph(np.array([[5.0, 4.0]])))
        assert hi > lo

    def test_two_layer_mlp_matches_finite_differences(self):
        r = np.random.default_rng(4)
        b = _Builder((3, 1, 1))
        a1 = b.unary("relu", b.conv(INPUT, 3, 5, 1))
        out = b.conv(a1, 5, 2, 1)
        g = Graph(b.nodes, b.input_shape, out, [a1], b.shapes)
        g.nodes[0].params = [r.normal(0, 1, (5, 3, 1, 1)), r.normal(0, 1, 5)]
        g.nodes[out].params = [r.normal(0, 1, (2, 5, 1, 1)),
                               r.normal(0, 1, 2)]
        prepared = netgraph.prepare_for_scoring(g)
        score = logsynflow(prepared)

        h = 1e-6
        ref = 0.0
        x = np.ones(prepared.input_shape)
        for _, _, p in prepared.iter_params():
            flat = p.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                rp = float(forward(prepared, x)[0].sum())
                flat[i] = orig - h
                rm = float(forward(prepared, x)[0].sum())
                flat[i] = orig
                ref += abs(orig) * math.log1p(abs((rp - rm) / (2 * h)))
        assert abs(score - ref) < 1e-6 * max(abs(ref), 1.0)

    def test_nonnegative_on_random_genomes(self, attn_config):
        for s in range(5):
            g = netgraph.build_graph(random_genome(attn_config, s),
                                     attn_config, seed=s)
            assert logsynflow(g) >= 0.0

    def test_single_forward_pass(self, attn_config, monkeypatch):
        calls = []
        forward_all = netgraph._forward_all

        def counting(graph, x):
            calls.append(graph)
            return forward_all(graph, x)

        monkeypatch.setattr(netgraph, "_forward_all", counting)
        g = netgraph.build_graph(random_genome(attn_config, 0), attn_config,
                                 seed=0)
        logsynflow(g)
        assert len(calls) == 1

    def test_overflowing_output_raises(self):
        # the weight gradients are finite; only the output sum overflows
        g = conv1x1_graph(np.full((1, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="output"):
            logsynflow(g)


# (entropic, logsynflow) of random_genome(default space at 64 px, seed),
# recorded before the depthwise conv kernel was rewritten; a kernel change
# may move them only by float64 summation order.
PINNED_64PX = {
    0: (4.148125989879057, 280.8743169649469),
    1: (5.6045011860450344, 248.1908466583301),
    2: (4.889875069161398, 210.0384043338519),
}


class TestScoreGenome:
    def test_report_mean_invariant(self, tiny_config):
        genome = random_genome(tiny_config, 1)
        rep = score_genome(genome, tiny_config)
        assert rep.entropic == float(np.mean(rep.entropic_per_repeat))
        assert len(rep.entropic_per_repeat) == 3
        assert rep.entropic >= 0 and rep.logsynflow >= 0
        assert rep.params > 0 and rep.macs > 0

    def test_one_layout_and_one_rewrite(self, attn_config, monkeypatch):
        layouts, rewrites = [], []
        build = netgraph.build_structure
        prepare = netgraph.prepare_for_scoring

        def counting_build(genome, config):
            layouts.append(genome)
            return build(genome, config)

        def counting_prepare(graph):
            prepared = prepare(graph)
            if prepared is not graph:
                rewrites.append(graph)
            return prepared

        monkeypatch.setattr(netgraph, "build_structure", counting_build)
        monkeypatch.setattr(netgraph, "prepare_for_scoring", counting_prepare)
        score_genome(random_genome(attn_config, 0), attn_config)
        assert len(layouts) == 1
        assert rewrites == []

    def test_equals_scoring_the_seeded_graph(self, attn_config):
        """The report equals scoring the graph seeded from the last seed with
        each proxy on its own, bit for bit."""
        cfg = EntropicConfig()
        for s in range(4):
            genome = random_genome(attn_config, s)
            rep = score_genome(genome, attn_config, base_seed=s)
            graph = netgraph.build_graph(genome, attn_config, seed=rep.seeds[-1])
            entropic, per_repeat = entropic_score(graph, cfg, rep.seeds[:-1])
            assert rep.entropic == entropic
            assert rep.entropic_per_repeat == per_repeat
            assert rep.logsynflow == logsynflow(graph)
            assert rep.params == netgraph.count_graph_params(graph)
            assert rep.macs == netgraph.count_graph_macs(graph)

    def test_deterministic_in_genome_and_base_seed(self, tiny_config):
        genome = random_genome(tiny_config, 2)
        r1 = score_genome(genome, tiny_config, base_seed=9)
        r2 = score_genome(genome, tiny_config, base_seed=9)
        assert r1.entropic == r2.entropic
        assert r1.logsynflow == r2.logsynflow
        assert r1.seeds == r2.seeds
        r3 = score_genome(genome, tiny_config, base_seed=10)
        assert r3.seeds != r1.seeds

    def test_report_roundtrip(self, tiny_config):
        rep = score_genome(random_genome(tiny_config, 3), tiny_config)
        again = ScoreReport.from_dict(rep.to_dict())
        assert again.to_json() == rep.to_json()
        # reports written before eval_millis was dropped still load
        old = ScoreReport.from_dict({**rep.to_dict(), "eval_millis": 12.5})
        assert old.to_json() == rep.to_json()

    @pytest.mark.parametrize("seed", sorted(PINNED_64PX))
    def test_scores_pinned(self, seed):
        space = SearchSpaceConfig(input_resolution=64).validate()
        rep = score_genome(random_genome(space, seed), space)
        entropic, lsf = PINNED_64PX[seed]
        assert abs(rep.entropic - entropic) <= 1e-12 * entropic
        assert abs(rep.logsynflow - lsf) <= 1e-12 * lsf

    def test_non_finite_repeat_raises_naming_it(self, attn_config):
        """A repeat whose entropy sum is NaN raises rather than entering the
        report; here the second repeat's attention products overflow."""
        genome = random_genome(attn_config, 1)
        seeds = derive_seeds(genome, 0, OVERFLOWING_INPUT.repeats + 1)
        message = rf"^non-finite entropy sum in repeat 1 \(seed {seeds[1]}\)$"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match=message):
            score_genome(genome, attn_config, OVERFLOWING_INPUT)

    def test_derive_seeds_pure(self, tiny_config):
        g = random_genome(tiny_config, 4)
        assert derive_seeds(g, 0, 4) == derive_seeds(g, 0, 4)
        assert derive_seeds(g, 0, 4) != derive_seeds(g, 1, 4)
        other = random_genome(tiny_config, 5)
        assert derive_seeds(g, 0, 4) != derive_seeds(other, 0, 4)


def stored_224_genomes(n):
    """The benchmark's 224 px space, base seed and n cheapest stored
    genomes."""
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "refs" / "score_224.json").read_text())
    cheapest = sorted(ref["candidates"], key=lambda c: c["cost_s"])[:n]
    return (SearchSpaceConfig.from_dict(ref["space"]), ref["base_seed"],
            [ArchGenome.from_json(c["genome"]) for c in cheapest])


def one_proxy_cases():
    """(space, base seed, genome): the pinned 64 px genomes and three stored
    224 px genomes."""
    space64 = SearchSpaceConfig(input_resolution=64).validate()
    space224, base_seed, genomes = stored_224_genomes(3)
    return ([(space64, 0, random_genome(space64, s)) for s in sorted(PINNED_64PX)]
            + [(space224, base_seed, g) for g in genomes])


class TestFreedMemory:
    """Scoring keeps freed memory in the process (glibc's mallopt)."""

    def test_mallopt_takes_both_values(self):
        libc_has_it = hasattr(ctypes.CDLL(None), "mallopt")
        assert netgraph._keep_freed_memory() is libc_has_it

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="libc has no mallopt")
    def test_repeated_scoring_reuses_freed_pages(self):
        # each call frees its ~49 MiB of arrays; handed back to the kernel,
        # they fault in afresh on the next call (~12,500 pages).  Counted in
        # a fresh interpreter: here, a log-SynFlow helper forked by an earlier
        # test shares this heap copy-on-write, so whichever pass first writes
        # a page still shared takes a fault for it, however freed memory is kept
        space, base_seed, (genome,) = stored_224_genomes(1)
        script = (
            "import json, resource, sys\n"
            "from esnas.archspace import ArchGenome, SearchSpaceConfig\n"
            "from esnas.metrics import score_genome\n"
            "space = SearchSpaceConfig.from_dict(json.loads(sys.argv[1]))\n"
            "genome = ArchGenome.from_json(sys.argv[2])\n"
            "def score():\n"
            "    score_genome(genome, space, base_seed=int(sys.argv[3]),\n"
            "                 proxies=('entropic',))\n"
            "def minor_faults():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "score(); score()\n"
            "before = minor_faults()\n"
            "score()\n"
            "print(minor_faults() - before)\n")
        src = str(Path(metrics.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(space.to_dict()),
             genome.to_json(), str(base_seed)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1000


class TestOneProxy:
    """score_genome with one proxy computes that proxy's value of the full
    report and nothing of the other."""

    def test_equals_the_full_report_bit_for_bit(self):
        for space, base_seed, genome in one_proxy_cases():
            full = score_genome(genome, space, base_seed=base_seed).to_dict()
            for proxies, dropped in ((("entropic",), {"logsynflow": None}),
                                     (("logsynflow",), {
                                         "entropic": None,
                                         "entropic_per_repeat": None})):
                rep = score_genome(genome, space, base_seed=base_seed,
                                   proxies=proxies)
                assert rep.to_json() == ScoreReport(
                    **{**full, **dropped}).to_json()
            both = score_genome(genome, space, base_seed=base_seed,
                                proxies=PROXIES[::-1])
            assert both.to_dict() == full

    def test_entropic_alone_runs_no_logsynflow_and_no_helper(
            self, helper_thread, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called for an entropic-only report")

        space, (genome,) = attention_genomes_64px(1)
        in_helper = helper_thread(True)
        helpers = recorded_helpers(monkeypatch)
        monkeypatch.setattr(netgraph, "backward_param_grads", forbidden)
        rep = score_genome(genome, space, proxies=("entropic",))
        assert rep.logsynflow is None and rep.entropic > 0
        assert helpers == [] and in_helper() == []
        assert metrics._helper is None

    def test_logsynflow_alone_runs_no_entropic_pass_and_no_helper(
            self, helper_thread, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called for a logsynflow-only report")

        space, (genome,) = attention_genomes_64px(1)
        in_helper = helper_thread(True)
        helpers = recorded_helpers(monkeypatch)
        monkeypatch.setattr(metrics, "entropic_score", forbidden)
        rep = score_genome(genome, space, proxies=("logsynflow",))
        assert rep.entropic is None and rep.logsynflow > 0
        assert helpers == [] and in_helper() == [False]

    def test_one_proxy_forks_no_helper(self, helper_thread, monkeypatch):
        """A helper that could start is not started for one proxy (a start
        that fails would hide it: the calling thread runs the pass then)."""
        space, (genome,) = attention_genomes_64px(1)
        in_helper = helper_thread(True)
        helpers = recorded_helpers(monkeypatch)
        for proxies in (("entropic",), ("logsynflow",)):
            score_genome(genome, space, proxies=proxies)
        assert helpers == [] and in_helper() == [False]

    def test_failure_of_the_other_proxy_is_not_seen(self, attn_config,
                                                    monkeypatch):
        genome = random_genome(attn_config, 1)
        with np.errstate(all="ignore"):
            lsf = score_genome(genome, attn_config, OVERFLOWING_INPUT,
                               proxies=("logsynflow",))
        assert lsf.logsynflow == score_genome(genome, attn_config).logsynflow
        monkeypatch.setattr(metrics, "_logsynflow_term", lambda theta, g: None)
        with pytest.raises(FloatingPointError):
            score_genome(genome, attn_config)
        assert score_genome(genome, attn_config,
                            proxies=("entropic",)).entropic > 0

    @pytest.mark.parametrize("proxies", [(), ("synflow",), "entropic",
                                         ("entropic", "params")])
    def test_unknown_proxies_rejected(self, tiny_config, proxies):
        with pytest.raises(ValueError, match="proxies must name some of"):
            score_genome(random_genome(tiny_config, 0), tiny_config,
                         proxies=proxies)


def attention_genomes_64px(n):
    """The default space at 64 px and its first n random genomes (by seed)
    that hold an attention block."""
    space = SearchSpaceConfig(input_resolution=64).validate()
    genomes = (random_genome(space, s) for s in range(100))
    return space, [g for g in genomes
                   if any(isinstance(b, AttnGene) for _, _, b in g.blocks())][:n]


def recorded_helpers(monkeypatch):
    """The list of the helpers forked from now on, in order."""
    helpers = []
    start = metrics._Helper

    def recording():
        helpers.append(start())
        return helpers[-1]

    monkeypatch.setattr(metrics, "_Helper", recording)
    return helpers


def recorded_pass_pids(monkeypatch, tmp_path):
    """A function that lists the pid of each metrics._logsynflow_pass run
    from now on, in a helper forked later too, in order."""
    path = tmp_path / "pass-pids"
    run = metrics._logsynflow_pass

    def recording(structure, seed):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run(structure, seed)

    monkeypatch.setattr(metrics, "_logsynflow_pass", recording)
    return lambda: ([int(p) for p in path.read_text().split()]
                    if path.exists() else [])


class TestHelperThread:
    """score_genome's log-SynFlow pass in the helper process gives the
    serial path's reports and errors."""

    def test_report_is_the_same_on_either_path(self, helper_thread,
                                               monkeypatch, tmp_path):
        """Both paths run the one pass, metrics._logsynflow_pass."""
        space, genomes = attention_genomes_64px(3)
        pass_pids = recorded_pass_pids(monkeypatch, tmp_path)
        reports = {}
        for on in (False, True):
            in_helper = helper_thread(on)
            reports[on] = [score_genome(g, space, base_seed=s).to_json()
                           for s, g in enumerate(genomes)]
            assert in_helper() == [on] * len(genomes)
        assert reports[True] == reports[False]
        pids = pass_pids()
        assert pids[:3] == [os.getpid()] * 3
        assert pids[3:] == [metrics._helper.process.pid] * 3 != pids[:3]

    def test_logsynflow_error_reaches_the_caller_unchanged(
            self, helper_thread, monkeypatch):
        space, (genome,) = attention_genomes_64px(1)
        monkeypatch.setattr(metrics, "_logsynflow_term", lambda theta, g: None)
        errors = {}
        for on in (False, True):
            in_helper = helper_thread(on)
            with pytest.raises(FloatingPointError) as e:
                score_genome(genome, space)
            errors[on] = (type(e.value), str(e.value))
            assert in_helper() == [on]  # raised from the helper, not rerun
        assert errors[True] == errors[False]
        assert errors[True][1].startswith("non-finite gradient at node ")

    def test_entropic_error_wins(self, helper_thread, monkeypatch):
        space, (genome,) = attention_genomes_64px(1)
        lsf_failed = multiprocessing.get_context("fork").Event()

        def lsf_fails(theta, grad):
            lsf_failed.set()
            return None

        def entropy_fails(*args):
            # on the helper path, fail only after log-SynFlow has failed
            lsf_failed.wait(timeout=60 if on else 0)
            raise ValueError("entropic repeat failed")

        monkeypatch.setattr(metrics, "_logsynflow_term", lsf_fails)
        monkeypatch.setattr(metrics, "layer_entropy", entropy_fails)
        for on in (False, True):
            helper_thread(on)
            lsf_failed.clear()
            with pytest.raises(ValueError, match="entropic repeat failed"):
                score_genome(genome, space)
            assert lsf_failed.is_set() == on

    def test_invalid_genome_raises_before_a_thread_starts(
            self, tiny_config, helper_thread, monkeypatch):
        """No helper is started and no request is sent."""
        helper_thread(True)
        helpers = recorded_helpers(monkeypatch)
        bad = ArchGenome(stages=[[FfnGene("ibn", 16, 3, 2),
                                  FfnGene("ibn", 8, 3, 2)]])
        with pytest.raises(InvalidGenomeError):
            score_genome(bad, tiny_config)
        assert helpers == []

    def test_scoring_leaves_openblas_at_one_thread(self, helper_thread,
                                                   monkeypatch):
        """Scoring sets one thread and leaves it there, after a return and
        after a raise alike."""
        controls = netgraph._find_blas_controls()
        if not controls:
            pytest.skip("no OpenBLAS library is loaded")
        set_threads, get_threads = controls[0]
        space, (genome,) = attention_genomes_64px(1)
        inside = []
        entropy = metrics.layer_entropy

        def recording(*args):
            inside.append(get_threads())
            return entropy(*args)

        monkeypatch.setattr(metrics, "layer_entropy", recording)
        helper_thread(True)
        before = get_threads()
        set_threads(2)
        try:
            score_genome(genome, space)
            after_return = get_threads()
            monkeypatch.setattr(metrics, "_logsynflow_term",
                                lambda theta, g: None)
            helper_thread(True)  # a helper forked with the failing term
            with pytest.raises(FloatingPointError):
                score_genome(genome, space)
            after_raise = get_threads()
        finally:
            set_threads(before)
        assert (after_return, after_raise) == (1, 1)
        assert inside and set(inside) == {1}

    def test_no_stale_reply_after_an_entropic_failure(self, helper_thread,
                                                      monkeypatch):
        """The reply to a candidate abandoned when its entropic repeats
        raised is skipped, not read as the next candidate's."""
        space, genomes = attention_genomes_64px(2)
        helper_thread(False)
        expected = score_genome(genomes[1], space).to_json()
        entropy = metrics.layer_entropy
        failures = [ValueError("entropic repeat failed")]

        def fails_once(*args):
            if failures:
                raise failures.pop()
            return entropy(*args)

        monkeypatch.setattr(metrics, "layer_entropy", fails_once)
        in_helper = helper_thread(True)
        with pytest.raises(ValueError, match="entropic repeat failed"):
            score_genome(genomes[0], space)
        assert score_genome(genomes[1], space).to_json() == expected
        assert in_helper() == [True, True]

    def test_helper_killed_between_candidates(self, helper_thread):
        """The candidate after the helper died scores on the calling thread
        with the same report, and the next one forks a fresh helper."""
        space, genomes = attention_genomes_64px(3)
        helper_thread(False)
        expected = [score_genome(g, space).to_json() for g in genomes]
        in_helper = helper_thread(True)
        reports = [score_genome(genomes[0], space).to_json()]
        killed = metrics._helper
        os.kill(killed.process.pid, signal.SIGKILL)
        killed.process.join(timeout=60)
        assert killed.process.exitcode == -signal.SIGKILL
        reports += [score_genome(g, space).to_json() for g in genomes[1:]]
        assert reports == expected
        assert in_helper() == [True, False, True]
        assert metrics._helper not in (None, killed)

    def test_small_candidates_score_serially(self, tiny_config, helper_thread,
                                             monkeypatch):
        """A candidate below HELPER_MIN_MACS runs every pass on the calling
        thread; a larger one sends its log-SynFlow pass to the helper."""
        min_macs = metrics.HELPER_MIN_MACS
        in_helper = helper_thread(True)
        monkeypatch.setattr(metrics, "HELPER_MIN_MACS", min_macs)
        space, (large,) = attention_genomes_64px(1)
        small = score_genome(random_genome(tiny_config, 0), tiny_config)
        assert small.macs < min_macs <= score_genome(large, space).macs
        assert in_helper() == [False, True]

    def test_request_that_does_not_pickle_scores_serially(self, tiny_config,
                                                          helper_thread):
        """A genome the helper cannot be sent (an instance of a local class)
        is scored on the calling thread, with the same report."""
        class LocalGenome(ArchGenome):
            pass

        genome = random_genome(tiny_config, 3)
        local = LocalGenome(stages=genome.stages, config_ref=genome.config_ref)
        helper_thread(False)
        expected = score_genome(genome, tiny_config).to_json()
        in_helper = helper_thread(True)
        assert score_genome(local, tiny_config).to_json() == expected
        assert score_genome(genome, tiny_config).to_json() == expected
        assert in_helper() == [False, True]

    def test_entropic_error_keeps_the_helper(self, helper_thread,
                                             monkeypatch, tmp_path):
        """A candidate left before its reply is read, by a failed entropic
        repeat or ^C, has the reply read and dropped: the next candidate's
        pass runs in the same helper process, with the serial report."""
        space, genomes = attention_genomes_64px(2)
        helper_thread(False)
        expected = score_genome(genomes[1], space).to_json()
        entropy = metrics.layer_entropy
        failures = [KeyboardInterrupt(), FloatingPointError("non-finite")]

        def fails_twice(*args):
            if failures:
                raise failures.pop()
            return entropy(*args)

        monkeypatch.setattr(metrics, "layer_entropy", fails_twice)
        pass_pids = recorded_pass_pids(monkeypatch, tmp_path)
        in_helper = helper_thread(True)
        helpers = recorded_helpers(monkeypatch)
        for error in (FloatingPointError, KeyboardInterrupt):
            with pytest.raises(error):
                score_genome(genomes[0], space)
        helper = metrics._helper
        assert helpers == [helper] and helper.process.is_alive()
        assert score_genome(genomes[1], space).to_json() == expected
        assert metrics._helper is helper and helpers == [helper]
        assert pass_pids() == [helper.process.pid] * 3
        assert in_helper() == [True] * 3

    def test_interrupt_while_dropping_a_reply_stops_the_helper(
            self, helper_thread, monkeypatch):
        """A second ^C, while the reply left by the first is read, stops
        the helper and still releases it to the next caller."""
        space, (genome,) = attention_genomes_64px(1)

        def interrupted(*args):
            raise KeyboardInterrupt

        helper_thread(True)
        helpers = recorded_helpers(monkeypatch)
        start = metrics._Helper

        def interrupted_read():
            helper = start()
            helper.conn.recv = interrupted
            return helper

        monkeypatch.setattr(metrics, "_Helper", interrupted_read)
        monkeypatch.setattr(metrics, "layer_entropy", interrupted)
        with pytest.raises(KeyboardInterrupt):
            score_genome(genome, space)
        assert metrics._helper is None
        assert helpers[0].process.exitcode == 0 and helpers[0].conn.closed
        assert metrics._helper_lock.acquire(blocking=False)
        metrics._helper_lock.release()

    def test_error_that_does_not_pickle_is_raised_as_serially(
            self, helper_thread, monkeypatch, capfd):
        """A pass error of a local class cannot be sent back: the helper
        ends quietly and the calling thread reruns the pass, raising the
        serial path's error."""
        class LocalError(Exception):
            pass

        def fails(theta, grad):
            raise LocalError("local pass error")

        space, (genome,) = attention_genomes_64px(1)
        monkeypatch.setattr(metrics, "_logsynflow_term", fails)
        errors = {}
        for on in (False, True):
            in_helper = helper_thread(on)
            helpers = recorded_helpers(monkeypatch)
            with pytest.raises(LocalError) as e:
                score_genome(genome, space)
            errors[on] = (type(e.value), str(e.value))
        assert errors[True] == errors[False]
        assert in_helper() == [True, False]
        assert metrics._helper is None
        assert helpers[0].process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err

    def test_helper_that_cannot_start_leaves_nothing_open(
            self, tiny_config, helper_thread, monkeypatch):
        """A helper whose start() raises, as in a daemonic process, closes
        both ends of its pipe, and the candidate scores serially without a
        ResourceWarning."""
        genome = random_genome(tiny_config, 3)
        helper_thread(False)
        expected = score_genome(genome, tiny_config).to_json()
        in_helper = helper_thread(True)
        pipes = []
        pipe = multiprocessing.connection.Pipe

        def recording_pipe(*args, **kwargs):
            pipes.append(pipe(*args, **kwargs))
            return pipes[-1]

        def no_children(process):
            raise AssertionError(
                "daemonic processes are not allowed to have children")

        monkeypatch.setattr(multiprocessing.connection, "Pipe", recording_pipe)
        monkeypatch.setattr(multiprocessing.get_context("fork").Process,
                            "start", no_children)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert score_genome(genome, tiny_config).to_json() == expected
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []
        assert len(pipes) == 1 and all(c.closed for c in pipes[0])
        assert in_helper() == [False] and metrics._helper is None

    def test_daemon_process_scores_serially(self, tiny_config,
                                            helper_thread):
        """A daemonic process, such as a multiprocessing.Pool worker, may
        not fork the helper, so it runs every pass itself."""
        helper_thread(True)
        genome = random_genome(tiny_config, 3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pooled = pool.apply(score_genome, (genome, tiny_config))
        assert pooled.to_json() == score_genome(genome, tiny_config).to_json()


class TestEntropicConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            EntropicConfig(epsilon=0.0).validate()
        with pytest.raises(ValueError):
            EntropicConfig(repeats=0).validate()
        with pytest.raises(ValueError):
            EntropicConfig(input_low=0.5, input_high=-0.5).validate()
        with pytest.raises(ValueError):
            EntropicConfig(norm_axis="bogus").validate()

    def test_from_dict_rejects_unknown_keys(self):
        assert EntropicConfig.from_dict({"epsilon": 1e-6}).epsilon == 1e-6
        with pytest.raises(ValueError, match="'mystery', 'repeat'"):
            EntropicConfig.from_dict({"epsilon": 1e-6, "mystery": 1,
                                      "repeat": 2})
