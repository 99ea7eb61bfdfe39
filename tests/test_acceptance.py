"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line naming the guarantee it certifies; a
failing assertion doubles as the FAIL line in the pytest report.
"""

import copy
import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from esnas import archspace, cli, metrics, netgraph
from esnas.archspace import ArchGenome, FfnGene, SearchSpaceConfig, random_genome
from esnas.bench import kendall_tau, spearman_rho
from esnas.evolve import Budget, SearchEngine, SearchSchedule, cyclic_search
from esnas.metrics import EntropicConfig, entropic_score, layer_entropy, \
    logsynflow, normalize_activations
from esnas.netgraph import INPUT, Graph, _Builder, forward, \
    prepare_for_scoring

from conftest import conv1x1_graph
from test_netgraph import TEMPLATES, assert_grads_close, fd_param_grads, \
    make_graph

rng = np.random.default_rng(99)


def certify(line):
    print(f"PASS: {line}")


@pytest.fixture(scope="module")
def toy_space():
    """216-genome space whose only free fields are topology-role fields, so
    the topology-phase metric is an exact ground truth for the search."""
    config = SearchSpaceConfig(
        num_stages=1, blocks_per_stage=[3], attention_stages=set(),
        stem_channels=8, channel_domain=[[8]], kernel_domain=[3, 5, 7],
        expansion_domain=[2], heads_domain=[2], head_dim_domain=[8],
        input_resolution=16, input_channels=3,
        max_params=10_000_000).validate()
    block_opts = [FfnGene(ft, 8, k, 2)
                  for ft in config.ffn_types for k in (3, 5, 7)]
    genomes = []
    for combo in itertools.product(block_opts, repeat=3):
        g = ArchGenome(stages=[list(combo)], config_ref=config.ref())
        if not archspace.validate(g, config):
            genomes.append(g)
    assert len(genomes) == 216
    return config, genomes


def toy_schedule():
    # 3x25 multi-start evals, then 60-eval phases; 840 total ends inside a
    # topology phase, so the final ranking metric is the entropic score.
    return SearchSchedule(
        multistart_populations=3,
        multistart_budget=Budget("evaluations", 25),
        phase_budget=Budget("evaluations", 60),
        total_budget=Budget("evaluations", 840),
        multistart_population_size=8, multistart_tournament_size=3,
        population_size=16, tournament_size=4).validate()


def test_entropy_analytics():
    val = layer_entropy(np.array([1.0, 1.0 / math.e]), 1e-12)
    assert abs(val - 1.0 / (2.0 * math.e)) < 1e-9
    assert layer_entropy(np.ones(32), 1e-8) <= 1e-6
    a = rng.uniform(0, 1, 64)
    eps = 1e-8
    replay = max(sum(-x * math.log(x + eps) for x in a) / a.size, 0.0)
    assert abs(layer_entropy(a, eps) - replay) < 1e-9
    certify("entropy analytics: two-point value, all-ones clamp, 64-element "
            "replay all within tolerance")


def test_entropy_bound_on_100_genomes(tiny_config, attn_config):
    cfg = EntropicConfig()
    checked = 0
    for config, seeds in ((tiny_config, range(50)), (attn_config, range(50))):
        for s in seeds:
            genome = random_genome(config, s)
            graph = netgraph.build_graph(genome, config, seed=s)
            n = len(prepare_for_scoring(graph).activation_taps)
            score, _ = entropic_score(graph, cfg, [3 * s, 3 * s + 1, 3 * s + 2])
            assert 0.0 <= score <= n / math.e + 1e-6
            checked += 1
    assert checked == 100
    certify("entropy bound: 0 <= score <= N/e held on 100 random genomes")


def test_scale_invariance_on_20_graphs():
    cfg = EntropicConfig()

    def conv_relu_graph(seed):
        r = np.random.default_rng(seed)
        widths = [3] + [int(r.integers(2, 7)) for _ in range(3)]
        b = _Builder((widths[0], 6, 6))
        src = INPUT
        taps = []
        for cin, cout in zip(widths, widths[1:]):
            src = b.conv(src, cin, cout, int(r.choice([1, 3])), bias=False)
            src = b.unary("relu", src)
            taps.append(src)
        g = Graph(b.nodes, b.input_shape, src, taps, b.shapes)
        for i, node in enumerate(g.nodes):
            node.params = [np.random.default_rng(seed * 37 + i)
                           .uniform(-1, 1, p.shape) for p in node.params]
        return prepare_for_scoring(g)

    def summed_entropy(graph, x):
        _, taps = forward(graph, x)
        return sum(layer_entropy(normalize_activations(t, cfg), cfg.epsilon)
                   for t in taps)

    for seed in range(20):
        g = conv_relu_graph(seed)
        x = np.random.default_rng(1000 + seed).uniform(-0.5, 0.5, g.input_shape)
        base = summed_entropy(g, x)
        conv_ids = [i for i, n in enumerate(g.nodes) if n.kind == "conv2d"]
        target = conv_ids[seed % len(conv_ids)]
        for c in (0.5, 2.0, 10.0):
            g2 = copy.deepcopy(g)
            g2.nodes[target].params = [p * c for p in g2.nodes[target].params]
            delta = abs(summed_entropy(g2, x) - base)
            assert delta < 1e-9 * max(abs(base), 1.0)
    certify("scale invariance: entropy unchanged under per-layer weight "
            "scaling on 20 conv/relu graphs, c in {0.5, 2, 10}")


def test_gradients_match_finite_differences_on_50_graphs():
    count = 0
    for template in TEMPLATES:
        for seed in range(10):
            g = make_graph(template, 100 + seed)
            _, analytic = netgraph.backward_param_grads(g)
            numeric = fd_param_grads(g, h=1e-5)
            assert_grads_close(analytic, numeric, rtol=1e-4)
            count += 1
    assert count == 50
    kinds = set()
    for template in TEMPLATES:
        kinds |= {n.kind for n in make_graph(template, 0).nodes}
    assert kinds == {"conv2d", "relu", "scale", "matmul", "add", "zeropad",
                     "reshape"}
    certify("gradient correctness: reverse mode matched central differences "
            "on 50 graphs covering every node kind")


def test_logsynflow_analytic_and_finite_difference():
    score = logsynflow(prepare_for_scoring(
        conv1x1_graph(np.array([[3.0, -4.0]]))))
    assert abs(score - 7.0 * math.log(2.0)) < 1e-12

    r = np.random.default_rng(12)
    b = _Builder((4, 1, 1))
    a1 = b.unary("relu", b.conv(INPUT, 4, 6, 1))
    out = b.conv(a1, 6, 3, 1)
    g = Graph(b.nodes, b.input_shape, out, [a1], b.shapes)
    g.nodes[0].params = [r.normal(0, 1, (6, 4, 1, 1)), r.normal(0, 1, 6)]
    g.nodes[out].params = [r.normal(0, 1, (3, 6, 1, 1)), r.normal(0, 1, 3)]
    prepared = prepare_for_scoring(g)
    score = logsynflow(prepared)

    x = np.ones(prepared.input_shape)
    h = 1e-6
    ref = 0.0
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
    certify("logsynflow: 7*ln(2) analytic case exact; two-layer value matched "
            "the finite-difference oracle")


def test_correlation_coefficients_match_brute_force():
    assert kendall_tau([1, 2, 3, 4], [2, 1, 4, 3]) == 1 / 3

    def kendall_ref(xs, ys):
        n = len(xs)
        s = 0
        for i in range(n):
            for j in range(i + 1, n):
                dx = int(xs[i] > xs[j]) - int(xs[i] < xs[j])
                dy = int(ys[i] > ys[j]) - int(ys[i] < ys[j])
                s += dx * dy
        return s / (n * (n - 1) // 2)

    def spearman_ref(xs, ys):
        def ranks(v):
            order = sorted(range(len(v)), key=lambda i: v[i])
            r = [0.0] * len(v)
            for pos, i in enumerate(order):
                r[i] = float(pos + 1)
            return r
        rx, ry = ranks(xs), ranks(ys)
        mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
        num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        den = math.sqrt(sum((a - mx) ** 2 for a in rx)
                        * sum((b - my) ** 2 for b in ry))
        return num / den

    gen = np.random.default_rng(5)
    for trial in range(1000):
        xs = list(gen.permutation(50).astype(float))
        ys = list(gen.permutation(50).astype(float))
        assert kendall_tau(xs, ys) == kendall_ref(xs, ys)
        assert spearman_rho(xs, ys) == spearman_ref(xs, ys)
    certify("correlation oracles: kendall and spearman equalled definitional "
            "brute force on 1000 tie-free length-50 vectors; single-swap "
            "case returned 1/3 exactly")


def test_toy_space_search_hits_top_percentile(toy_space):
    config, genomes = toy_space
    truth = sorted(((metrics.score_genome(g, config).entropic, g.to_json())
                    for g in genomes), reverse=True)
    top_n = max(1, math.ceil(len(truth) / 100))  # top-1 percent, rounded up
    top_set = {j for _, j in truth[:top_n]}
    schedule = toy_schedule()

    # a report does not depend on the search seed, so the 100 searches (same
    # space, entropic config and scoring seed) share one memo
    memo = {}
    wins = 0
    for seed in range(100):
        engine = SearchEngine(config, schedule, seed)
        engine.memo = memo
        best, history = engine.cyclic_search()
        final = next(e for e in history if e["event"] == "search_done")
        assert final["final_metric"] == "entropic"
        wins += best.genome.to_json() in top_set
    assert wins >= 95, f"only {wins}/100 runs reached the top percentile"
    certify(f"search sanity: {wins}/100 seeded runs returned a top-1% genome "
            f"of the 216-genome enumeration")


def test_constraint_honoring_and_preset_cap(tiny_config, tmp_path, capsys):
    # Part 1: with a cap that excludes part of the space, nothing infeasible
    # is ever admitted during a full search run.
    from conftest import enumerate_space

    params = sorted(archspace.count_params(g, tiny_config)
                    for g in enumerate_space(tiny_config))
    cap = params[len(params) // 2]
    config = replace(tiny_config, max_params=cap).validate()
    schedule = SearchSchedule(
        multistart_populations=2,
        multistart_budget=Budget("evaluations", 10),
        phase_budget=Budget("evaluations", 15),
        total_budget=Budget("evaluations", 120),
        multistart_population_size=4, multistart_tournament_size=2,
        population_size=8, tournament_size=3).validate()
    engine = SearchEngine(config, schedule, seed=0)
    best, history = engine.cyclic_search()
    assert engine.evaluated
    assert all(i.report.params <= cap for i in engine.evaluated)
    assert best.report.params <= cap

    # Part 2: the S0 preset caps the CLI search at 3.5M parameters.  The
    # config file shrinks the input resolution and the evaluation budgets so
    # the run fits in test time; the preset's parameter cap is left intact.
    cfg = {
        "space": {"input_resolution": 64},
        "schedule": {
            "multistart_populations": 2,
            "multistart_budget": {"kind": "evaluations", "amount": 6},
            "phase_budget": {"kind": "evaluations", "amount": 10},
            "total_budget": {"kind": "evaluations", "amount": 50},
            "multistart_population_size": 4,
            "multistart_tournament_size": 2,
            "population_size": 8,
            "tournament_size": 3,
        },
    }
    cfg_path = tmp_path / "s0.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "s0_run"
    code = cli.main(["search", "--preset", "S0", "--budget-mode", "evals",
                     "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads((out_dir / "best_report.json").read_text())
    assert report["params"] <= 3_500_000
    for line in (out_dir / "history.ndjson").read_text().splitlines():
        event = json.loads(line)
        if event["event"] == "step":
            assert event["params"] <= 3_500_000
    certify("constraint honoring: every admitted individual respected "
            "max_params; S0 preset output stayed under 3.5M parameters")


def test_search_determinism_byte_identical(tiny_config, tmp_path, capsys):
    cfg = {
        "space": tiny_config.to_dict(),
        "schedule": {
            "multistart_populations": 2,
            "multistart_budget": {"kind": "evaluations", "amount": 8},
            "phase_budget": {"kind": "evaluations", "amount": 12},
            "total_budget": {"kind": "evaluations", "amount": 80},
            "multistart_population_size": 4,
            "multistart_tournament_size": 2,
            "population_size": 6,
            "tournament_size": 2,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        code = cli.main(["search", "--config", str(cfg_path),
                         "--budget-mode", "evals", "--seed", "17",
                         "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        outputs.append((out_dir / "best_genome.json").read_bytes())
    assert outputs[0] == outputs[1]
    certify("determinism: two identically-seeded searches produced "
            "byte-identical best_genome.json")


def test_wallclock_budget_feasibility(tiny_config):
    # A wall-clock-budgeted search terminates within its configured budget
    # (plus one evaluation of slack), and one full-resolution default-space
    # candidate scores fast enough that the stock 45-minute budget admits
    # thousands of evaluations.
    schedule = SearchSchedule(
        multistart_populations=2,
        multistart_budget=Budget("wallclock_seconds", 0.5),
        phase_budget=Budget("wallclock_seconds", 1.0),
        total_budget=Budget("wallclock_seconds", 4.0),
        multistart_population_size=4, multistart_tournament_size=2,
        population_size=8, tournament_size=3).validate()
    t0 = time.monotonic()
    best, history = cyclic_search(tiny_config, schedule, seed=0)
    elapsed = time.monotonic() - t0
    assert best is not None
    assert elapsed < 4.0 + 10.0, f"search overran its budget: {elapsed:.1f}s"

    full = SearchSpaceConfig().validate()
    genome = random_genome(full, 0)
    t0 = time.monotonic()
    metrics.score_genome(genome, full)
    per_eval = time.monotonic() - t0
    assert per_eval < 30.0
    budget_evals = (45 * 60) / per_eval
    assert budget_evals > 100
    certify(f"wall-clock feasibility: budgeted search ended on time "
            f"({elapsed:.1f}s for a 4s budget); full-scale scoring took "
            f"{per_eval:.2f}s, about {budget_evals:.0f} evaluations per "
            f"45-minute phase budget")
