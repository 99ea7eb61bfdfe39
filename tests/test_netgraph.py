import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from esnas import netgraph
from esnas.archspace import AttnGene, FfnGene, SearchSpaceConfig, random_genome
from esnas.netgraph import (
    INPUT,
    Graph,
    GraphShapeError,
    _Builder,
    backward_param_grads,
    build_graph,
    build_structure,
    count_graph_params,
    forward,
    prepare_for_scoring,
    reinit,
)

from conftest import (
    conv1x1_graph,
    enumerate_space,
    genome_norm_params,
    signed_graph,
)

rng = np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# oracles

def naive_conv2d(x, w, b, stride, pad, groups):
    """Reference convolution with explicit loops; independent of the engine."""
    cin, h, wd = x.shape
    cout, cg, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((cout, ho, wo))
    og = cout // groups
    for co in range(cout):
        g = co // og
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(cg):
                    for ki in range(k):
                        for kj in range(k):
                            acc += (w[co, ci, ki, kj]
                                    * xp[g * cg + ci, i * stride + ki, j * stride + kj])
                out[co, i, j] = acc
    if b is not None:
        out += b[:, None, None]
    return out


def fd_param_grads(graph, h=1e-5):
    """Central finite differences of R = sum(output) under an all-ones input."""
    x = np.ones(graph.input_shape)

    def r():
        return float(forward(graph, x)[0].sum())

    grads = []
    for _, _, p in graph.iter_params():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            rp = r()
            flat[i] = orig - h
            rm = r()
            flat[i] = orig
            gflat[i] = (rp - rm) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    # atol absorbs finite-difference roundoff on near-zero gradient entries
    for ga, gn in zip(analytic, numeric):
        assert np.all(np.abs(ga - gn) <= rtol * np.abs(gn) + atol)


# ---------------------------------------------------------------------------
# randomized graph templates that cover every node kind the engine runs

def rand_params(node, seed, scale=0.5):
    r = np.random.default_rng(seed)
    node.params = [r.normal(0, scale, p.shape) for p in node.params]


def template_ibn(seed):
    # the widening residual pads a conv's output, so the gradients of that
    # conv's parameters pass through zeropad's backward
    r = np.random.default_rng(seed)
    c = int(r.integers(2, 5))
    b = _Builder((c, 4, 4))
    block_in = b.conv(INPUT, c, c, 1)
    x = b.conv(block_in, c, 2 * c, 1)
    x = b.norm(x, 2 * c)
    x = b.unary("relu", x)
    x = b.conv(x, 2 * c, 2 * c, 3, groups=2 * c)
    x = b.unary("relu", x)
    x = b.conv(x, 2 * c, c + 1, 1)
    pad = b.emit("zeropad", [block_in], None, (c + 1, 4, 4),
                 **{"from": c, "to": c + 1})
    x = b.emit("add", [pad, x], None, b.shape(x))
    return b, x


def template_convnext(seed):
    r = np.random.default_rng(seed)
    c = int(r.integers(2, 5))
    b = _Builder((c, 4, 4))
    x = b.conv(INPUT, c, c, 3, groups=c)
    x = b.norm(x, c)
    x = b.conv(x, c, 3 * c, 1)
    x = b.unary("relu", x)
    x = b.conv(x, 3 * c, c, 1)
    x = b.emit("add", [INPUT, x], None, b.shape(x))
    return b, x


def template_attention(seed):
    r = np.random.default_rng(seed)
    heads, dim = int(r.integers(1, 3)), int(r.integers(2, 4))
    c = 3
    b = _Builder((c, 2, 2))
    hd = heads * dim
    q = b.conv(INPUT, c, hd, 1)
    k = b.conv(INPUT, c, hd, 1)
    v = b.conv(INPUT, c, hd, 1)
    q = b.emit("reshape", [q], None, (heads, dim, 4), shape=(heads, dim, 4))
    k = b.emit("reshape", [k], None, (heads, dim, 4), shape=(heads, dim, 4))
    v = b.emit("reshape", [v], None, (heads, dim, 4), shape=(heads, dim, 4))
    s = b.emit("matmul", [q, k], None, (heads, 4, 4),
               transpose_a=True, transpose_b=False)
    s = b.emit("scale", [s], None, (heads, 4, 4), factor=1 / math.sqrt(dim))
    s = b.emit("scale", [s], None, (heads, 4, 4), factor=1 / 4)
    x = b.emit("matmul", [v, s], None, (heads, dim, 4),
               transpose_a=False, transpose_b=True)
    x = b.emit("reshape", [x], None, (hd, 2, 2), shape=(hd, 2, 2))
    x = b.conv(x, hd, c, 1)
    return b, x


def template_pool(seed):
    r = np.random.default_rng(seed)
    c = int(r.integers(2, 5))
    b = _Builder((c, 4, 4))
    x = b.conv(INPUT, c, c + 2, 3, stride=2)
    x = b.unary("relu", x)
    x = b.conv(x, c + 2, c, 3, stride=2, bias=False)
    return b, x


def template_mlp(seed):
    r = np.random.default_rng(seed)
    n_in, n_hid, n_out = (int(r.integers(2, 5)) for _ in range(3))
    b = _Builder((n_in, 1, 1))
    a1 = b.unary("relu", b.conv(INPUT, n_in, n_hid, 1))
    return b, b.conv(a1, n_hid, n_out, 1)


TEMPLATES = [template_ibn, template_convnext, template_attention,
             template_pool, template_mlp]


def with_random_params(g, seed):
    for i, node in enumerate(g.nodes):
        rand_params(node, seed * 1000 + i)
    return g


def laid_out_graph(template, seed):
    """The template's graph as laid out, before prepare_for_scoring, with
    signed random parameters."""
    b, out = template(seed)
    g = Graph(nodes=b.nodes, input_shape=b.input_shape, output_id=out,
              activation_taps=[i for i, n in enumerate(b.nodes)
                               if n.kind == "relu"],
              out_shapes=b.shapes, norm_params=b.norm_params)
    return with_random_params(g, seed)


def make_graph(template, seed):
    """The template's graph as the engine runs it: prepared for scoring,
    then given signed random parameters again, so that inputs cross the
    ReLU kinks."""
    return with_random_params(
        prepare_for_scoring(laid_out_graph(template, seed)), seed)


# ---------------------------------------------------------------------------
# forward

# (k, stride, groups, cin, cout, hw, bias).  Stride-1 depthwise convs have
# their own kernel; its cases include maps smaller than the kernel, as
# 32 px genomes give k=7 on 1x1 maps.
CONV_CASES = [
    (1, 1, 1, 3, 5, 6, True), (3, 1, 1, 2, 4, 6, True),
    (3, 2, 1, 3, 3, 6, True), (3, 1, 4, 4, 4, 6, True),
    (5, 2, 1, 4, 6, 6, True),
    (1, 1, 1, 3, 5, 6, False), (1, 1, 1, 4, 2, 1, True),
    (5, 1, 4, 4, 4, 6, True), (7, 1, 3, 3, 3, 6, True),
    (3, 1, 4, 4, 4, 6, False), (7, 1, 3, 3, 3, 6, False),
    (7, 1, 2, 2, 2, 1, True), (7, 1, 2, 2, 2, 2, False),
    (3, 1, 3, 3, 3, 1, False), (5, 1, 3, 3, 3, 2, True),
]


def conv_case_id(case):
    """k-stride-groups-cin-cout, then the map size and bias when they
    differ from the 6x6-with-bias default."""
    *dims, hw, bias = case
    return "-".join(map(str, dims)) + ("" if hw == 6 else f"-{hw}px") + (
        "" if bias else "-nobias")


class TestForward:
    @pytest.mark.parametrize("k,stride,groups,cin,cout,hw,bias", CONV_CASES,
                             ids=[conv_case_id(c) for c in CONV_CASES])
    def test_conv_matches_naive_oracle(self, k, stride, groups, cin, cout, hw,
                                       bias):
        b = _Builder((cin, hw, hw))
        nid = b.conv(INPUT, cin, cout, k, stride=stride, groups=groups,
                     bias=bias)
        g = Graph(b.nodes, b.input_shape, nid, [], b.shapes)
        rand_params(g.nodes[0], 5)
        x = rng.normal(0, 1, (cin, hw, hw))
        out, _ = forward(g, x)
        ref = naive_conv2d(x, g.nodes[0].params[0],
                           g.nodes[0].params[1] if bias else None,
                           stride, k // 2, groups)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_three_node_graph_vs_dense_reference(self):
        # conv1x1 stack is just per-position matrix multiplication
        b = _Builder((3, 4, 4))
        x1 = b.conv(INPUT, 3, 5, 1, bias=False)
        x2 = b.unary("relu", x1)
        x3 = b.conv(x2, 5, 2, 1, bias=False)
        g = Graph(b.nodes, b.input_shape, x3, [x2], b.shapes)
        rand_params(g.nodes[0], 1)
        rand_params(g.nodes[2], 2)
        x = rng.normal(0, 1, (3, 4, 4))
        out, _ = forward(g, x)
        w1 = g.nodes[0].params[0][:, :, 0, 0]
        w2 = g.nodes[2].params[0][:, :, 0, 0]
        flat = x.reshape(3, -1)
        ref = (w2 @ np.maximum(w1 @ flat, 0)).reshape(2, 4, 4)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_shape_mismatch_reports_node(self):
        g = conv1x1_graph(np.eye(2))
        with pytest.raises(GraphShapeError, match="input shape"):
            forward(g, np.zeros(3))

    def test_taps_returned_in_network_order(self, tiny_config):
        g = random_genome(tiny_config, 3)
        graph = prepare_for_scoring(build_graph(g, tiny_config, seed=0))
        _, taps = forward(graph, np.ones(graph.input_shape))
        assert len(taps) == len(graph.activation_taps)

    def test_unknown_kind_raises_naming_it(self):
        b = _Builder((2, 1, 1))
        x = b.unary("gelu", b.conv(INPUT, 2, 2, 1))
        graph = Graph(b.nodes, b.input_shape, x, [x], b.shapes)
        with pytest.raises(ValueError, match="no kernel for node kind 'gelu'"):
            forward(graph, np.ones(graph.input_shape))
        with pytest.raises(ValueError, match="no kernel for node kind 'gelu'"):
            backward_param_grads(graph)
        with pytest.raises(ValueError, match="no kernel for node kind 'gelu'"):
            netgraph._node_backward(graph.nodes[x], [np.ones((2, 1, 1))],
                                    np.ones((2, 1, 1)))

    @pytest.mark.parametrize("seeded", [False, True])
    def test_leaves_its_graph_as_it_found_it(self, attn_config, seeded):
        """A forward, drawing its weights or reading the graph's, writes
        nothing into the graph: every field, node and parameter is as it
        was, down to the parameter arrays' identity and bytes."""
        def state(graph):
            fields = copy.deepcopy({k: v for k, v in vars(graph).items()
                                    if k != "nodes"})
            fields["nodes"] = [(id(n), copy.deepcopy(
                {k: v for k, v in vars(n).items() if k != "params"}),
                [(id(p), p.shape, p.strides, p.tobytes()) for p in n.params])
                for n in graph.nodes]
            return fields

        for s in range(3):
            graph = build_structure(random_genome(attn_config, s), attn_config)
            if not seeded:
                graph = reinit(graph, s)
            before = state(graph)
            x = rng.uniform(-1, 1, graph.input_shape)
            forward(graph, x, tap=np.max, seed=s if seeded else None)
            assert state(graph) == before

    def test_genome_graph_runs_as_built(self, attn_config):
        graph = build_graph(random_genome(attn_config, 2), attn_config, 0)
        out, taps = forward(graph, np.ones(graph.input_shape))
        assert np.all(np.isfinite(out)) and len(taps) > 0
        _, grads = backward_param_grads(graph)
        assert len(grads) == len(list(graph.iter_params()))


# the kernel each drawn path takes: banded depthwise, one direct matmul for
# a stride-1 dense 1x1, im2col for the other dense convs
KERNEL_OF_PATH = {"depthwise": "depthwise", "pointwise": "pointwise",
                  "strided": "im2col", "dense": "im2col"}


@st.composite
def conv_shapes(draw, path):
    """(k, stride, groups, cin, cout, hw, bias) of a conv that takes the
    given path: "depthwise", "pointwise", or im2col's "strided" or "dense"
    (one group).  Depthwise and pointwise maps reach 30 px, so that the
    depthwise kernel's width tiles (8 columns at most) come in several,
    with a zero-padded last tile."""
    k = draw(st.sampled_from([1, 3, 5, 7]))
    hw, bias = draw(st.integers(1, 7)), draw(st.booleans())
    if path == "depthwise":
        c = draw(st.integers(1, 6))
        return k, 1, c, c, c, draw(st.integers(1, 30)), bias
    if path == "pointwise":
        cin, cout = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        assume(cin * cout > 1)  # else it is depthwise
        return 1, 1, 1, cin, cout, draw(st.integers(1, 30)), bias
    stride = draw(st.integers(2, 3)) if path == "strided" else 1
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    assume(stride > 1 or cin * cout > 1)  # else it is depthwise
    assume(stride > 1 or k > 1)  # else it is pointwise
    return k, stride, 1, cin, cout, hw, bias


class TestConvProperties:
    @pytest.mark.parametrize("path", sorted(KERNEL_OF_PATH))
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_matches_naive_oracle(self, path, data):
        """Forward equals the naive loops on drawn shapes; the backward is
        its adjoint: <conv(x, w), gout> = <x, gx> = <w, gw>, and the bias
        gradient sums gout."""
        k, stride, groups, cin, cout, hw, bias = data.draw(conv_shapes(path))
        b = _Builder((cin, hw, hw))
        g = Graph(b.nodes, b.input_shape, b.conv(
            INPUT, cin, cout, k, stride=stride, groups=groups, bias=bias),
            [], b.shapes)
        node = g.nodes[0]
        assert netgraph._conv_path(node, cin) == KERNEL_OF_PATH[path]
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        node.params = [r.normal(0, 0.5, p.shape) for p in node.params]
        x = r.normal(0, 1, (cin, hw, hw))
        out, _ = forward(g, x)
        conv = naive_conv2d(x, node.params[0], None, stride, k // 2, groups)
        ref = conv + node.params[1][:, None, None] if bias else conv
        assert np.max(np.abs(out - ref)) < 1e-10
        gout = r.normal(0, 1, out.shape)
        (gx,), pgrads = netgraph._conv2d_backward(x, node, gout)
        inner = float(np.sum(conv * gout))
        for a, ga in ((x, gx), (node.params[0], pgrads[0])):
            assert ga.shape == a.shape
            assert abs(float(np.sum(a * ga)) - inner) <= 1e-10 * (1 + abs(inner))
        if bias:
            assert np.allclose(pgrads[1], gout.sum(axis=(1, 2)),
                               rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k,stride,groups,cin,cout", [
        (3, 1, 2, 4, 6), (1, 1, 2, 4, 4), (3, 1, 4, 4, 8), (3, 2, 4, 4, 4),
    ], ids=["grouped", "grouped-1x1", "widening-depthwise", "strided-depthwise"])
    def test_conv_no_genome_lays_out_raises(self, k, stride, groups, cin, cout):
        b = _Builder((cin, 6, 6))
        g = Graph(b.nodes, b.input_shape, b.conv(
            INPUT, cin, cout, k, stride=stride, groups=groups), [], b.shapes)
        x = np.ones(g.input_shape)
        msg = (f"no conv kernel for {groups} groups over {cin} input and "
               f"{cout} output channels at stride {stride}")
        with pytest.raises(ValueError, match=msg):
            forward(g, x)
        with pytest.raises(ValueError, match=msg):
            netgraph._conv2d_backward(x, g.nodes[0], np.ones(g.out_shapes[0]))


ENGINE_KINDS = {"conv2d", "relu", "scale", "matmul", "add", "zeropad",
                "reshape"}


def consumers(graph, nid):
    return [i for i, n in enumerate(graph.nodes) if nid in n.inputs]


class TestBuildGraph:
    def test_ibn_block_structure(self, tiny_config):
        from esnas.archspace import ArchGenome
        genome = ArchGenome(stages=[[FfnGene("ibn", 8, 3, 2),
                                     FfnGene("ibn", 8, 3, 2)]],
                            config_ref=tiny_config.ref())
        graph = build_graph(genome, tiny_config, seed=0)
        block = graph.nodes[2:]  # drop the two stem convs
        n_blocks = 2
        assert sum(n.kind == "conv2d" for n in block) == 3 * n_blocks
        assert sum(n.kind == "relu" for n in block) == 2 * n_blocks
        assert sum(n.kind == "add" for n in block) == n_blocks

    def test_convnext_depthwise_is_first_conv(self, tiny_config):
        from esnas.archspace import ArchGenome
        genome = ArchGenome(stages=[[FfnGene("convnext", 8, 5, 2),
                                     FfnGene("convnext", 8, 3, 2)]],
                            config_ref=tiny_config.ref())
        graph = build_graph(genome, tiny_config, seed=0)
        block_convs = [n for n in graph.nodes[2:] if n.kind == "conv2d"]
        first = block_convs[0]
        assert first.attrs["groups"] == first.attrs["in_ch"] == 8

    def test_same_seed_identical_weights(self, attn_config):
        g = random_genome(attn_config, 5)
        g1 = build_graph(g, attn_config, seed=11)
        g2 = build_graph(g, attn_config, seed=11)
        for (_, _, p1), (_, _, p2) in zip(g1.iter_params(), g2.iter_params()):
            assert np.array_equal(p1, p2)

    def test_rejects_invalid_genome(self, tiny_config):
        from esnas.archspace import ArchGenome, InvalidGenomeError
        genome = ArchGenome(stages=[[FfnGene("ibn", 16, 3, 2),
                                     FfnGene("ibn", 8, 3, 2)]])
        with pytest.raises(InvalidGenomeError):
            build_graph(genome, tiny_config, seed=0)

    def test_attention_block_present(self, attn_config):
        for s in range(30):
            genome = random_genome(attn_config, s)
            if any(isinstance(g, AttnGene) for _, _, g in genome.blocks()):
                graph = build_graph(genome, attn_config, seed=0)
                kinds = {n.kind for n in graph.nodes}
                assert {"scale", "matmul", "reshape"} <= kinds
                return
        pytest.fail("no attention genome drawn")

    def test_convnext_expansion_activation_is_a_relu_tap(self, tiny_config):
        from esnas.archspace import ArchGenome
        genome = ArchGenome(stages=[[FfnGene("convnext", 8, 5, 2),
                                     FfnGene("convnext", 16, 3, 2)]],
                            config_ref=tiny_config.ref())
        graph = build_structure(genome, tiny_config)
        expansions = [i for i, n in enumerate(graph.nodes)
                      if n.kind == "conv2d" and n.attrs["kernel"] == 1
                      and n.attrs["out_ch"] == 2 * n.attrs["in_ch"]]
        assert len(expansions) == 2
        for nid in expansions:
            (act,) = consumers(graph, nid)
            assert graph.nodes[act].kind == "relu"
            assert act in graph.activation_taps
        assert graph.activation_taps == [
            i for i, n in enumerate(graph.nodes) if n.kind == "relu"]

    def test_attention_scores_scaled_by_root_dim_then_length(self,
                                                             attn_config):
        from esnas.archspace import ArchGenome
        genome = ArchGenome(stages=[
            [FfnGene("ibn", 8, 3, 2)],
            [AttnGene("ibn", 16, 2, 2, 8), FfnGene("ibn", 16, 3, 2)]],
            config_ref=attn_config.ref())
        graph = build_structure(genome, attn_config)
        (qk,) = [i for i, n in enumerate(graph.nodes)
                 if n.kind == "matmul" and n.attrs["transpose_a"]]
        heads, length, _ = graph.out_shapes[qk]
        assert (heads, length) == (2, 4)  # 16 px, three stride-2 convs
        (by_dim,) = consumers(graph, qk)
        (by_length,) = consumers(graph, by_dim)
        (av,) = consumers(graph, by_length)
        assert graph.nodes[by_dim].kind == graph.nodes[by_length].kind == "scale"
        assert graph.nodes[by_dim].attrs["factor"] == 1.0 / math.sqrt(8)
        assert graph.nodes[by_length].attrs["factor"] == 1.0 / length
        assert graph.nodes[av].kind == "matmul"
        assert graph.nodes[av].inputs[1] == by_length

    def test_layouts_hold_only_engine_kinds_and_count_their_norms(
            self, tiny_config, attn_config):
        default = SearchSpaceConfig().validate()
        cases = [(g, tiny_config) for g in enumerate_space(tiny_config)]
        cases += [(random_genome(cfg, s), cfg) for cfg in (attn_config, default)
                  for s in range(50)]
        for genome, cfg in cases:
            graph = build_structure(genome, cfg)
            assert {n.kind for n in graph.nodes} <= ENGINE_KINDS
            conv = sum(p.size for _, _, p in graph.iter_params())
            assert count_graph_params(graph) == (
                conv + genome_norm_params(genome, cfg))

    def test_ibn_block_lays_out_no_norm_and_counts_it(self):
        # one IBN block, C_in = C_out = 16, expansion 4: norms after the
        # expansion, the depthwise conv and the projection
        cfg = SearchSpaceConfig(
            num_stages=1, blocks_per_stage=[1], attention_stages=set(),
            stem_channels=16, channel_domain=[[16]], kernel_domain=[3],
            expansion_domain=[4], ffn_types=["ibn"], input_resolution=16,
        ).validate()
        graph = build_structure(random_genome(cfg, 0), cfg)
        assert {n.kind for n in graph.nodes} <= ENGINE_KINDS
        assert graph.norm_params == 2 * (2 * 64 + 16)
        assert reinit(graph, 0).norm_params == graph.norm_params


class TestPrepare:
    def test_weights_abs_and_original_untouched(self):
        g = laid_out_graph(template_ibn, 4)
        g.nodes[0].params[0][0, 0, 0, 0] = -3.5
        p = prepare_for_scoring(g)
        assert [n.kind for n in p.nodes] == [n.kind for n in g.nodes]
        assert p.nodes[0].params[0][0, 0, 0, 0] == 3.5
        assert all((q >= 0).all() for _, _, q in p.iter_params())
        # original untouched
        assert g.nodes[0].params[0][0, 0, 0, 0] == -3.5

    def test_idempotent(self):
        for t in TEMPLATES:
            g = laid_out_graph(t, 9)
            p1 = prepare_for_scoring(g)
            p2 = prepare_for_scoring(p1)
            assert [n.kind for n in p1.nodes] == [n.kind for n in p2.nodes]
            for (_, _, a), (_, _, b) in zip(p1.iter_params(), p2.iter_params()):
                assert np.array_equal(a, b)

    def test_nonnegative_propagation(self, attn_config):
        for s in range(5):
            genome = random_genome(attn_config, s)
            graph = prepare_for_scoring(build_graph(genome, attn_config, seed=s))
            x = np.abs(rng.normal(0, 1, graph.input_shape))
            vals = netgraph._forward_all(graph, x)
            for v in vals:
                assert (v >= 0).all()


class TestHomogeneity:
    """Scaling one node's weights by c > 0 scales every tap downstream of it
    by exactly c, provided every path from that node to a tap stays inside
    bias-free conv/relu/add territory and the node feeds all branches."""

    def chain_graph(self, seed):
        r = np.random.default_rng(seed)
        c = int(r.integers(2, 5))
        b = _Builder((c, 4, 4))
        x = b.conv(INPUT, c, c, 3, bias=False)
        x = b.unary("relu", x)
        x = b.conv(x, c, 2 * c, 1, bias=False)
        x = b.unary("relu", x)
        x = b.conv(x, 2 * c, 2 * c, 3, groups=2 * c, bias=False)
        g = Graph(b.nodes, b.input_shape, x,
                  [i for i, n in enumerate(b.nodes) if n.kind == "relu"],
                  b.shapes)
        for i, n in enumerate(g.nodes):
            rand_params(n, seed * 131 + i)
        return prepare_for_scoring(g)

    def add_graph(self, seed):
        # Both branches of the add pass through node 0, so scaling node 0
        # still scales every tap uniformly.
        r = np.random.default_rng(seed)
        c = int(r.integers(2, 5))
        b = _Builder((c, 4, 4))
        y = b.conv(INPUT, c, c, 3, bias=False)
        ra = b.unary("relu", y)
        z = b.conv(ra, c, c, 1, bias=False)
        rb = b.unary("relu", z)
        s = b.emit("add", [ra, rb], None, b.shape(rb))
        out = b.unary("relu", s)
        g = Graph(b.nodes, b.input_shape, out,
                  [i for i, n in enumerate(b.nodes) if n.kind == "relu"],
                  b.shapes)
        for i, n in enumerate(g.nodes):
            rand_params(n, seed * 733 + i)
        return prepare_for_scoring(g)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_chain_scaling_one_node(self, c):
        for seed in range(10):
            g = self.chain_graph(seed)
            x = np.abs(rng.normal(0, 1, g.input_shape))
            _, taps0 = forward(g, x)
            conv_ids = [i for i, n in enumerate(g.nodes) if n.kind == "conv2d"]
            target = conv_ids[seed % len(conv_ids)]
            g2 = copy.deepcopy(g)
            g2.nodes[target].params = [p * c for p in g2.nodes[target].params]
            _, taps1 = forward(g2, x)
            for tid, t0, t1 in zip(g.activation_taps, taps0, taps1):
                if tid >= target:
                    assert np.allclose(t1, c * t0, rtol=1e-12, atol=0)
                else:
                    assert np.array_equal(t1, t0)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_add_graph_scaling_common_ancestor(self, c):
        for seed in range(10):
            g = self.add_graph(seed)
            x = np.abs(rng.normal(0, 1, g.input_shape))
            _, taps0 = forward(g, x)
            g2 = copy.deepcopy(g)
            g2.nodes[0].params = [p * c for p in g2.nodes[0].params]
            _, taps1 = forward(g2, x)
            for t0, t1 in zip(taps0, taps1):
                assert np.allclose(t1, c * t0, rtol=1e-12, atol=0)


class TestBackward:
    def test_single_linear_analytic(self):
        g = prepare_for_scoring(conv1x1_graph(np.array([[3.0, 4.0]])))
        out, _ = forward(g, np.ones(g.input_shape))
        assert out.shape == (1, 1, 1) and out[0, 0, 0] == 7.0
        _, grads = backward_param_grads(g)
        assert np.array_equal(grads[0], np.ones((1, 2, 1, 1)))

    def test_dead_relu_path_zero_grad(self):
        # second layer weight zero -> first layer output clipped... use a
        # negative-weight path killed by the relu instead
        b = _Builder((2, 1, 1))
        a1 = b.unary("relu", b.conv(INPUT, 2, 1, 1, bias=False))
        w2 = b.conv(a1, 1, 1, 1, bias=False)
        g = Graph(b.nodes, b.input_shape, w2, [a1], b.shapes)
        g.nodes[0].params = [np.array([[-1.0, -2.0]]).reshape(1, 2, 1, 1)]
        g.nodes[w2].params = [np.array([[5.0]]).reshape(1, 1, 1, 1)]
        _, grads = backward_param_grads(g)
        # upstream of the dead relu, and the relu output is zero
        assert np.array_equal(grads[0], np.zeros((1, 2, 1, 1)))
        assert np.array_equal(grads[1], np.zeros((1, 1, 1, 1)))

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_gradients_match_finite_differences(self, template):
        for seed in range(4):
            g = make_graph(template, seed)
            assert_grads_close(backward_param_grads(g)[1], fd_param_grads(g))

    @pytest.mark.parametrize("k,hw,bias", [
        (3, 4, True), (5, 5, False), (7, 3, True), (7, 2, False), (7, 1, True),
        (7, 9, True),  # two 5-column width tiles with a 6-column halo
    ])
    def test_pointwise_depthwise_gradients(self, k, hw, bias):
        # the 1x1 node comes first, so its weight gradient checks the
        # depthwise node's input gradient
        c = 3
        b = _Builder((2, hw, hw))
        x = b.conv(INPUT, 2, c, 1, bias=bias)
        x = b.conv(x, c, c, k, groups=c, bias=bias)
        g = Graph(b.nodes, b.input_shape, x, [], b.shapes)
        for i, node in enumerate(g.nodes):
            rand_params(node, 70 + i)
        assert_grads_close(backward_param_grads(g)[1], fd_param_grads(g))

    def test_value_an_add_shares_is_read_after_the_add(self):
        # both adds hand their one output gradient to each input, so q's
        # incoming gradient is the very array p's starts as; r's step then
        # adds into p's, which must leave q's as it was
        b = _Builder((2, 3, 3))
        p = b.conv(INPUT, 2, 2, 1)
        q = b.conv(INPUT, 2, 2, 1)
        r = b.conv(p, 2, 2, 1)
        s = b.emit("add", [p, q], None, b.shape(p))
        out = b.emit("add", [s, r], None, b.shape(p))
        g = Graph(b.nodes, b.input_shape, out, [], b.shapes)
        for i, node in enumerate(g.nodes):
            node.params = [np.random.default_rng(80 + i).uniform(0, 1, a.shape)
                           for a in node.params]
        assert_grads_close(backward_param_grads(g)[1], fd_param_grads(g))

    @staticmethod
    def genome_graph(attn_config):
        """The cheapest attn_config genome with an attention block, both FFN
        types and a channel-widening block (its residual pads), laid out
        with signed weights."""
        from esnas.archspace import ArchGenome
        genome = ArchGenome(stages=[
            [FfnGene("ibn", 8, 3, 2)],
            [AttnGene("convnext", 16, 2, 2, 4), FfnGene("convnext", 16, 3, 2)]],
            config_ref=attn_config.ref())
        return signed_graph(genome, attn_config, seed=0)

    def test_scoring_graph_gradients(self, attn_config):
        g = prepare_for_scoring(self.genome_graph(attn_config))
        assert {n.kind for n in g.nodes} == ENGINE_KINDS
        _, analytic = backward_param_grads(g)
        numeric = fd_param_grads(g)
        assert_grads_close(analytic, numeric)

    def test_signed_genome_gradients(self, attn_config):
        # prepared, every ReLU input is positive under the all-ones input;
        # signed weights put ReLU inputs on both sides of zero, so that a
        # ReLU backward that ignores its input's sign fails
        g = self.genome_graph(attn_config)
        vals = netgraph._forward_all(g, np.ones(g.input_shape))
        assert any((vals[n.inputs[0]] < 0).any()
                   for n in g.nodes if n.kind == "relu")
        assert_grads_close(backward_param_grads(g)[1], fd_param_grads(g))


class TestReinit:
    def test_deterministic_and_bounded(self, tiny_config):
        genome = random_genome(tiny_config, 0)
        graph = build_graph(genome, tiny_config, seed=0)
        g1, g2 = reinit(graph, 42), reinit(graph, 42)
        for (_, _, a), (_, _, b) in zip(g1.iter_params(), g2.iter_params()):
            assert np.array_equal(a, b)
        for nid, _, p in g1.iter_params():
            node = g1.nodes[nid]
            if node.kind == "conv2d":
                assert np.max(np.abs(p)) <= 1.0 / node.attrs["fan_in"]

    def test_different_seed_differs(self, tiny_config):
        genome = random_genome(tiny_config, 0)
        graph = build_graph(genome, tiny_config, seed=0)
        g1, g2 = reinit(graph, 1), reinit(graph, 2)
        assert any(not np.array_equal(a, b) for (_, _, a), (_, _, b)
                   in zip(g1.iter_params(), g2.iter_params()))

    @pytest.mark.parametrize("bound", [1.0, 1 / 3, 1 / 27, 1 / 1152, 0.7, 1e-300])
    def test_uniform_draw_matches_numpy(self, bound):
        for shape in [(), (1,), (7,), (5, 3), (4, 1, 3, 3), (96, 1, 7, 7)]:
            r1, r2 = np.random.default_rng(99), np.random.default_rng(99)
            a = netgraph._uniform(r1, bound, shape)
            b = r2.uniform(-bound, bound, shape)
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert r1.bit_generator.state == r2.bit_generator.state

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(genome_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**64 - 1))
    def test_seeded_forward_runs_the_redraw(self, attn_config, genome_seed,
                                            seed):
        """``forward(g, x, tap=t, seed=s)`` is ``forward(reinit(g, s), x,
        tap=t)`` bit for bit, output and every tap, on a layout as built,
        whose draws are absolute; ``g`` is left as it was."""
        genome = random_genome(attn_config, genome_seed)
        assume(any(isinstance(g, AttnGene) for _, _, g in genome.blocks()))
        graph = build_structure(genome, attn_config)
        x = np.random.default_rng(seed).uniform(-1, 1, graph.input_shape)

        def tap(t):
            return t.tobytes()

        out, taps = forward(graph, x, tap=tap, seed=seed)
        redraw = reinit(graph, seed)
        want_out, want_taps = forward(redraw, x, tap=tap)
        assert out.tobytes() == want_out.tobytes()
        assert taps == want_taps and len(taps) == len(graph.activation_taps)
        assert all(p.strides == (0,) * p.ndim
                   for _, _, p in graph.iter_params())
        assert all((p >= 0).all() for _, _, p in redraw.iter_params())

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(genome_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**64 - 1))
    def test_commutes_with_prepare(self, attn_config, genome_seed, seed):
        """The engine's draws are the signed draws, prepared:
        ``prepare_for_scoring(signed_graph(g, c, s))`` equals
        ``build_graph(g, c, s)`` array for array."""
        genome = random_genome(attn_config, genome_seed)
        a = prepare_for_scoring(signed_graph(genome, attn_config, seed))
        b = build_graph(genome, attn_config, seed)
        assert [n.kind for n in a.nodes] == [n.kind for n in b.nodes]
        assert [n.attrs for n in a.nodes] == [n.attrs for n in b.nodes]
        assert a.activation_taps == b.activation_taps
        pa, pb = list(a.iter_params()), list(b.iter_params())
        assert len(pa) == len(pb)
        for (na, ia, x), (nb, ib, y) in zip(pa, pb):
            assert (na, ia) == (nb, ib)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def filled(graph):
    """A copy of the graph whose parameters are writable arrays holding the
    same values: a deep copy writes each read-only view out in full."""
    return copy.deepcopy(graph)


class TestWeightFreeStructure:
    """build_structure lays a genome out without parameter memory: every
    parameter is a read-only zero-stride view of one shared zero."""

    def test_parameters_are_read_only_views_of_shared_constants(
            self, attn_config):
        structure = build_structure(random_genome(attn_config, 3), attn_config)
        for _, _, p in structure.iter_params():
            assert p.strides == (0,) * p.ndim
            assert np.shares_memory(p, netgraph._ZERO)
            assert np.all(p == 0.0)
            assert not p.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p[(0,) * p.ndim] = 1.0
        # drawn weights are fresh arrays
        drawn = reinit(structure, 0)
        assert all(p.flags.writeable and p.flags.c_contiguous
                   for _, _, p in drawn.iter_params())

    def test_reads_as_filled_arrays_do(self, attn_config):
        """Counts, the layout, and forward and backward passes of the
        structure's rewrite equal those of filled arrays."""
        def layout(graph):
            return graph.out_shapes, [
                (n.kind, n.inputs, n.attrs, [p.shape for p in n.params])
                for n in graph.nodes]

        for seed in range(3):
            structure = build_structure(random_genome(attn_config, seed),
                                        attn_config)
            full = filled(structure)
            assert layout(structure) == layout(full)
            assert count_graph_params(structure) == count_graph_params(full)
            x = rng.uniform(-1, 1, structure.input_shape)
            a, b = prepare_for_scoring(structure), prepare_for_scoring(full)
            (out_a, taps_a), (out_b, taps_b) = forward(a, x), forward(b, x)
            assert np.array_equal(out_a, out_b)
            assert all(map(np.array_equal, taps_a, taps_b))
            (out_a, ga), (out_b, gb) = (backward_param_grads(a),
                                        backward_param_grads(b))
            assert np.array_equal(out_a, out_b)
            assert all(map(np.array_equal, ga, gb))

    def test_layout_allocates_no_parameter_array(self):
        space = SearchSpaceConfig(input_resolution=224).validate()
        genome = random_genome(space, 0)
        tracemalloc.start()
        try:
            structure = build_structure(genome, space)
            layout_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 14.4 MB of parameters; the layout takes ~0.1-0.2 MB
        param_bytes = 8 * count_graph_params(structure)
        assert layout_peak < param_bytes / 20
