"""Executable computational graphs with a minimal dense-tensor engine.

Graphs are flat topologically-ordered node lists over float64 numpy arrays
(batch dimension fixed to 1; feature maps are (C, H, W)).  A genome is laid
out as the network the proxies score: normalisation suppressed (a norm adds
its parameter count and no node), ReLU where the block has GELU, a
row-sum-preserving scale where attention has softmax, and weights only ever
drawn absolute.  The engine runs its seven kinds, evaluating the forward
with activation taps (the ReLU nodes), and reverse-mode gradients of the
output sum with respect to every parameter.

Convolution kernels, forward and backward, one for each conv a genome lays
out: a stride-1 depthwise conv is k batched matmuls over channels, each
multiplying the rows of overlapping width tiles (at most 8 output columns)
of the padded input by one small banded matrix built from a kernel row, its
input gradient being that forward on the output gradient with the kernel
flipped; a stride-1 1x1 conv is one matmul; any other dense conv (the
strided 3x3 stem and downsamplers) is one matmul of the weights and the
im2col window columns.  Any other conv, grouped or strided depthwise, raises
ValueError.

The forward streams and writes nothing into its graph: it hands each
activation tap to the caller's ``tap`` function as the tap is produced and
drops every value after its last consumer; given a seed, as an entropic
repeat is, it draws each conv's weights as it reaches the conv, the draws
``reinit`` makes, and drops them once the conv has run.  Log-SynFlow
redraws the layout with ``reinit``, as its backward needs every weight at
once; the redraw shares every other node with the layout.  The backward
drops each node's value and incoming gradient once that node's step has
run, and hands each parameter gradient to ``reduce`` as soon as it exists.
``one_blas_thread`` sets OpenBLAS to one thread for the rest of the
process.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .archspace import (
    FFN_CONVNEXT,
    FFN_IBN,
    AttnGene,
    InvalidGenomeError,
    validate,
)

INPUT = -1  # pseudo node id for the graph input


class GraphShapeError(RuntimeError):
    """Shape mismatch while evaluating a node; names the node and both shapes."""


@dataclass
class OpNode:
    kind: str
    inputs: list[int]
    params: list[np.ndarray] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)


@dataclass
class Graph:
    """A laid-out network, used as a value: only ``build_structure``, and
    tests on the graphs they build, write into one.  Other weights make a
    new graph with ``replace``, sharing every node, list and array it keeps."""

    nodes: list[OpNode]
    input_shape: tuple
    output_id: int
    activation_taps: list[int]
    out_shapes: list[tuple]
    norm_params: int = 0  # counted for the norms, which lay out no node

    def iter_params(self):
        """Yield (node_id, param_index, array) over all parameter tensors."""
        for nid, node in enumerate(self.nodes):
            for pi, p in enumerate(node.params):
                yield nid, pi, p


# ---------------------------------------------------------------------------
# convolution helpers

def _conv_out_hw(h, w, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def _zero_pad(x, pads):
    """``x`` zero-padded by ``pads``, one (before, after) pair per axis: what
    ``np.pad`` does, without its per-call overhead."""
    out = np.zeros(tuple(n + a + b for n, (a, b) in zip(x.shape, pads)))
    out[tuple(slice(a, a + n) for n, (a, _) in zip(x.shape, pads))] = x
    return out


def _pad_hw(x, pad):
    return _zero_pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x


def _im2col(x, k, stride, pad):
    """The window columns of the padded input, (C*k*k, Ho*Wo), and Ho, Wo."""
    c, h, w = x.shape
    xp = _pad_hw(x, pad)
    ho, wo = _conv_out_hw(h, w, k, stride, pad)
    sc, sh, sw = xp.strides
    # win: (C, Ho, Wo, k, k), a read-only view of the padded input
    win = as_strided(xp, (c, ho, wo, k, k),
                     (sc, sh * stride, sw * stride, sh, sw), writeable=False)
    return win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, ho * wo), ho, wo


def _col2im(gcols, c, h, w, k, stride, pad):
    # gcols: (C, k, k, Ho, Wo) -> gradient w.r.t. the unpadded input
    ho, wo = _conv_out_hw(h, w, k, stride, pad)
    gxp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            gxp[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += gcols[:, i, j]
    return gxp[:, pad:pad + h, pad:pad + w] if pad else gxp


def _band_positions(k, width_out):
    """Flat positions (k, width_out) in a (width_out + k - 1, width_out)
    band: kernel column jj meets output column j at (j + jj, j)."""
    j = np.arange(width_out)
    return (np.arange(k)[:, None] + j) * width_out + j


def _depthwise_band(w, width_in, width_out):
    """Banded row matrices of a stride-1 depthwise kernel ``w`` (C, k, k).

    ``band[c, i]`` is the (width_in, width_out) matrix with
    ``band[c, i, j + jj, j] = w[c, i, jj]``, so a padded input row times it
    is kernel row i's contribution to an output row.
    """
    c, k, _ = w.shape
    band = np.zeros((c, k, width_in * width_out))
    band[:, :, _band_positions(k, width_out)] = w[:, :, :, None]
    return band.reshape(c, k, width_in, width_out)


_TILE = 8  # most output columns per depthwise width tile


def _width_tiles(x, pad, k):
    """The padded input cut into nt overlapping width tiles, (C, Hp, nt,
    t+k-1), each feeding t output columns, and t: wo split evenly into
    tiles of at most _TILE columns, the last one zero-padded.  One tile is
    the padded input itself."""
    c, h, w = x.shape
    wo = w + 2 * pad - k + 1
    nt = -(-wo // _TILE)
    t = -(-wo // nt)
    xp = _zero_pad(x, ((0, 0), (pad, pad), (pad, pad + nt * t - wo)))
    sc, sh, sw = xp.strides
    tiles = as_strided(xp, (c, h + 2 * pad, nt, t + k - 1),
                       (sc, sh, t * sw, sw))
    return (tiles.copy() if nt > 1 else tiles), t


def _depthwise_forward(x, w, pad):
    # per kernel row, one batched (Ho*nt, t+k-1) @ (t+k-1, t) matmul over
    # channels; every tile shares the row's band
    c, k, _ = w.shape
    xt, t = _width_tiles(x, pad, k)
    nt, tk = xt.shape[2:]
    ho, wo = xt.shape[1] - k + 1, x.shape[2] + 2 * pad - k + 1
    band = _depthwise_band(w, tk, t)
    out = xt[:, :ho].reshape(c, -1, tk) @ band[:, 0]
    for i in range(1, k):
        out += xt[:, i:i + ho].reshape(c, -1, tk) @ band[:, i]
    return out.reshape(c, ho, nt * t)[:, :, :wo]


def _depthwise_backward(x, w, pad, gout):
    # gx is the forward on gout with the kernel flipped, at padding k-1-pad
    # (pad itself, k being odd); gw[:, i] from the band diagonals of the
    # tiles' correlation with gout
    c, k, _ = w.shape
    xt, t = _width_tiles(x, pad, k)
    nt, tk = xt.shape[2:]
    ho, wo = gout.shape[1:]
    idx = _band_positions(k, t)
    gt = (_zero_pad(gout, ((0, 0), (0, 0), (0, nt * t - wo)))
          if nt * t > wo else gout).reshape(c, -1, t)
    gw = np.empty_like(w)
    for i in range(k):
        corr = xt[:, i:i + ho].reshape(c, -1, tk).transpose(0, 2, 1) @ gt
        gw[:, i] = corr.reshape(c, -1)[:, idx].sum(axis=-1)
    return _depthwise_forward(gout, w[:, ::-1, ::-1], k - 1 - pad), gw


def _conv_path(node, cin):
    """The kernel a conv node takes: "depthwise" (banded matmuls, stride 1
    and one group per input and output channel), "pointwise" (one direct
    matmul, a stride-1 dense 1x1) or "im2col" (any other dense conv).  Any
    other conv raises ValueError."""
    a = node.attrs
    groups, stride, cout = a["groups"], a["stride"], node.params[0].shape[0]
    if stride == 1 and groups == cin == cout:
        return "depthwise"
    if groups == 1:
        return "pointwise" if stride == 1 and a["kernel"] == 1 else "im2col"
    raise ValueError(f"no conv kernel for {groups} groups over {cin} input "
                     f"and {cout} output channels at stride {stride}")


def _conv2d_forward(x, node):
    a = node.attrs
    w = node.params[0]
    cout = w.shape[0]
    cin = x.shape[0]
    path = _conv_path(node, cin)
    if path == "depthwise":
        out = _depthwise_forward(x, w[:, 0], a["padding"])
    elif path == "pointwise":
        out = (w.reshape(cout, cin) @ x.reshape(cin, -1)).reshape(
            (cout,) + x.shape[1:])
    else:
        cols, ho, wo = _im2col(x, a["kernel"], a["stride"], a["padding"])
        out = (w.reshape(cout, -1) @ cols).reshape(cout, ho, wo)
    if a["bias"]:
        out += node.params[1][:, None, None]
    return out


def _conv2d_backward(x, node, gout):
    a = node.attrs
    k, stride, pad = a["kernel"], a["stride"], a["padding"]
    w = node.params[0]
    cout = w.shape[0]
    cin = x.shape[0]
    path = _conv_path(node, cin)
    if path == "depthwise":
        gx, gw = _depthwise_backward(x, w[:, 0], pad, gout)
        gw = gw[:, None]
    elif path == "pointwise":
        gflat = gout.reshape(cout, -1)
        gw = (gflat @ x.reshape(cin, -1).T).reshape(w.shape)
        gx = (w.reshape(cout, cin).T @ gflat).reshape(x.shape)
    else:
        cols, ho, wo = _im2col(x, k, stride, pad)
        gflat = gout.reshape(cout, -1)
        gw = (gflat @ cols.T).reshape(w.shape)
        gcols = (w.reshape(cout, -1).T @ gflat).reshape(cin, k, k, ho, wo)
        gx = _col2im(gcols, cin, x.shape[1], x.shape[2], k, stride, pad)
    pgrads = [gw]
    if a["bias"]:
        pgrads.append(gout.sum(axis=(1, 2)))
    return [gx], pgrads


# ---------------------------------------------------------------------------
# node forward / backward

def _matmul_operands(a, b, attrs):
    if attrs.get("transpose_a"):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("transpose_b"):
        b = np.swapaxes(b, -1, -2)
    return a, b


def _node_forward(node, ins):
    kind = node.kind
    if kind == "conv2d":
        return _conv2d_forward(ins[0], node)
    if kind == "relu":
        return np.maximum(ins[0], 0.0)
    if kind == "matmul":
        a, b = _matmul_operands(ins[0], ins[1], node.attrs)
        return a @ b
    if kind == "scale":
        return ins[0] * node.attrs["factor"]
    if kind == "add":
        if ins[0].shape != ins[1].shape:
            raise GraphShapeError(
                f"add inputs disagree: {ins[0].shape} vs {ins[1].shape}")
        return ins[0] + ins[1]
    if kind == "zeropad":
        c_from, c_to = node.attrs["from"], node.attrs["to"]
        pad = [(0, c_to - c_from)] + [(0, 0)] * (ins[0].ndim - 1)
        return _zero_pad(ins[0], pad)
    if kind == "reshape":
        return ins[0].reshape(node.attrs["shape"])
    raise ValueError(f"no kernel for node kind {kind!r}")


def _node_backward(node, ins, gout):
    """Return ([grad wrt each input], [grad wrt each param])."""
    kind = node.kind
    if kind == "conv2d":
        return _conv2d_backward(ins[0], node, gout)
    if kind == "relu":
        return [gout * (ins[0] > 0)], []
    if kind == "matmul":
        a, b = _matmul_operands(ins[0], ins[1], node.attrs)
        ga = gout @ np.swapaxes(b, -1, -2)
        gb = np.swapaxes(a, -1, -2) @ gout
        if node.attrs.get("transpose_a"):
            ga = np.swapaxes(ga, -1, -2)
        if node.attrs.get("transpose_b"):
            gb = np.swapaxes(gb, -1, -2)
        return [ga, gb], []
    if kind == "scale":
        return [gout * node.attrs["factor"]], []
    if kind == "add":
        return [gout, gout], []
    if kind == "zeropad":
        return [gout[:node.attrs["from"]]], []
    if kind == "reshape":
        return [gout.reshape(ins[0].shape)], []
    raise ValueError(f"no kernel for node kind {kind!r}")


# ---------------------------------------------------------------------------
# graph evaluation

def _last_uses(graph):
    """Per node, the values whose last consumer it is (a value no node reads
    is listed at its own node; the output never is)."""
    last = {i: nid for nid, n in enumerate(graph.nodes) for i in n.inputs}
    uses = [[] for _ in graph.nodes]
    for i in range(len(graph.nodes)):
        if i != graph.output_id:
            uses[last.get(i, i)].append(i)
    return uses


def _forward_all(graph, x, take=None, rng=None):
    """Every node's value, in node order.  With ``take``, ``take(nid, value)``
    gets each activation tap as it is produced, and every value but the
    output is dropped (left None) after its last consumer has run.  With
    ``rng``, each conv node runs on weights ``_draw`` takes from it as the
    pass reaches the node, dropped at the next node."""
    if tuple(x.shape) != tuple(graph.input_shape):
        raise GraphShapeError(
            f"input shape {tuple(x.shape)} does not match graph input "
            f"{tuple(graph.input_shape)}")
    vals = [None] * len(graph.nodes)
    if take is not None:
        last_uses = _last_uses(graph)
        taps = set(graph.activation_taps)
    for nid, node in enumerate(graph.nodes):
        if rng is not None and node.kind == "conv2d":
            node = OpNode(node.kind, node.inputs, _draw(node, rng), node.attrs)
        ins = [x if i == INPUT else vals[i] for i in node.inputs]
        try:
            vals[nid] = _node_forward(node, ins)
        except GraphShapeError as e:
            raise GraphShapeError(f"node {nid} ({node.kind}): {e}") from None
        expect = graph.out_shapes[nid]
        if tuple(vals[nid].shape) != tuple(expect):
            raise GraphShapeError(
                f"node {nid} ({node.kind}): produced {vals[nid].shape}, "
                f"expected {tuple(expect)}")
        if take is not None:
            if nid in taps:
                take(nid, vals[nid])
            for i in last_uses[nid]:
                vals[i] = None
    return vals


def forward(graph, x, tap=None, seed=None):
    """Evaluate the graph; return (output, [tap tensors in network order]),
    or ``tap(tensor)`` of each tap, taken as the tap is produced.

    With ``seed``, the pass runs ``reinit(graph, seed)`` bit for bit without
    building it: each conv node's weights are drawn as the pass reaches the
    node and dropped once it has run, so the pass holds one conv's weights
    beside its live activations.  Nothing is written into the graph."""
    kept = {}

    def take(nid, value):
        kept[nid] = value if tap is None else tap(value)

    vals = _forward_all(graph, x, take,
                        None if seed is None else np.random.default_rng(seed))
    return vals[graph.output_id], [kept[t] for t in graph.activation_taps]


def backward_param_grads(graph, reduce=None):
    """Gradients of R = sum(output) under an all-ones input, per parameter.

    Returns ``(output, grads)``: the graph output under that input, from the
    same forward pass, and a list aligned with graph.iter_params() of the
    gradient arrays, or of ``reduce(param, grad)`` of each.  ``reduce`` runs
    as soon as a gradient exists, and may overwrite it.
    """
    x = np.ones(graph.input_shape)
    vals = _forward_all(graph, x)
    out = vals[graph.output_id]
    node_grads = [None] * len(graph.nodes)
    node_grads[graph.output_id] = np.ones(graph.out_shapes[graph.output_id])
    pgrads = [None] * len(graph.nodes)
    for nid in range(len(graph.nodes) - 1, -1, -1):
        g, node_grads[nid] = node_grads[nid], None
        node = graph.nodes[nid]
        if g is None:
            # node does not feed the output
            pg = [np.zeros_like(p) for p in node.params]
        else:
            ins = [x if i == INPUT else vals[i] for i in node.inputs]
            igrads, pg = _node_backward(node, ins, g)
            for src, ig in zip(node.inputs, igrads):
                if src != INPUT:
                    node_grads[src] = (ig if node_grads[src] is None
                                       else node_grads[src] + ig)
            del ins, igrads
        # every consumer of this value has run its step before this one
        vals[nid] = g = None
        pgrads[nid] = pg if reduce is None else [
            reduce(p, q) for p, q in zip(node.params, pg)]
    return out, [q for pg in pgrads for q in pg]


def prepare_for_scoring(graph):
    """A new graph with every parameter made absolute.  Scoring never calls
    it, as its layouts and redraws are absolute already; it goes once the
    benchmark harness (``perfbench``) stops naming it."""
    return replace(graph, nodes=[replace(n, params=[np.abs(p) for p in n.params])
                                 for n in graph.nodes])


def _uniform(rng, bound, shape):
    """``rng.uniform(-bound, bound, shape)`` bit for bit, and the same draws:
    numpy computes ``low + (high - low) * u`` from the same doubles ``u``."""
    u = rng.random(shape)
    u *= 2.0 * bound
    u -= bound
    return u


def _draw(node, rng):
    """A conv node's weight, then its bias, drawn as |U(-1/fan_in,
    +1/fan_in)|: the draws of ``reinit`` and of a seeded ``forward`` alike."""
    bound = 1.0 / node.attrs["fan_in"]
    params = [_uniform(rng, bound, p.shape) for p in node.params]
    for p in params:
        np.abs(p, out=p)
    return params


def reinit(graph, seed):
    """A new graph with all weights redrawn as |U(-1/fan_in, +1/fan_in)|.

    Conv nodes draw in node order (``_draw``), and nothing else draws: the
    suppressed norms have no node and no parameter array.  A pass that needs
    the weights only once runs ``forward(graph, x, seed=seed)`` instead.

    The reciprocal (rather than root-reciprocal) fan-in scaling damps the
    absolute-weight scoring forward pass: the expected gain of a redrawn
    conv node is 1/2, so residual blocks hover near unit magnitude.  It does
    not bound it: an attention block about cubes activations that pass ~1,
    so a deep, wide candidate with many attention blocks can overflow
    float64, and scoring it raises ``FloatingPointError``.
    """
    rng = np.random.default_rng(seed)
    return replace(graph, nodes=[replace(n, params=_draw(n, rng))
                                 if n.kind == "conv2d" else n for n in graph.nodes])


# ---------------------------------------------------------------------------
# OpenBLAS threads

_blas_controls = None  # (set, get) pairs, looked up on the first call


def _find_blas_controls():
    """(set, get) thread-count functions of each loaded OpenBLAS library (the
    builds numpy and scipy bundle, or a system one), found through the
    process's mapped files; empty where there is none or no /proc."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return []
    controls = []
    for lib in map(ctypes.CDLL, paths):
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("set")):
                setter, getter = (getattr(lib, name.format(verb))
                                  for verb in ("set", "get"))
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


def _keep_freed_memory():
    """Have glibc keep freed memory, so that each scoring pass reuses the
    last one's pages instead of faulting in fresh ones: blocks up to 32 MiB
    (its most) come from the heap, which is trimmed only once 256 MiB lie
    free at its top.  Both are set, as setting either stops glibc tuning
    the other.  Process-wide and inherited by forks; returns whether libc
    has ``mallopt`` and took both values."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD is -1, M_MMAP_THRESHOLD -3
    return [mallopt(-1, 256 << 20), mallopt(-3, 32 << 20)] == [1, 1]


def one_blas_thread():
    """Set every loaded OpenBLAS library to one thread for good; a no-op
    without OpenBLAS.  A helper or pool forked afterwards inherits it.
    A library already at one thread is not called: after a fork, a call
    that sets the count restarts OpenBLAS's thread pool, which spins for
    ~0.1 s of CPU.  The first call in a process looks OpenBLAS up and has
    the process keep freed memory (``_keep_freed_memory``).  No lock: both
    settings are process-wide and idempotent, so threads racing on the
    first call only look OpenBLAS up twice."""
    global _blas_controls
    if _blas_controls is None:
        _blas_controls = _find_blas_controls()
        _keep_freed_memory()
    for setter, getter in _blas_controls:
        if getter() != 1:
            setter(1)


# ---------------------------------------------------------------------------
# graph construction from a genome

# Every structure parameter is a read-only zero-stride view of this.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class _Builder:
    def __init__(self, input_shape):
        self.nodes = []
        self.shapes = []
        self.input_shape = tuple(input_shape)
        self.norm_params = 0

    def shape(self, nid):
        return self.input_shape if nid == INPUT else self.shapes[nid]

    def emit(self, kind, inputs, params=None, out_shape=None, **attrs):
        self.nodes.append(OpNode(kind, list(inputs), params or [], attrs))
        self.shapes.append(tuple(out_shape))
        return len(self.nodes) - 1

    def conv(self, src, cin, cout, k, stride=1, groups=1, bias=True):
        pad = k // 2
        _, h, w = self.shape(src)
        ho, wo = _conv_out_hw(h, w, k, stride, pad)
        params = [np.broadcast_to(_ZERO, (cout, cin // groups, k, k))]
        if bias:
            params.append(np.broadcast_to(_ZERO, (cout,)))
        return self.emit("conv2d", [src], params, (cout, ho, wo),
                         in_ch=cin, out_ch=cout, kernel=k, stride=stride,
                         groups=groups, padding=pad, bias=bias,
                         fan_in=(cin // groups) * k * k)

    def unary(self, kind, src, **attrs):
        return self.emit(kind, [src], None, self.shape(src), **attrs)

    def norm(self, src, ch):
        """A suppressed norm: its scale and shift are counted, and ``src``
        passes on unchanged."""
        self.norm_params += 2 * ch
        return src


def _residual(b, block_in, block_out, cin, cout):
    if cout > cin:
        pad = b.emit("zeropad", [block_in], None,
                     (cout,) + b.shape(block_in)[1:], **{"from": cin, "to": cout})
        return b.emit("add", [pad, block_out], None, b.shape(block_out))
    return b.emit("add", [block_in, block_out], None, b.shape(block_out))


def _append_ffn(b, src, cin, gene_ffn_type, cout, kernel, expansion):
    hid = expansion * cin
    if gene_ffn_type == FFN_IBN:
        x = b.conv(src, cin, hid, 1)
        x = b.norm(x, hid)
        x = b.unary("relu", x)
        x = b.conv(x, hid, hid, kernel, groups=hid)
        x = b.norm(x, hid)
        x = b.unary("relu", x)
        x = b.conv(x, hid, cout, 1)
        x = b.norm(x, cout)
    elif gene_ffn_type == FFN_CONVNEXT:
        x = b.conv(src, cin, cin, kernel, groups=cin)
        x = b.norm(x, cin)
        x = b.conv(x, cin, hid, 1)
        x = b.unary("relu", x)
        x = b.conv(x, hid, cout, 1)
    else:
        raise ValueError(f"unknown ffn type {gene_ffn_type!r}")
    return _residual(b, src, x, cin, cout)


def _append_mhsa(b, src, cin, heads, head_dim):
    hd = heads * head_dim
    _, hs, ws = b.shape(src)
    length = hs * ws
    q = b.conv(src, cin, hd, 1)
    k = b.conv(src, cin, hd, 1)
    v = b.conv(src, cin, hd, 1)
    q = b.emit("reshape", [q], None, (heads, head_dim, length),
               shape=(heads, head_dim, length))
    k = b.emit("reshape", [k], None, (heads, head_dim, length),
               shape=(heads, head_dim, length))
    v = b.emit("reshape", [v], None, (heads, head_dim, length),
               shape=(heads, head_dim, length))
    scores = b.emit("matmul", [q, k], None, (heads, length, length),
                    transpose_a=True, transpose_b=False)
    scores = b.emit("scale", [scores], None, (heads, length, length),
                    factor=1.0 / math.sqrt(head_dim))
    attn = b.emit("scale", [scores], None, (heads, length, length),
                  factor=1.0 / length)
    ctx = b.emit("matmul", [v, attn], None, (heads, head_dim, length),
                 transpose_a=False, transpose_b=True)
    ctx = b.emit("reshape", [ctx], None, (hd, hs, ws), shape=(hd, hs, ws))
    proj = b.conv(ctx, hd, cin, 1)
    return b.emit("add", [src, proj], None, b.shape(src))


def build_structure(genome, config):
    """Validate a genome and lay out its scoring network without drawing
    weights.

    Each norm adds its 2*C parameters to ``norm_params`` and no node;
    ConvNeXt's GELU is a ReLU, and attention's softmax is a scale by
    1/L, which keeps the row sums of the non-negative scores.  Conv weights
    and biases are read-only zero-stride views of one shared zero, so every
    node, shape and parameter count is final, no random number is drawn
    and no parameter memory is allocated: parameter and MAC counts are
    taken from this.  ``reinit`` and a seeded ``forward`` draw its weights.
    """
    violations = validate(genome, config)
    if violations:
        raise InvalidGenomeError(violations)
    b = _Builder((config.input_channels, config.input_resolution,
                  config.input_resolution))
    # Fixed stem: two strided 3x3 convolutions (4x spatial reduction).
    stem_mid = max(1, config.stem_channels // 2)
    x = b.conv(INPUT, config.input_channels, stem_mid, 3, stride=2)
    x = b.conv(x, stem_mid, config.stem_channels, 3, stride=2)
    cur = config.stem_channels
    for si, stage in enumerate(genome.stages):
        if si > 0:
            # Fixed downsampler: strided 3x3 convolution, channel-preserving.
            x = b.conv(x, cur, cur, 3, stride=2)
        for gene in stage:
            if isinstance(gene, AttnGene):
                x = _append_mhsa(b, x, cur, gene.num_heads, gene.head_dim)
                x = _append_ffn(b, x, cur, gene.ffn_type, gene.out_channels,
                                3, gene.expansion_ratio)
            else:
                x = _append_ffn(b, x, cur, gene.ffn_type, gene.out_channels,
                                gene.kernel_size, gene.expansion_ratio)
            cur = gene.out_channels
    taps = [i for i, n in enumerate(b.nodes) if n.kind == "relu"]
    return Graph(nodes=b.nodes, input_shape=b.input_shape, output_id=x,
                 activation_taps=taps, out_shapes=b.shapes,
                 norm_params=b.norm_params)


def build_graph(genome, config, seed):
    """A genome's layout with seeded weights, ``reinit`` of
    ``build_structure``.  Scoring never calls it; it goes once the
    benchmark harness (``perfbench``) stops naming it."""
    return reinit(build_structure(genome, config), seed)


# ---------------------------------------------------------------------------
# analytic counting

def count_graph_params(graph):
    return graph.norm_params + sum(p.size for _, _, p in graph.iter_params())


def count_graph_macs(graph):
    total = 0
    for nid, node in enumerate(graph.nodes):
        shape = graph.out_shapes[nid]
        if node.kind == "conv2d":
            a = node.attrs
            total += (a["kernel"] ** 2 * (a["in_ch"] // a["groups"])
                      * a["out_ch"] * shape[1] * shape[2])
        elif node.kind == "matmul":
            a_shape = graph.out_shapes[node.inputs[0]] \
                if node.inputs[0] != INPUT else graph.input_shape
            inner = a_shape[-2] if node.attrs.get("transpose_a") else a_shape[-1]
            batch = 1
            for d in shape[:-2]:
                batch *= d
            total += batch * shape[-2] * shape[-1] * inner
    return int(total)
