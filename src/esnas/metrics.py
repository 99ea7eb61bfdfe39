"""Training-free proxies: activation-entropy expressivity and log-damped gradient flow.

An entropic forward draws each conv's weights as it reaches the conv,
takes each tap's entropy as the tap is produced and frees each activation
after its last use; log-SynFlow redraws the genome's layout, and its
backward frees values and gradients behind it and reduces each parameter
gradient to its term at once.  ``score_genome`` sets OpenBLAS to one thread
for good, and runs a large candidate's log-SynFlow pass in a persistent
forked helper process beside its entropic repeats; a helper that cannot be
started, sent to or read from is stopped and the calling thread runs the pass.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import signal
import threading
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import archspace, netgraph
from .archspace import bounded, genome_hash


@dataclass
class EntropicConfig(archspace.ConfigSection):
    epsilon: float = bounded(1e-8, above=0)
    repeats: int = bounded(3, least=1)
    input_low: float = -0.5
    input_high: float = 0.5
    norm_axis: str = bounded("across_channels",
                             choices=("across_channels", "per_channel"))

    section = "entropic"

    def validate(self):
        super().validate()
        # rng.uniform overflows on a span that is not finite
        if not (self.input_low < self.input_high
                and math.isfinite(self.input_high - self.input_low)):
            raise archspace.ConfigError(
                f"input_low must be below input_high by a finite span, "
                f"got {self.input_low!r} and {self.input_high!r}")
        return self


# The proxies score_genome can compute, in the order it runs them.
PROXIES = ("entropic", "logsynflow")


@dataclass
class ScoreReport:
    entropic: float | None  # None: the proxy was not computed
    entropic_per_repeat: list[float] | None
    logsynflow: float | None
    params: int
    macs: int
    seeds: list[int]

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


def normalize_activations(tap, cfg):
    """Divide a non-negative tap by its reduction-group maximum (axis 0 = channels).

    Groups whose maximum is zero stay zero; the result lies in [0, 1].
    """
    tap = np.asarray(tap, dtype=float)
    if cfg.norm_axis == "across_channels":
        m = tap.max(axis=0, keepdims=True)
    else:
        m = tap.max(axis=tuple(range(1, tap.ndim)), keepdims=True)
    if np.all(m > 0):
        return tap / m
    return np.divide(tap, m, out=np.zeros_like(tap), where=m > 0)


def layer_entropy(normalized, epsilon):
    """Mean of -a*ln(a+eps) over all elements (eps > 0), clamped to be
    non-negative."""
    a = np.asarray(normalized, dtype=float)
    # -mean(a*ln(a+eps)) in one buffer; negating the mean negates the sum
    t = a + epsilon
    np.log(t, out=t)
    t *= a
    return max(-float(np.mean(t)), 0.0)


# a pass's finiteness checks are its one failure rule, which numpy need not echo
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet
def entropic_score(graph, cfg, seeds):
    """``(score, per_repeat)``: the summed per-tap entropy of a scoring pass,
    averaged over repeats, and each repeat's sum.

    Each repeat re-initialises the weights and redraws the input from its own
    seed; a repeat whose entropy sum is not finite raises FloatingPointError.
    Each repeat's forward draws each conv's weights as it reaches the conv,
    the absolute draws ``reinit`` of the graph makes, so only the graph's
    layout is read, and no repeat builds a redrawn graph.
    """
    cfg.validate()
    if len(seeds) != cfg.repeats:
        raise ValueError(f"expected {cfg.repeats} seeds, got {len(seeds)}")

    def entropy(tap):
        return layer_entropy(normalize_activations(tap, cfg), cfg.epsilon)

    per_repeat = []
    for r, seed in enumerate(seeds):
        wseed, xseed = np.random.SeedSequence(seed).spawn(2)
        x = np.random.default_rng(xseed).uniform(
            cfg.input_low, cfg.input_high, graph.input_shape)
        _, terms = netgraph.forward(graph, x, tap=entropy, seed=wseed)
        per_repeat.append(float(sum(terms)))
        if not np.isfinite(per_repeat[-1]):
            raise FloatingPointError(
                f"non-finite entropy sum in repeat {r} (seed {seed})")
    return float(np.mean(per_repeat)), per_repeat


def _logsynflow_term(theta, grad):
    """sum(theta * ln(1 + |grad|)), or None if grad is not finite; grad is
    a fresh array from the backward pass: its buffer is reused."""
    if not np.all(np.isfinite(grad)):
        return None
    np.log1p(np.abs(grad, out=grad), out=grad)
    grad *= theta
    return float(np.sum(grad))


@_quiet
def logsynflow(graph):
    """Sum over parameters of |theta| * ln(1 + |dR/dtheta|).

    R is the sum of the output elements under an all-ones input.  The graph
    is scored as it is given: scoring passes a redrawn layout, whose weights
    are absolute, so theta is |theta|.  Terms are summed, and non-finite
    gradients reported, in parameter order.
    """
    out, terms = netgraph.backward_param_grads(graph, reduce=_logsynflow_term)
    if not np.isfinite(float(out.sum())):
        raise FloatingPointError("non-finite scoring output sum")
    score = 0.0
    for (nid, _, _), term in zip(graph.iter_params(), terms):
        if term is None:
            raise FloatingPointError(f"non-finite gradient at node {nid}")
        score += term
    return score


def derive_seeds(genome, base_seed, n):
    """Per-candidate scoring seeds: a pure function of (genome, base_seed)."""
    mixed = hashlib.sha256(
        f"{genome_hash(genome)}:{base_seed}".encode()).digest()
    root = np.random.SeedSequence(int.from_bytes(mixed[:16], "big"))
    return [int(s.generate_state(1)[0]) for s in root.spawn(n)]


# score_genome's log-SynFlow pass runs in one persistent helper process,
# forked on first use, beside the entropic repeats on the calling thread: a
# process, because the passes are Python-bound and two threads would share
# the interpreter lock.
# Smaller candidates score every pass on the calling thread: a 40 kMAC toy
# candidate takes ~3 ms serially and ~0.5 ms more with the helper, whose
# request, reply and second layout cost more than its pass saves.
HELPER_MIN_MACS = 1_000_000
_helper = None
_helper_lock = threading.Lock()  # held by the one call using the helper


class _Helper:
    """A forked process that answers each ``(genome, config, seed)`` sent
    on ``conn`` with ``(log-SynFlow value, None)`` or ``(None, its
    error)``."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child_end, self.conn),
                                   name="esnas-logsynflow", daemon=True)
        try:
            self.process.start()
        except BaseException:
            # as in a daemonic process, which may not have children
            self.conn.close()
            raise
        finally:
            child_end.close()

    def __del__(self):
        # as an unclosed file does: a helper dropped without _stop_helper
        # has leaked its pipe, and its process runs on
        if not self.conn.closed:
            warnings.warn(f"unstopped log-SynFlow helper {self.process!r}",
                          ResourceWarning, source=self)


def _serve(conn, caller_end):
    """The helper process: run score_genome's pass on the same layout until
    the caller's end closes.  A reply that cannot be sent (the caller is
    gone, or the error does not pickle) ends it; the caller reruns the pass."""
    caller_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles ^C
    while True:
        try:
            genome, config, seed = conn.recv()
        except EOFError:
            return
        try:
            reply = (_logsynflow_pass(
                netgraph.build_structure(genome, config), seed), None)
        except Exception as e:  # noqa: BLE001 - the caller raises it
            # without its traceback, which would keep the pass's arrays
            reply = (None, e.with_traceback(None))
        try:
            conn.send(reply)
        except Exception:  # noqa: BLE001 - the caller reruns the pass
            return


def _logsynflow_pass(structure, seed):
    return logsynflow(netgraph.reinit(structure, seed))


def _stop_helper():
    """Stop the helper process, if any; the next call forks a new one.  It
    ends when it reads the closed pipe or fails to reply: a pass it has been
    sent is finished first, so every pass sent runs."""
    global _helper
    if _helper is not None:
        helper, _helper = _helper, None
        helper.conn.close()
        helper.process.join()


# stopped at exit, so that no helper is left for __del__ to warn about
atexit.register(_stop_helper)


def _forget_helper():
    """In a forked child, the parent's helper and its lock are not ours."""
    global _helper, _helper_lock
    if _helper is not None:
        _helper.conn.close()
        _helper = None
    _helper_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


@contextlib.contextmanager
def _stopping_helper():
    """Stop the helper when the block raises, as a failed start, send or read does."""
    try:
        yield
    except BaseException:
        _stop_helper()
        raise


@contextlib.contextmanager
def _logsynflow_in_helper(genome, config, seed, wanted):
    """Send the candidate's log-SynFlow pass to the helper process, if
    ``wanted`` on two or more usable CPUs while no other thread uses it, and
    yield ``reply()``: the pass's value, or None when the calling thread is
    to run the pass; it raises the pass's error.  A reply the block leaves
    unread (an entropic error, ^C) is read and dropped as it ends."""
    global _helper
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not (wanted and cpus >= 2 and _helper_lock.acquire(blocking=False)):
        yield lambda: None
        return
    pending = False  # a request is sent whole and its reply not read

    def reply():
        nonlocal pending
        value = error = None
        if pending:
            pending = False
            with contextlib.suppress(Exception), _stopping_helper():
                value, error = _helper.conn.recv()
        if error is not None:
            raise error
        return value

    try:
        with contextlib.suppress(Exception), _stopping_helper():
            if _helper is None:
                _helper = _Helper()
            _helper.conn.send((genome, config, seed))
            pending = True
        try:
            yield reply
        finally:
            with contextlib.suppress(Exception):  # an unread pass's error
                reply()
    finally:
        _helper_lock.release()


def score_genome(genome, config, cfg=None, base_seed=0, proxies=PROXIES):
    """Proxy report for one candidate; deterministic in (genome, base_seed).

    ``proxies`` names the proxies to compute, some of PROXIES; the report's
    fields of any other are None.  Seeds and counts do not depend on it, and
    each proxy computed has the value of the full report.

    One pass: the genome is validated and laid out once; the layout gives
    the counts, and every proxy pass (the entropic repeats, then log-SynFlow
    from the last seed) draws its weights for that one graph, which nothing
    copies.  A full report of a candidate of at least HELPER_MIN_MACS, on
    two or more usable CPUs while no other thread uses the helper process,
    runs log-SynFlow there, laid out the same way, while the entropic
    repeats run here; their exception wins, as in serial order, and an
    error of the helper's pass is raised here.  If anything else goes wrong
    with the helper, it is stopped and this thread runs the pass.
    """
    netgraph.one_blas_thread()
    cfg = (cfg or EntropicConfig()).validate()
    if not proxies or not set(proxies) <= set(PROXIES):
        raise ValueError(f"proxies must name some of {PROXIES}, "
                         f"got {proxies!r}")
    seeds = derive_seeds(genome, base_seed, cfg.repeats + 1)
    structure = netgraph.build_structure(genome, config)
    params = netgraph.count_graph_params(structure)
    macs = netgraph.count_graph_macs(structure)
    entropic = per_repeat = None
    with _logsynflow_in_helper(
            genome, config, seeds[-1],
            set(proxies) == set(PROXIES) and macs >= HELPER_MIN_MACS) as reply:
        if "entropic" in proxies:
            entropic, per_repeat = entropic_score(structure, cfg, seeds[:-1])
        lsf = reply()
    if "logsynflow" in proxies and lsf is None:
        lsf = _logsynflow_pass(structure, seeds[-1])
    return ScoreReport(
        entropic=entropic,
        entropic_per_repeat=per_repeat,
        logsynflow=lsf,
        params=params,
        macs=macs,
        seeds=seeds,
    )
