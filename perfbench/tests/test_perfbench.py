"""Tests of the benchmark's own arithmetic, inputs and checks.

    python3 -m pytest perfbench/tests
"""

import math
import multiprocessing
import types

import pytest

from measure import TAIL_MIN_PERCENTILE, tail_percentile, tail_ready
from tracer import Span, Tracer, durations, inclusive_times, self_times
from workloads import CorrelatePool, SearchS0, Score224, Stats


def test_self_time_on_synthetic_span_tree():
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,7]; e[11,12] is a root.
    spans = [Span(1, "b", 1, 4, 0, 0), Span(3, "d", 6, 7, 2, 0),
             Span(2, "c", 5, 9, 0, 0), Span(0, "a", 0, 10, None, 0),
             Span(4, "e", 11, 12, None, 1)]
    assert self_times(spans) == {"a": 3, "b": 3, "c": 3, "d": 1, "e": 1}
    assert inclusive_times(spans) == {"a": 10, "b": 3, "c": 4, "d": 1, "e": 1}


def test_inclusive_time_counts_nested_same_name_once():
    spans = [Span(1, "x", 1, 2, 0, 0), Span(0, "x", 0, 5, None, 0)]
    assert inclusive_times(spans) == {"x": 5}
    assert self_times(spans) == {"x": 5}


def test_tracer_links_parents_and_restores():
    mod = types.SimpleNamespace()
    mod.leaf = lambda v: v + 1
    mod.outer = lambda v: mod.leaf(v) * 2
    original_leaf, original_outer = mod.leaf, mod.outer
    seen = []
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "leaf", before=lambda v: seen.append(v))
    tracer.wrap(mod, "outer", "outer")
    tracer.op = 7
    assert mod.outer(1) == 4
    tracer.restore()
    assert (mod.leaf, mod.outer) == (original_leaf, original_outer)
    leaf, outer = tracer.spans
    assert (leaf.name, outer.name) == ("leaf", "outer")
    assert leaf.parent == outer.id and outer.parent is None
    assert leaf.op == outer.op == 7 and seen == [1]
    assert outer.start <= leaf.start <= leaf.end <= outer.end
    assert durations(tracer.spans, "leaf") == [leaf.end - leaf.start]


FORK = multiprocessing.get_context("fork")
_both_started = FORK.Barrier(2)


def _hold_mib(mib):
    _both_started.wait(timeout=30)  # one task per worker, side by side
    block = bytearray(mib << 20)
    block[::4096] = b"x" * len(block[::4096])  # touch every page
    return len(block)


_ns = types.SimpleNamespace(hold=_hold_mib)


def _call_hold(mib):
    return _ns.hold(mib)


def test_worker_memory_counts_each_worker_growth_once(tmp_path):
    # Forked workers inherit the parent's ballast; only what each worker
    # adds on top counts, and the additions of side-by-side workers add up.
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"y" * len(ballast[::4096])
    tracer = Tracer(spill_dir=tmp_path)
    tracer.wrap(_ns, "hold", "hold")
    try:
        with FORK.Pool(2) as pool:
            pool.map(_call_hold, [32, 32], chunksize=1)
    finally:
        tracer.restore()
    tracer.merge_spills()
    assert len(durations(tracer.spans, "hold")) == 2
    mib = tracer.workers_growth_kb / 1024
    assert 2 * 32 <= mib < 2 * 32 + 16, mib
    del ballast


@pytest.mark.parametrize("n,p", [(11, 9), (20, 50), (40, 75), (100, 90),
                                 (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    values = [float(v) for v in range(n, 0, -1)]
    pct, value, count = tail_percentile(values)
    assert (pct, count) == (p, n)
    assert sum(v > value for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond
    assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_runs_continue_until_the_tail_reaches_its_floor():
    first = next(n for n in range(1, 1000) if tail_ready(n))
    assert tail_percentile(range(first))[0] >= TAIL_MIN_PERCENTILE
    assert tail_percentile(range(first - 1))[0] < TAIL_MIN_PERCENTILE


def _snapshot(cls, tmp_path, seed):
    work = tmp_path / f"{cls.name}-{seed}"
    work.mkdir(parents=True)
    wl = cls(work, seed)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return wl.items, files


@pytest.mark.parametrize("cls", [Score224, SearchS0, CorrelatePool])
def test_inputs_are_a_pure_function_of_the_seed(cls, tmp_path):
    first = _snapshot(cls, tmp_path / "a", 3)
    again = _snapshot(cls, tmp_path / "b", 3)
    other = _snapshot(cls, tmp_path / "c", 4)
    assert first == again
    assert first[1] != other[1]


def test_perturbed_reference_score_fails_the_check(tmp_path):
    wl = Score224(tmp_path, 0)
    stats = Stats()
    wl.run(0, stats)
    assert (stats.ops, stats.failed) == (1, 0)
    ref = wl.items[0]
    wl.items[0] = dict(ref, entropic=ref["entropic"] * (1 + 1e-6))
    wl.run(0, stats)
    assert (stats.ops, stats.failed) == (2, 1)
    assert "entropic" in stats.errors[0]


def test_perturbed_reference_coefficient_fails_every_row(tmp_path):
    wl = CorrelatePool(tmp_path, 0)
    wl.expect = dict(wl.expect, kendall_tau=wl.expect["kendall_tau"] + 1e-6)
    stats = Stats()
    wl.run(0, stats)
    assert stats.failed == stats.ops == 60
    assert "kendall_tau" in stats.errors[0]
