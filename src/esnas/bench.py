"""Rank-correlation study between training-free metrics and benchmark accuracy.

Benchmark tables are user-supplied CSV files; no benchmark data ships with
the package.  Two row layouts are accepted:

    arch_json,accuracy            genome JSON per row, scored on ingestion
    id,score_<metric>,accuracy    precomputed metric columns
"""

from __future__ import annotations

import csv
import logging
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import archspace, metrics, netgraph

log = logging.getLogger("esnas")


class CorrelationError(ValueError):
    """Degenerate or mismatched inputs to a correlation coefficient."""


@dataclass
class BenchmarkEntry:
    arch: object = None  # ArchGenome or opaque descriptor
    accuracy: float = 0.0
    precomputed_scores: dict = field(default_factory=dict)
    row: int | None = None  # CSV data-row number from 1; None: table position


@dataclass
class CorrelationReport:
    metric_name: str
    kendall_tau: float
    spearman_rho: float
    n: int
    ties_policy: str = "tau-b / average-rank"
    skipped_rows: int = 0
    skipped: list = field(default_factory=list)  # [{"row": n, "reason": s}]

    def to_dict(self):
        return asdict(self)


def _check_vectors(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise CorrelationError(
            f"length mismatch: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise CorrelationError("need at least 2 observations")
    return xs, ys


def _tied_pairs(differs):
    """Pairs within runs of equal sorted values; ``differs[i]`` says whether
    sorted items i and i + 1 differ."""
    runs = np.diff(np.flatnonzero(np.concatenate(([True], differs, [True]))))
    return int(np.sum(runs * (runs - 1) // 2))


def _inversions(ranks):
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n), by a
    bottom-up merge sort: at each level every right block counts the larger
    items of the left block it merges with, all blocks at once."""
    n = ranks.size
    a = ranks.astype(np.int64)
    pos = np.arange(n)
    count = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        right = (pos // width) % 2 == 1
        # offset each pair's values so that all left blocks, each sorted,
        # form one sorted array
        key = pair * n + a
        le = np.searchsorted(key[~right], key[right], side="right")
        # left blocks that have a right partner are full: the pair's left
        # block ends at (pair + 1) * width in that array
        count += int(np.sum((pair[right] + 1) * width - le))
        a = np.sort(key) - pair * n
        width *= 2
    return count


def kendall_tau(xs, ys):
    """Tie-corrected tau-b via exact pair counting (Knight's O(n log n)).

    Integer concordance and tie counts, one final division: the same value
    as counting every pair.  NaN anywhere gives NaN.
    """
    xs, ys = _check_vectors(xs, ys)
    if np.isnan(xs).any() or np.isnan(ys).any():
        return math.nan
    n = xs.size
    order = np.lexsort((ys, xs))
    xo, yo = xs[order], ys[order]
    x_differs = xo[1:] != xo[:-1]
    ysorted = np.sort(ys)
    n0 = n * (n - 1) // 2
    n1 = _tied_pairs(x_differs)
    n2 = _tied_pairs(ysorted[1:] != ysorted[:-1])
    n3 = _tied_pairs(x_differs | (yo[1:] != yo[:-1]))
    # sorted by x, then y: an inversion of y is exactly a discordant pair
    discord = _inversions(np.searchsorted(ysorted, yo))
    concord_minus_discord = n0 - n1 - n2 + n3 - 2 * discord
    denom = math.sqrt(float(n0 - n1) * float(n0 - n2))
    if denom == 0:
        raise CorrelationError("kendall tau undefined: a vector is constant")
    return float(concord_minus_discord) / denom


def _average_ranks(a):
    """Ranks from 1 in which ties share their mean rank, exactly (as
    ``scipy.stats.rankdata(a, method="average")``)."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    # runs of equal sorted values: the run [lo, hi) holds ranks lo+1 .. hi
    lo = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    hi = np.append(lo[1:], a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(0.5 * (lo + hi + 1), hi - lo)
    return ranks


def spearman_rho(xs, ys):
    """Pearson correlation of average-ranked data (ties share the mean rank).
    NaN anywhere gives NaN."""
    xs, ys = _check_vectors(xs, ys)
    if np.isnan(xs).any() or np.isnan(ys).any():
        return math.nan
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float(np.sum(dx * dx)) * float(np.sum(dy * dy)))
    if denom == 0:
        raise CorrelationError("spearman rho undefined: a vector is constant")
    return float(np.sum(dx * dy)) / denom


def _score_row(job):
    """Parse a row and compute its one proxy: ``(score, None)``, or
    ``(None, reason)`` if that fails, returned rather than raised so pool and
    serial runs agree."""
    arch, metric_name, config, entropic_cfg, base_seed = job
    try:
        genome = arch if isinstance(arch, archspace.ArchGenome) \
            else archspace.ArchGenome.from_json(arch)
        report = metrics.score_genome(genome, config, entropic_cfg,
                                      base_seed=base_seed,
                                      proxies=(metric_name,))
        return getattr(report, metric_name), None
    except Exception as e:  # noqa: BLE001 - any failure skips just this row
        return None, f"{type(e).__name__}: {e}"


def correlate_benchmark(table, metric_name, config=None, entropic_cfg=None,
                        base_seed=0, workers=1):
    """Correlate one metric against accuracy over the benchmark entries.

    Entries with a precomputed score for the metric are used directly;
    otherwise the architecture is instantiated and only the named proxy is
    computed, in a pool of ``workers`` processes when ``workers > 1``, each
    scoring serially.  Rows without a finite score (the precomputed score is
    NaN or infinite, there is neither that score nor a genome, the genome
    does not parse or validate, or the proxy fails) are skipped, counted,
    logged and listed in the report with their reason and row number (the
    entry's CSV row, else its position in ``table`` from 1).
    Pairs keep table order.
    """
    if not table:
        raise CorrelationError("benchmark table is empty")
    jobs = [(e.arch, metric_name, config, entropic_cfg, base_seed)
            for e in table
            if metric_name not in e.precomputed_scores and e.arch is not None]
    if workers > 1 and jobs:
        # workers fork with OpenBLAS at one thread, whatever the platform's
        # default start method, and score serially (a one-proxy row never
        # uses the helper): the pool keeps the cores busy
        netgraph.one_blas_thread()
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            results = iter(list(pool.map(_score_row, jobs)))
    else:
        results = map(_score_row, jobs)
    pairs, skipped = [], []
    for i, entry in enumerate(table):
        if metric_name in entry.precomputed_scores:
            score = float(entry.precomputed_scores[metric_name])
            reason = None if math.isfinite(score) else (
                f"precomputed score_{metric_name} is {score!r}")
        elif entry.arch is None:
            reason = f"no score_{metric_name} value and no arch_json genome"
        else:
            score, reason = next(results)
        if reason is not None:
            row = i + 1 if entry.row is None else entry.row
            log.warning("skipped benchmark row %d: %s", row, reason)
            skipped.append({"row": row, "reason": reason})
            continue
        pairs.append((score, entry.accuracy))
    if len(pairs) < 2:
        raise CorrelationError(
            f"fewer than 2 usable rows ({len(skipped)} skipped)")
    scores, accs = zip(*pairs)
    return CorrelationReport(
        metric_name=metric_name,
        kendall_tau=kendall_tau(scores, accs),
        spearman_rho=spearman_rho(scores, accs),
        n=len(pairs),
        skipped_rows=len(skipped),
        skipped=skipped,
    ), pairs


def load_benchmark_csv(path):
    """Parse a benchmark CSV into BenchmarkEntry rows."""
    entries = []
    # utf-8-sig drops the BOM that spreadsheets' "CSV UTF-8" export writes
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CorrelationError(f"{path}: empty benchmark file")
        cols = reader.fieldnames
        if "accuracy" not in cols:
            raise CorrelationError(f"{path}: missing 'accuracy' column")
        score_cols = [c for c in cols if c.startswith("score_")]
        if "arch_json" not in cols and not score_cols:
            raise CorrelationError(
                f"{path}: neither an 'arch_json' nor a 'score_<metric>' column")
        for i, row in enumerate(reader):
            # DictReader leaves a short row's missing fields None, and lists
            # a long row's extra values (empty after a trailing comma) under
            # the key None
            if None in row.values() or any(row.get(None, ())):
                raise CorrelationError(
                    f"{path} row {i + 1}: {'more' if None in row else 'fewer'}"
                    f" fields than the header's {len(cols)}")
            try:  # col names the cell being read when float() refuses it
                acc = float(row[col := "accuracy"])
                pre = {c[len("score_"):]: float(row[col := c])
                       for c in score_cols if row[c] != ""}
            except ValueError:
                raise CorrelationError(f"{path} row {i + 1}: {col} "
                                       f"{row[col]!r} is not a number") from None
            if not 0.0 <= acc <= 100.0:
                raise CorrelationError(
                    f"{path} row {i + 1}: accuracy {acc} outside [0, 100]")
            entries.append(BenchmarkEntry(
                arch=row.get("arch_json") or None, accuracy=acc,
                precomputed_scores=pre, row=i + 1))
    return entries


def sample_entries(entries, n, seed):
    """Uniform sample without replacement for partial-benchmark studies."""
    if n >= len(entries):
        return list(entries)
    rng = np.random.default_rng(seed)
    idx = sorted(rng.choice(len(entries), size=n, replace=False))
    return [entries[i] for i in idx]
