import json
import math
import multiprocessing
import threading
import time

import numpy as np
import pytest
from scipy import stats

from esnas import bench, metrics, netgraph
from esnas.archspace import random_genome
from esnas.bench import (
    BenchmarkEntry,
    CorrelationError,
    correlate_benchmark,
    kendall_tau,
    load_benchmark_csv,
    sample_entries,
    spearman_rho,
)
from esnas.metrics import EntropicConfig

rng = np.random.default_rng(2024)


def kendall_reference(xs, ys):
    """O(n^2) pair-counting oracle with explicit tie corrections."""
    n = len(xs)
    s = 0
    tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(xs[i] > xs[j]) - int(xs[i] < xs[j])
            dy = int(ys[i] > ys[j]) - int(ys[i] < ys[j])
            s += dx * dy
            tx += dx == 0
            ty += dy == 0
    n0 = n * (n - 1) // 2
    return s / math.sqrt((n0 - tx) * (n0 - ty))


def spearman_reference(xs, ys):
    """Average-rank Pearson oracle built from scratch."""
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx)
                    * sum((b - my) ** 2 for b in ry))
    return num / den


class TestKendall:
    def test_perfect_agreement(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0

    def test_perfect_reversal(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_single_swap_example(self):
        assert abs(kendall_tau([1, 2, 3, 4], [2, 1, 4, 3]) - 1 / 3) < 1e-15

    def test_matches_brute_force_with_ties(self):
        for trial in range(30):
            n = int(rng.integers(3, 20))
            xs = rng.integers(0, 6, n).astype(float)
            ys = rng.integers(0, 6, n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert abs(kendall_tau(xs, ys)
                       - kendall_reference(list(xs), list(ys))) < 1e-12

    def test_constant_vector_raises(self):
        with pytest.raises(CorrelationError, match="constant"):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(CorrelationError):
            kendall_tau([1, 2], [1, 2, 3])
        with pytest.raises(CorrelationError):
            kendall_tau([1], [2])

    def test_nas_bench_201_sized_table(self):
        # 15,625 rows with ties in both columns, as in a real table; counting
        # every pair would build two 15,625 x 15,625 sign matrices
        r = np.random.default_rng(201)
        xs = np.round(r.normal(0, 1, 15_625), 3)
        ys = np.round(r.uniform(40, 95, 15_625), 2)
        t0 = time.perf_counter()
        tau = kendall_tau(xs, ys)
        assert time.perf_counter() - t0 < 1.0
        assert abs(tau - stats.kendalltau(xs, ys)[0]) < 1e-12

    def test_nan_gives_nan(self):
        assert math.isnan(kendall_tau([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))


class TestSpearman:
    def test_perfect_agreement(self):
        assert abs(spearman_rho([1, 5, 9], [2, 4, 8]) - 1.0) < 1e-15

    def test_matches_brute_force_with_ties(self):
        for trial in range(30):
            n = int(rng.integers(3, 20))
            xs = rng.integers(0, 6, n).astype(float)
            ys = rng.integers(0, 6, n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert abs(spearman_rho(xs, ys)
                       - spearman_reference(list(xs), list(ys))) < 1e-12

    def test_constant_vector_raises(self):
        with pytest.raises(CorrelationError, match="constant"):
            spearman_rho([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])

    def test_ranks_and_rho_equal_scipy_bit_for_bit(self):
        """Average ranks are exact, so rho is the value that scipy's ranks
        give through the same formula."""
        for trial in range(50):
            n = int(rng.integers(2, 200))
            xs = rng.integers(-5, 5, n) * rng.choice([1.0, 0.1, -2.5])
            ys = np.round(rng.normal(0, 1, n), 1)
            assert np.array_equal(bench._average_ranks(xs),
                                  stats.rankdata(xs, method="average"))
            assert np.array_equal(bench._average_ranks(ys),
                                  stats.rankdata(ys, method="average"))
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            rx = stats.rankdata(xs, method="average")
            ry = stats.rankdata(ys, method="average")
            dx, dy = rx - rx.mean(), ry - ry.mean()
            expected = float(np.sum(dx * dy)) / math.sqrt(
                float(np.sum(dx * dx)) * float(np.sum(dy * dy)))
            assert spearman_rho(xs, ys) == expected

    def test_nan_gives_nan(self):
        assert math.isnan(spearman_rho([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))
        assert math.isnan(spearman_rho([1.0, 2.0, 3.0], [math.nan] * 3))


class TestMonotoneInvariance:
    @pytest.mark.parametrize("transform", [
        lambda v: 3 * v + 2,
        lambda v: np.exp(v),
        lambda v: v ** 3,
    ])
    def test_both_coefficients_invariant(self, transform):
        xs = rng.normal(0, 1, 40)
        ys = rng.normal(0, 1, 40)
        t = kendall_tau(xs, ys)
        r = spearman_rho(xs, ys)
        assert abs(kendall_tau(transform(xs), ys) - t) < 1e-12
        assert abs(spearman_rho(xs, transform(ys)) - r) < 1e-12

    def test_monotone_transform_of_self_is_one(self):
        xs = rng.normal(0, 1, 25)
        assert abs(kendall_tau(xs, np.exp(xs)) - 1.0) < 1e-15
        assert abs(spearman_rho(xs, 2 * xs + 1) - 1.0) < 1e-15


def blas_threads_row(job):
    """A pool job that scores row i as 10 i + its worker's OpenBLAS thread
    count."""
    threads = netgraph._find_blas_controls()[0][1]()
    return float(10 * int(job[0]) + threads), None


def helper_seen_row(job):
    """A pool job that scores row i as 10 i, plus 1 if its worker sees a
    helper process (after writing a request to it)."""
    helper = metrics._helper
    if helper is not None:
        helper.conn.send((None, None, 0))
    return float(10 * int(job[0]) + (helper is not None)), None


class TestCorrelateBenchmark:
    def precomputed_table(self, scores, accs):
        return [BenchmarkEntry(accuracy=a, precomputed_scores={"entropic": s})
                for s, a in zip(scores, accs)]

    def test_identity_scores(self):
        table = self.precomputed_table([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        report, pairs = correlate_benchmark(table, "entropic")
        assert report.kendall_tau == 1.0
        assert abs(report.spearman_rho - 1.0) < 1e-15
        assert report.n == 3
        assert pairs == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]

    def test_negated_scores(self):
        table = self.precomputed_table([3.0, 2.0, 1.0], [10.0, 20.0, 30.0])
        report, _ = correlate_benchmark(table, "entropic")
        assert report.kendall_tau == -1.0

    def test_row_order_invariance(self):
        scores = list(rng.normal(0, 1, 15))
        accs = list(rng.uniform(0, 100, 15))
        table = self.precomputed_table(scores, accs)
        r1, _ = correlate_benchmark(table, "entropic")
        perm = rng.permutation(15)
        r2, _ = correlate_benchmark([table[i] for i in perm], "entropic")
        assert abs(r1.kendall_tau - r2.kendall_tau) < 1e-12
        assert abs(r1.spearman_rho - r2.spearman_rho) < 1e-12

    def test_scores_genomes_when_not_precomputed(self, tiny_config):
        table = []
        for s in range(5):
            g = random_genome(tiny_config, s)
            table.append(BenchmarkEntry(arch=g.to_json(),
                                        accuracy=float(50 + s)))
        report, pairs = correlate_benchmark(table, "entropic",
                                            config=tiny_config)
        assert report.n == 5
        assert report.skipped_rows == 0
        assert all(np.isfinite(s) for s, _ in pairs)

    def test_unscorable_rows_skipped(self):
        table = self.precomputed_table([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        table.append(BenchmarkEntry(arch="not json", accuracy=50.0))
        report, _ = correlate_benchmark(table, "entropic")
        assert report.n == 3
        assert report.skipped_rows == 1

    def test_pool_matches_serial(self, tiny_config, caplog):
        table = self.precomputed_table([1.0, 2.0], [10.0, 20.0])
        for s in range(3):
            table.insert(1, BenchmarkEntry(
                arch=random_genome(tiny_config, s).to_json(),
                accuracy=float(50 + s)))
        table.insert(2, BenchmarkEntry(arch="not json", accuracy=50.0))
        serial = correlate_benchmark(table, "entropic", config=tiny_config)
        pooled = correlate_benchmark(table, "entropic", config=tiny_config,
                                     workers=2)
        assert serial == pooled
        assert [r.getMessage() for r in caplog.records] == [
            "skipped benchmark row 3: JSONDecodeError: "
            "Expecting value: line 1 column 1 (char 0)"] * 2
        report, pairs = pooled
        assert report.skipped_rows == 1
        assert report.skipped == [{
            "row": 3, "reason": "JSONDecodeError: "
            "Expecting value: line 1 column 1 (char 0)"}]
        assert [a for _, a in pairs] == [10.0, 52.0, 51.0, 50.0, 20.0]
        # the table is read, not written
        assert [e.precomputed_scores for e in table] == (
            [{"entropic": 1.0}] + [{}] * 4 + [{"entropic": 2.0}])

    def test_pool_after_scoring_on_the_helper_thread(self, tiny_config,
                                                     helper_thread):
        """The pool forks after a candidate was scored in the helper process:
        no thread outlives that call, and the pool's pairs are the serial
        ones."""
        in_helper = helper_thread(True)
        threads = threading.enumerate()
        metrics.score_genome(random_genome(tiny_config, 9), tiny_config)
        assert in_helper() == [True]
        assert threading.enumerate() == threads
        table = [BenchmarkEntry(arch=random_genome(tiny_config, s).to_json(),
                                accuracy=float(50 + s)) for s in range(4)]
        _, serial = correlate_benchmark(table, "logsynflow",
                                        config=tiny_config)
        _, pooled = correlate_benchmark(table, "logsynflow",
                                        config=tiny_config, workers=2)
        assert pooled == serial

    def test_pool_workers_forget_the_parents_helper(self, tiny_config,
                                                    helper_thread,
                                                    monkeypatch):
        """Workers forked while the parent's helper runs do not see it and
        never write to its pipe, so the parent's next reply is its own."""
        helper_thread(True)
        genome = random_genome(tiny_config, 9)
        first = metrics.score_genome(genome, tiny_config).to_json()
        helper = metrics._helper
        monkeypatch.setattr(bench, "_score_row", helper_seen_row)
        table = [BenchmarkEntry(arch=str(i), accuracy=float(i))
                 for i in range(4)]
        _, pairs = correlate_benchmark(table, "entropic", workers=2)
        assert [s for s, _ in pairs] == [0.0, 10.0, 20.0, 30.0]
        assert metrics._helper is helper and not helper.conn.poll()
        assert metrics.score_genome(genome, tiny_config).to_json() == first

    def test_pool_workers_start_at_one_blas_thread(self, monkeypatch):
        """Workers inherit one OpenBLAS thread from the fork, so none has to
        set it (which would restart OpenBLAS's thread pool in each), and the
        parent stays at one thread after the pool."""
        if not netgraph._find_blas_controls():
            pytest.skip("no OpenBLAS library is loaded")
        monkeypatch.setattr(bench, "_score_row", blas_threads_row)
        set_threads, get_threads = netgraph._find_blas_controls()[0]
        before = get_threads()
        set_threads(2)
        try:
            table = [BenchmarkEntry(arch=str(i), accuracy=float(i))
                     for i in range(4)]
            _, pairs = correlate_benchmark(table, "entropic", workers=2)
            after = get_threads()
        finally:
            set_threads(before)
        assert [s for s, _ in pairs] == [1.0, 11.0, 21.0, 31.0]
        assert after == 1

    def test_thread_count_is_set_once(self, tiny_config, monkeypatch,
                                      tmp_path):
        """After the first scoring call has set one thread, neither scoring
        nor a pool sets a count again, in the parent or in a worker: any
        such call after a fork restarts OpenBLAS's thread pool."""
        if not netgraph._find_blas_controls():
            pytest.skip("no OpenBLAS library is loaded")
        set_threads, get_threads = netgraph._find_blas_controls()[0]
        genome = random_genome(tiny_config, 0)
        before = get_threads()
        set_threads(2)
        try:
            metrics.score_genome(genome, tiny_config)
            calls = tmp_path / "setter-calls"

            def recorded(setter):
                def record(n):
                    with open(calls, "a") as fh:  # workers' calls too
                        fh.write(f"{n}\n")
                    setter(n)
                return record

            monkeypatch.setattr(netgraph, "_blas_controls", [
                (recorded(setter), getter)
                for setter, getter in netgraph._blas_controls])
            for _ in range(2):
                metrics.score_genome(genome, tiny_config)
            table = [BenchmarkEntry(arch=random_genome(tiny_config, s).to_json(),
                                    accuracy=float(50 + s)) for s in range(4)]
            correlate_benchmark(table, "entropic", config=tiny_config,
                                workers=2)
            after = get_threads()
        finally:
            set_threads(before)
        assert not calls.exists()
        assert after == 1

    def test_pool_forks_whatever_the_default_start_method(self, monkeypatch):
        """Under a spawn default (forkserver is Python 3.14's on Linux) the
        pool still forks, so its workers still inherit one OpenBLAS
        thread; spawned workers would start at the library's default."""
        saved = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            self.test_pool_workers_start_at_one_blas_thread(monkeypatch)
        finally:
            multiprocessing.set_start_method(saved, force=True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_precomputed_score_skips_its_row(self, bad, caplog):
        """A NaN or infinite precomputed score is skipped with its reason,
        as a row whose proxy fails is, so the report stays strict JSON."""
        table = self.precomputed_table([1.0, bad, 3.0], [10.0, 20.0, 25.0])
        table[1].row = 2
        report, pairs = correlate_benchmark(table, "entropic")
        reason = f"precomputed score_entropic is {bad!r}"
        assert report.skipped == [{"row": 2, "reason": reason}]
        assert report.skipped_rows == 1 and report.n == 2
        assert pairs == [(1.0, 10.0), (3.0, 25.0)]
        assert report.kendall_tau == 1.0
        assert [r.getMessage() for r in caplog.records] == [
            f"skipped benchmark row 2: {reason}"]

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        assert json.loads(json.dumps(report.to_dict()),
                          parse_constant=refuse) == report.to_dict()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_skipped_only_when_its_proxy_fails(self, attn_config,
                                                   monkeypatch, workers):
        """Row 3's entropic repeats overflow: an entropic study skips it with
        the reason, a log-SynFlow study keeps it.  With every log-SynFlow
        pass failing, the reverse."""
        ok, overflows = (random_genome(attn_config, s) for s in (2, 1))
        table = [BenchmarkEntry(accuracy=a, precomputed_scores={
                     "entropic": a, "logsynflow": a}) for a in (10.0, 40.0)]
        table[1:1] = [BenchmarkEntry(arch=g.to_json(), accuracy=a)
                      for g, a in ((ok, 20.0), (overflows, 30.0))]

        def skipped(metric, entropic_cfg=None):
            with np.errstate(all="ignore"):
                report, pairs = correlate_benchmark(
                    table, metric, config=attn_config,
                    entropic_cfg=entropic_cfg, workers=workers)
            assert report.n == len(pairs) == 4 - report.skipped_rows
            return report.skipped

        wide = EntropicConfig(input_low=-1e300, input_high=1e300)
        seed = metrics.derive_seeds(overflows, 0, wide.repeats + 1)[1]
        assert skipped("entropic", wide) == [{
            "row": 3, "reason": "FloatingPointError: non-finite entropy sum "
                                f"in repeat 1 (seed {seed})"}]
        assert skipped("logsynflow", wide) == []
        monkeypatch.setattr(metrics, "_logsynflow_term", lambda theta, g: None)
        assert skipped("entropic") == []
        failed = skipped("logsynflow")
        assert [f["row"] for f in failed] == [2, 3]
        assert all(f["reason"].startswith("FloatingPointError: non-finite "
                                          "gradient at node ") for f in failed)

    def test_empty_and_degenerate_tables(self):
        with pytest.raises(CorrelationError):
            correlate_benchmark([], "entropic")
        with pytest.raises(CorrelationError, match="usable"):
            correlate_benchmark([BenchmarkEntry(arch="x", accuracy=1.0)],
                                "entropic")

    def test_report_serialization(self):
        table = self.precomputed_table([1.0, 2.0, 4.0], [5.0, 9.0, 7.0])
        report, _ = correlate_benchmark(table, "entropic")
        d = report.to_dict()
        assert d["metric_name"] == "entropic"
        assert d["ties_policy"] == "tau-b / average-rank"
        assert set(d) == {"metric_name", "kendall_tau", "spearman_rho", "n",
                          "ties_policy", "skipped_rows", "skipped"}
        assert d["skipped"] == []


class TestCsvLoading:
    def test_precomputed_layout(self, tmp_path):
        p = tmp_path / "bench.csv"
        p.write_text("id,score_entropic,score_logsynflow,accuracy\n"
                     "a,1.5,10.0,71.0\n"
                     "b,2.5,,64.0\n")
        entries = load_benchmark_csv(p)
        assert len(entries) == 2
        assert [e.row for e in entries] == [1, 2]
        assert entries[0].precomputed_scores == {"entropic": 1.5,
                                                 "logsynflow": 10.0}
        assert entries[1].precomputed_scores == {"entropic": 2.5}
        assert entries[1].accuracy == 64.0

    def test_genome_layout(self, tmp_path, tiny_config):
        g = random_genome(tiny_config, 0)
        p = tmp_path / "bench.csv"
        quoted = g.to_json().replace('"', '""')
        p.write_text("arch_json,accuracy\n" + f'"{quoted}",80.5\n')
        entries = load_benchmark_csv(p)
        assert len(entries) == 1
        assert entries[0].arch == g.to_json()

    def test_byte_order_mark_is_dropped(self, tmp_path, tiny_config):
        # spreadsheets' "CSV UTF-8" export starts the file with a BOM, which
        # would otherwise prefix the first column's name
        g = random_genome(tiny_config, 0)
        p = tmp_path / "bench.csv"
        quoted = g.to_json().replace('"', '""')
        p.write_text("\ufeffarch_json,accuracy\n" + f'"{quoted}",80.5\n',
                     encoding="utf-8")
        [entry] = load_benchmark_csv(p)
        assert entry.arch == g.to_json() and entry.accuracy == 80.5

    def test_no_genome_or_score_column(self, tmp_path):
        p = tmp_path / "bench.csv"
        p.write_text("id,accuracy\na,60.0\nb,70.0\n")
        with pytest.raises(CorrelationError,
                           match=f"^{p}: neither an 'arch_json' nor a "
                                 "'score_<metric>' column$"):
            load_benchmark_csv(p)

    def test_missing_accuracy_column(self, tmp_path):
        p = tmp_path / "bench.csv"
        p.write_text("id,score_entropic\na,1.0\n")
        with pytest.raises(CorrelationError, match="accuracy"):
            load_benchmark_csv(p)

    def test_accuracy_out_of_range(self, tmp_path):
        p = tmp_path / "bench.csv"
        p.write_text("id,score_entropic,accuracy\na,1.0,140.0\n")
        with pytest.raises(CorrelationError, match="outside"):
            load_benchmark_csv(p)

    def test_short_row_names_file_and_row(self, tmp_path):
        p = tmp_path / "bench.csv"
        p.write_text("id,score_entropic,accuracy\n"
                     "a,1.0,60.0\nb,2.0\nc,3.0,70\n")
        with pytest.raises(CorrelationError, match=f"^{p} row 2: fewer"):
            load_benchmark_csv(p)

    def test_long_row_names_file_and_row(self, tmp_path):
        # a shifted row: its last value would be dropped without a word
        p = tmp_path / "bench.csv"
        p.write_text("id,score_entropic,accuracy\n"
                     "b,2.0,70.0\na,1.0,60.0,99\n")
        with pytest.raises(CorrelationError,
                           match=f"^{p} row 2: more fields than the "
                                 f"header's 3$"):
            load_benchmark_csv(p)

    @pytest.mark.parametrize("row, cell", [
        ("a,1.0,sixty", "accuracy 'sixty'"),
        ("a,1.0,", "accuracy ''"),
        ("a,one,60.0", "score_entropic 'one'")])
    def test_non_number_names_file_row_and_column(self, tmp_path, row, cell):
        p = tmp_path / "bench.csv"
        p.write_text(f"id,score_entropic,accuracy\nb,2.0,70.0\n{row}\n")
        with pytest.raises(CorrelationError,
                           match=f"^{p} row 2: {cell} is not a number$"):
            load_benchmark_csv(p)

    def test_trailing_comma_row_loads(self, tmp_path):
        p = tmp_path / "bench.csv"
        p.write_text("id,score_entropic,accuracy\na,1.0,60.0,\nb,2.0,70.0,,\n")
        entries = load_benchmark_csv(p)
        assert [(e.precomputed_scores, e.accuracy) for e in entries] == [
            ({"entropic": 1.0}, 60.0), ({"entropic": 2.0}, 70.0)]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "bench.csv"
        p.write_text("")
        with pytest.raises(CorrelationError, match="empty"):
            load_benchmark_csv(p)


class TestSampling:
    def test_sample_without_replacement(self):
        entries = [BenchmarkEntry(accuracy=float(i)) for i in range(50)]
        sub = sample_entries(entries, 10, seed=0)
        assert len(sub) == 10
        assert len({e.accuracy for e in sub}) == 10

    def test_sample_deterministic_and_capped(self):
        entries = [BenchmarkEntry(accuracy=float(i)) for i in range(10)]
        assert sample_entries(entries, 20, seed=0) == entries
        a = sample_entries(entries, 4, seed=3)
        b = sample_entries(entries, 4, seed=3)
        assert [e.accuracy for e in a] == [e.accuracy for e in b]
