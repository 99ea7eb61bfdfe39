import json
import math
from dataclasses import replace

import numpy as np
import pytest

from esnas import archspace, evolve, metrics
from esnas.archspace import PHASE_SIZE, PHASE_TOPOLOGY
from esnas.evolve import (
    Budget,
    BudgetMeter,
    Individual,
    SearchEngine,
    SearchSchedule,
    cyclic_search,
    genome_key,
    ranking,
    tournament_select,
)

from conftest import enumerate_space


def make_ind(entropic, birth, logsynflow=0.0):
    report = metrics.ScoreReport(
        entropic=entropic, entropic_per_repeat=[entropic],
        logsynflow=logsynflow, params=1, macs=1, seeds=[0])
    return Individual(genome=None, report=report, birth_step=birth)


def population(config, capacity, inds=()):
    """The population refill_population builds from the seeds ``inds`` when
    its budget is already spent."""
    spent = BudgetMeter(Budget("evaluations", 1))
    spent.consume()
    schedule = eval_schedule(population_size=capacity,
                             tournament_size=min(3, capacity))
    return SearchEngine(config, schedule, seed=0).refill_population(
        list(inds), PHASE_TOPOLOGY, [spent])


def eval_schedule(**overrides):
    base = dict(
        multistart_populations=2,
        multistart_budget=Budget("evaluations", 10),
        phase_budget=Budget("evaluations", 15),
        total_budget=Budget("evaluations", 120),
        multistart_population_size=4,
        multistart_tournament_size=2,
        population_size=8,
        tournament_size=3,
    )
    base.update(overrides)
    return SearchSchedule(**base).validate()


def size_multiset(genome):
    out = []
    for _, _, g in genome.blocks():
        out.append(("out_channels", g.out_channels))
        out.append(("expansion_ratio", g.expansion_ratio))
        if hasattr(g, "head_dim"):
            out.append(("head_dim", g.head_dim))
    return tuple(sorted(out))


def topology_tuple(genome):
    out = []
    for si, bi, g in genome.blocks():
        out.append((si, bi, "ffn_type", g.ffn_type))
        if hasattr(g, "kernel_size"):
            out.append((si, bi, "kernel_size", g.kernel_size))
        else:
            out.append((si, bi, "num_heads", g.num_heads))
    return tuple(out)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget("minutes", 5).validate()
        with pytest.raises(ValueError):
            Budget("evaluations", 0).validate()
        # an infinite or NaN budget would never run out, wall-clock or not
        for kind in ("evaluations", "wallclock_seconds"):
            for amount in (math.inf, math.nan, True, "x"):
                with pytest.raises(ValueError, match=f"amount must be a finite "
                                                     f"number > 0, got {amount!r}$"):
                    Budget(kind, amount).validate()

    def test_evaluation_meter(self):
        m = BudgetMeter(Budget("evaluations", 3))
        assert not m.exhausted()
        m.consume(2)
        assert not m.exhausted()
        m.consume()
        assert m.exhausted()

    def test_roundtrip(self):
        b = Budget("wallclock_seconds", 30.0)
        assert Budget.from_dict(b.to_dict()) == b

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="'amout'"):
            Budget.from_dict({"kind": "evaluations", "amout": 3})


class TestSchedule:
    def test_defaults_match_stage_doubling(self):
        s = SearchSchedule().validate()
        assert (s.multistart_population_size, s.multistart_tournament_size) == (25, 5)
        assert (s.population_size, s.tournament_size) == (50, 10)
        assert s.population_size == 2 * s.multistart_population_size
        assert s.tournament_size == 2 * s.multistart_tournament_size
        assert s.multistart_populations == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSchedule(tournament_size=60).validate()
        with pytest.raises(ValueError):
            SearchSchedule(crossover_prob=1.5).validate()
        with pytest.raises(ValueError):
            SearchSchedule(multistart_populations=0).validate()

    def test_from_dict_with_budget_dicts(self):
        s = SearchSchedule.from_dict({
            "phase_budget": {"kind": "evaluations", "amount": 9},
            "tournament_size": 4,
        })
        assert s.phase_budget == Budget("evaluations", 9)
        assert s.tournament_size == 4
        assert SearchSchedule.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="'phase_budgets', 'seed'"):
            SearchSchedule.from_dict({"phase_budgets": {}, "seed": 1,
                                      "tournament_size": 4})

    @staticmethod
    def eval_schedule(populations, per_population, total):
        return SearchSchedule(
            multistart_populations=populations,
            multistart_budget=Budget("evaluations", per_population),
            phase_budget=Budget("evaluations", 4),
            total_budget=Budget("evaluations", total),
            multistart_population_size=3, multistart_tournament_size=2,
            population_size=4, tournament_size=2)

    def test_total_must_seed_every_multistart_population(self, tiny_config):
        # two populations of 3 evaluations: the second starts at evaluation 4
        with pytest.raises(ValueError, match="total_budget.*multistart_budget"):
            self.eval_schedule(2, 3, 3).validate()
        with pytest.raises(ValueError, match="at least 4"):
            self.eval_schedule(2, 2.5, 2.9).validate()
        best, _ = cyclic_search(tiny_config, self.eval_schedule(2, 3, 4), 0)
        assert best.birth_step == 4
        # wall-clock budgets cannot be checked ahead of the run
        SearchSchedule(total_budget=Budget("wallclock_seconds", 1)).validate()


class TestPopulation:
    def test_fifo_eviction_ignores_fitness(self, tiny_config):
        # oldest member has the best score; it must still be evicted first
        scores = [9.0, 1.0, 2.0, 3.0]
        pop = population(tiny_config, 3,
                         [make_ind(s, birth=i) for i, s in enumerate(scores)])
        assert [m.birth_step for m in pop] == [1, 2, 3]
        pop.append(make_ind(0.0, birth=4))  # as proposal_step admits
        assert [m.birth_step for m in pop] == [2, 3, 4]

    def test_best_and_top(self, tiny_config):
        pop = population(tiny_config, 5, [make_ind(s, birth=i) for i, s
                                          in enumerate([3.0, 5.0, 1.0, 5.0])])
        # as multi_start and cyclic_search pick them; a tie goes to the younger
        assert max(pop, key=ranking("entropic")).birth_step == 3
        assert [m.birth_step for m in sorted(pop, key=ranking("entropic"),
                                             reverse=True)[:2]] == [3, 1]


class TestTournament:
    def test_exhaustive_returns_global_best(self, tiny_config):
        pop = population(tiny_config, 6, [make_ind(s, birth=i) for i, s
                                          in enumerate([1.0, 7.0, 3.0, 2.0])])
        for seed in range(20):
            assert tournament_select(pop, 4, "entropic", seed).birth_step == 1

    def test_k1_is_uniform(self, tiny_config):
        pop = population(tiny_config, 4,
                         [make_ind(float(i), birth=i) for i in range(4)])
        n = 10_000
        counts = [0, 0, 0, 0]
        for seed in range(n):
            counts[tournament_select(pop, 1, "entropic", seed).birth_step] += 1
        sigma = math.sqrt(n * 0.25 * 0.75)
        for c in counts:
            assert abs(c - n / 4) < 3 * sigma, counts

    def test_tie_goes_to_younger(self, tiny_config):
        pop = population(tiny_config, 2, [make_ind(5.0, birth=0),
                                          make_ind(5.0, birth=1)])
        for seed in range(10):
            assert tournament_select(pop, 2, "entropic", seed).birth_step == 1

    def test_errors(self, tiny_config):
        pop = population(tiny_config, 2)
        with pytest.raises(ValueError, match="empty"):
            tournament_select(pop, 1, "entropic", 0)
        pop.append(make_ind(1.0, birth=0))
        with pytest.raises(ValueError, match="exceeds"):
            tournament_select(pop, 2, "entropic", 0)


class TestEvolutionStep:
    def run_steps(self, config, phase, n_steps, crossover_prob):
        schedule = eval_schedule(crossover_prob=crossover_prob)
        engine = SearchEngine(config, schedule, seed=0)
        meter = BudgetMeter(Budget("evaluations", 10_000))
        pop = engine.init_population(6, [meter])
        initial = list(pop)
        for _ in range(n_steps):
            engine.evolution_step(pop, phase, 3, [meter])
        return engine, pop, initial

    def test_capacity_preserved(self, tiny_config):
        engine, pop, _ = self.run_steps(tiny_config, PHASE_TOPOLOGY, 40, 0.5)
        assert len(pop) == 6

    def test_topology_phase_preserves_size_multisets(self, tiny_config):
        engine, pop, initial = self.run_steps(tiny_config, PHASE_TOPOLOGY,
                                              60, 0.0)
        allowed = {size_multiset(m.genome) for m in initial}
        for ind in engine.evaluated:
            assert size_multiset(ind.genome) in allowed

    def test_size_phase_preserves_topology_fields(self, tiny_config):
        engine, pop, initial = self.run_steps(tiny_config, PHASE_SIZE, 60, 0.0)
        allowed = {topology_tuple(m.genome) for m in initial}
        for ind in engine.evaluated:
            assert topology_tuple(ind.genome) in allowed

    def test_feasibility_enforced(self, tiny_config):
        params = sorted(archspace.count_params(g, tiny_config)
                        for g in enumerate_space(tiny_config))
        cap = params[len(params) // 2]  # median: about half the space infeasible
        config = replace(tiny_config, max_params=cap).validate()
        engine, pop, _ = self.run_steps(config, PHASE_TOPOLOGY, 50, 0.5)
        for ind in engine.evaluated:
            assert ind.report.params <= cap

    def test_cap_below_every_genome_refused_at_construction(
            self, tiny_config, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a candidate was scored")

        monkeypatch.setattr(metrics, "score_genome", never)
        config = replace(tiny_config, max_params=10).validate()
        with pytest.raises(archspace.ConfigError,
                           match=r"^space: max_params 10 is below 1160,"):
            SearchEngine(config, eval_schedule(), seed=0)

    def test_draws_that_all_miss_take_the_least_genome(self, tiny_config,
                                                       monkeypatch):
        least = archspace.count_params(archspace.least_genome(tiny_config),
                                       tiny_config)
        config = replace(tiny_config, max_params=least).validate()
        engine = SearchEngine(config, eval_schedule(), seed=0)

        def forbidden(config):
            raise AssertionError("least genome laid out after construction")

        monkeypatch.setattr(archspace, "least_genome", forbidden)
        state = engine.rng.bit_generator.state
        g = engine.random_feasible_genome(tries=0)
        assert engine.rng.bit_generator.state == state  # no draw was made
        # the genome the max_params check counted
        assert g is engine.least_genome
        assert engine.random_feasible_genome(tries=0) is g
        assert archspace.validate(g, config) == []
        assert archspace.count_params(g, config) == least


class TestMultiStart:
    def test_returns_one_seed_per_population(self, tiny_config):
        seeds = SearchEngine(tiny_config, eval_schedule(), seed=1).multi_start()
        assert len(seeds) == 2
        for ind in seeds:
            assert archspace.validate(ind.genome, tiny_config) == []

    def test_deterministic(self, tiny_config):
        def multi_start(seed):
            return SearchEngine(tiny_config, eval_schedule(), seed).multi_start()

        a, b, c = multi_start(5), multi_start(5), multi_start(6)
        assert [i.genome.to_json() for i in a] == [i.genome.to_json() for i in b]
        assert [i.genome.to_json() for i in a] != [i.genome.to_json() for i in c]

    def test_seed_is_best_of_its_population(self, tiny_config):
        engine = SearchEngine(tiny_config, eval_schedule(), seed=2)
        seeds = engine.multi_start()
        done = [e for e in engine.history if e["event"] == "multistart_done"]
        assert len(done) == len(seeds) == 2
        for e, ind in zip(done, seeds):
            assert e["entropic"] == ind.report.entropic


class TestCyclicSearch:
    def test_history_alternates_phases(self, tiny_config):
        best, history = cyclic_search(tiny_config, eval_schedule(), seed=3)
        labels = [e["phase"] for e in history if e["event"] == "phase_done"]
        assert len(labels) >= 2
        expected = [PHASE_TOPOLOGY if i % 2 == 0 else PHASE_SIZE
                    for i in range(len(labels))]
        assert labels == expected

    def test_one_point_space_returns_unique_genome(self, singleton_config):
        best, _ = cyclic_search(singleton_config, eval_schedule(), seed=0)
        unique = archspace.random_genome(singleton_config, 0)
        assert best.genome.to_json() == unique.to_json()

    def test_deterministic_under_evaluation_budgets(self, tiny_config):
        b1, h1 = cyclic_search(tiny_config, eval_schedule(), seed=7)
        b2, h2 = cyclic_search(tiny_config, eval_schedule(), seed=7)
        assert b1.genome.to_json() == b2.genome.to_json()
        assert h1 == h2

    def test_all_steps_feasible(self, tiny_config):
        params = sorted(archspace.count_params(g, tiny_config)
                        for g in enumerate_space(tiny_config))
        cap = params[2 * len(params) // 3]
        config = replace(tiny_config, max_params=cap).validate()
        best, history = cyclic_search(config, eval_schedule(), seed=4)
        assert best.report.params <= cap
        for e in history:
            if e["event"] == "step":
                assert e["params"] <= cap

    def test_finds_near_optimal_in_enumerable_space(self, tiny_config):
        genomes = enumerate_space(tiny_config)
        best, history = cyclic_search(tiny_config, eval_schedule(), seed=11)
        final_metric = next(e for e in history
                            if e["event"] == "search_done")["final_metric"]
        truth = sorted(
            (getattr(metrics.score_genome(g, tiny_config), final_metric),
             g.to_json()) for g in genomes)
        rank = len(truth) - [t[1] for t in truth].index(best.genome.to_json())
        assert rank <= max(2, len(truth) // 20)  # within the top 5 percent

    def test_score_cache_prevents_rescoring(self, tiny_config):
        engine = SearchEngine(tiny_config, eval_schedule(), seed=8)
        g = archspace.random_genome(tiny_config, 0)
        r1 = engine.score(g)
        r2 = engine.score(g)
        assert r1 is r2

    def test_memo_counts_and_scores_each_genome_once(self, tiny_config,
                                                     monkeypatch):
        checked, counted, evaluated, scored = [], [], [], []
        feasible, count_params = SearchEngine.feasible, archspace.count_params
        score, score_genome = SearchEngine.score, metrics.score_genome

        def recording(calls, original, at):
            """original, recording the JSON of its genome argument args[at]"""
            def call(*args, **kwargs):
                calls.append(args[at].to_json())
                return original(*args, **kwargs)
            return call

        # built first: its max_params check counts genomes that no draw made
        engine = SearchEngine(tiny_config, eval_schedule(), seed=8)
        monkeypatch.setattr(SearchEngine, "feasible",
                            recording(checked, feasible, 1))
        monkeypatch.setattr(archspace, "count_params",
                            recording(counted, count_params, 0))
        monkeypatch.setattr(SearchEngine, "score", recording(evaluated, score, 1))
        monkeypatch.setattr(metrics, "score_genome",
                            recording(scored, score_genome, 0))
        engine.cyclic_search()
        assert sorted(counted) == sorted(set(checked))
        assert sorted(scored) == sorted(set(evaluated))
        # the memo was hit, both for counts and for reports
        assert len(checked) > len(counted) and len(evaluated) > len(scored)
        assert len(engine.memo) == len(counted)

    def test_shared_memo_changes_no_search(self, tiny_config):
        def search(seed, memo=None):
            engine = SearchEngine(tiny_config, eval_schedule(), seed)
            if memo is not None:
                engine.memo = memo
            best, history = engine.cyclic_search()
            return (best.genome.to_json(), best.report.to_json(),
                    json.dumps(history))

        memo = {}
        shared = [search(seed, memo) for seed in range(5)]
        assert shared == [search(seed) for seed in range(5)]


def inject_failures(monkeypatch, fails):
    """Make metrics.score_genome raise FloatingPointError at each call n
    (from 1) for which fails(n) holds; returns every call's genome."""
    calls = []
    score_genome = metrics.score_genome

    def scoring(genome, *args, **kwargs):
        calls.append(genome)
        if fails(len(calls)):
            raise FloatingPointError(f"injected at scoring {len(calls)}")
        return score_genome(genome, *args, **kwargs)

    monkeypatch.setattr(metrics, "score_genome", scoring)
    return calls


class TestFailedEvaluation:
    """A FloatingPointError from scoring makes a genome infeasible."""

    def test_is_memoised_as_infeasible_and_logged(self, tiny_config,
                                                   monkeypatch):
        engine = SearchEngine(tiny_config, eval_schedule(), seed=0)
        calls = inject_failures(monkeypatch, lambda n: True)
        g = archspace.random_genome(tiny_config, 0)
        assert engine.score(g) is None
        assert not engine.feasible(g)
        assert len(calls) == 1  # not scored again
        assert engine.memo == {genome_key(g): None}
        assert engine.history == [{
            "event": "eval_failed", "step": 0,
            "genome_hash": archspace.genome_hash(g),
            "reason": "injected at scoring 1"}]

    def test_any_other_error_propagates_and_leaves_no_answer(
            self, tiny_config, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a failed evaluation")

        engine = SearchEngine(tiny_config, eval_schedule(), seed=0)
        monkeypatch.setattr(metrics, "score_genome", broken)
        with pytest.raises(ValueError, match="not a failed evaluation"):
            engine.score(archspace.random_genome(tiny_config, 0))
        assert engine.memo == {} and engine.history == []

    def test_injected_failure_at_the_7th_scoring(self, tiny_config,
                                                 monkeypatch):
        def search():
            engine = SearchEngine(tiny_config, eval_schedule(), seed=8)
            calls = inject_failures(monkeypatch, lambda n: n == 7)
            best, history = engine.cyclic_search()
            return engine, calls, best, history

        engine, calls, best, history = search()
        failed = calls[6]
        [event] = [e for e in history if e["event"] == "eval_failed"]
        assert {k: v for k, v in event.items() if k != "step"} == {
            "event": "eval_failed", "genome_hash": archspace.genome_hash(failed),
            "reason": "injected at scoring 7"}
        assert history[-1]["event"] == "search_done"
        assert engine.memo[genome_key(failed)] is None
        jsons = [g.to_json() for g in calls]
        assert len(set(jsons)) == len(jsons)  # the failed genome is scored once
        assert failed.to_json() not in {i.genome.to_json() for i in engine.evaluated}
        monkeypatch.undo()  # the rerun injects its own 7th failure
        _, _, best_again, history_again = search()
        assert history_again == history and best_again.genome == best.genome

    def test_failed_refill_mutant_falls_back_to_its_parent(self, tiny_config,
                                                           monkeypatch):
        engine = SearchEngine(tiny_config, eval_schedule(), seed=0)
        meter = BudgetMeter(Budget("evaluations", 10_000))
        seeds = list(engine.init_population(3, [meter]))
        inject_failures(monkeypatch, lambda n: True)
        pop = engine.refill_population(seeds, PHASE_SIZE, [meter])
        assert len(pop) == engine.schedule.population_size
        assert {m.genome.to_json() for m in pop} <= {
            s.genome.to_json() for s in seeds}
        assert any(e["event"] == "eval_failed" for e in engine.history)

    def test_failed_evolution_child_is_resampled_then_skipped(
            self, tiny_config, monkeypatch):
        engine = SearchEngine(tiny_config, eval_schedule(infeasible_retries=3),
                              seed=0)
        meter = BudgetMeter(Budget("evaluations", 10_000))
        pop = engine.init_population(4, [meter])
        members, step = list(pop), engine.step
        engine.memo.clear()  # so that a child equal to a member fails too
        calls = inject_failures(monkeypatch, lambda n: True)
        engine.evolution_step(pop, PHASE_TOPOLOGY, 2, [meter])
        assert list(pop) == members and engine.step == step + 1
        assert engine.history[-1] == {"event": "step_skipped", "step": step + 1,
                                      "phase": PHASE_TOPOLOGY,
                                      "reason": "infeasible"}
        # 4 draws, each scored once unless an earlier draw was the same genome
        assert len(calls) == len(engine.memo) and 1 <= len(calls) <= 4
        assert sum(e["event"] == "eval_failed"
                   for e in engine.history) == len(calls)

    def test_failed_least_genome_is_a_skipped_draw(self, tiny_config,
                                                   monkeypatch):
        least = archspace.count_params(archspace.least_genome(tiny_config),
                                       tiny_config)
        config = replace(tiny_config, max_params=least).validate()
        engine = SearchEngine(config, eval_schedule(), seed=0)
        inject_failures(monkeypatch, lambda n: True)
        meter = BudgetMeter(Budget("evaluations", 3))
        assert not engine.init_population(2, [meter])
        assert engine.step == 3 and engine.evaluated == []
        assert engine.memo[genome_key(engine.least_genome)] is None
        with pytest.raises(archspace.ConfigError,
                           match="every genome proposed to it failed"):
            SearchEngine(config, eval_schedule(), seed=0).multi_start()


class TestGenomeKey:
    def test_equal_exactly_when_the_json_is(self, tiny_config, attn_config):
        genomes = (enumerate_space(tiny_config)
                   + [archspace.random_genome(attn_config, s) for s in range(50)])
        # equal copies that are distinct objects
        genomes += [archspace.ArchGenome.from_json(g.to_json()) for g in genomes]
        pairs = {(genome_key(g), g.to_json()) for g in genomes}
        assert len(pairs) == len({k for k, _ in pairs}) == len({j for _, j in pairs})

    def test_stage_boundaries_and_config_ref_are_part_of_it(self, attn_config):
        genome = archspace.random_genome(attn_config, 0)
        (a,), (b, c) = genome.stages
        moved = replace(genome, stages=[[a, b], [c]])
        other_ref = replace(genome, config_ref=genome.config_ref + "x")
        for other in (moved, other_ref):
            assert other.to_json() != genome.to_json()
            assert genome_key(other) != genome_key(genome)
