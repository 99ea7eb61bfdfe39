"""Decoupled cyclic evolutionary search with aging tournament selection.

The search runs in two stages: a multi-start warmup (several small
independent populations, entropy-guided) followed by the main loop that
alternates topology and size phases, each driven by its own metric
(topology -> entropic score, size -> logsynflow).  A population is a
bounded deque, so replacement is aging: it evicts the oldest, never the worst.

Initial draws, phase refills and evolution steps are all proposal steps
(``SearchEngine.proposal_step``): each charges one evaluation to its
budget meters and advances ``step``, then scores, records and admits its
genome, if any.  They differ only in how they draw a genome and in what
they do with one over ``max_params``: an initial draw is retried, then
takes the space's least genome, a refill mutant falls back to its parent's
genome, and an evolution child is resampled, then the step is skipped.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import archspace, metrics
from .archspace import PHASE_SIZE, PHASE_TOPOLOGY, ConfigError, ConfigSection, bounded

METRIC_FOR_PHASE = {PHASE_TOPOLOGY: "entropic", PHASE_SIZE: "logsynflow"}


def ranking(metric_name):
    """Sort key of the aging tournament: higher metric first, and on a tie
    the younger individual (later birth step) wins."""
    return lambda m: (getattr(m.report, metric_name), m.birth_step)


@dataclass
class Individual:
    genome: archspace.ArchGenome
    report: metrics.ScoreReport
    birth_step: int


@dataclass
class Budget(ConfigSection):
    kind: str = bounded(choices=("wallclock_seconds", "evaluations"))
    amount: float = bounded(above=0)  # finite: inf or NaN would never run out

    section = "budget"


class BudgetMeter:
    """Consumable view of one Budget; evaluation budgets count proposal steps."""

    def __init__(self, budget):
        self.budget = budget.validate()
        self.spent = 0
        self.t0 = time.monotonic()

    def consume(self, n=1):
        self.spent += n

    def exhausted(self):
        if self.budget.kind == "evaluations":
            return self.spent >= self.budget.amount
        return time.monotonic() - self.t0 >= self.budget.amount


@dataclass
class SearchSchedule(ConfigSection):
    # bad counts crash the search, or skip every step, after scoring began
    multistart_populations: int = bounded(5, least=1)
    multistart_budget: Budget = field(
        default_factory=lambda: Budget("wallclock_seconds", 180))
    phase_budget: Budget = field(
        default_factory=lambda: Budget("wallclock_seconds", 300))
    total_budget: Budget = field(
        default_factory=lambda: Budget("wallclock_seconds", 2700))
    multistart_population_size: int = bounded(25, least=1)
    multistart_tournament_size: int = bounded(5, least=1)
    population_size: int = bounded(50, least=1)
    tournament_size: int = bounded(10, least=1)
    mutations_per_step: int = bounded(2, least=1)
    crossover_prob: float = bounded(0.5, least=0, most=1)
    crossover_in_multistart: bool = True
    seeds_per_phase: int = bounded(5, least=1)
    infeasible_retries: int = bounded(10, least=0)
    scoring_seed: int = 0

    section = "schedule"

    def validate(self):
        super().validate()
        if self.multistart_tournament_size > self.multistart_population_size:
            raise ConfigError("multistart_tournament_size exceeds "
                              "multistart_population_size")
        if self.tournament_size > self.population_size:
            raise ConfigError("tournament_size exceeds population_size")
        budgets = (self.multistart_budget, self.phase_budget, self.total_budget)
        if all(b.kind == "evaluations" for b in budgets):
            # each multi-start population but the last spends its whole
            # multistart_budget; the last needs one evaluation to exist
            need = ((self.multistart_populations - 1)
                    * math.ceil(self.multistart_budget.amount) + 1)
            if math.ceil(self.total_budget.amount) < need:
                raise ConfigError(
                    f"total_budget of {self.total_budget.amount} evaluations "
                    f"cannot give each of the {self.multistart_populations} "
                    f"multistart_populations one evaluation: with a "
                    f"multistart_budget of {self.multistart_budget.amount} "
                    f"evaluations it must be at least {need}")
        return self


def tournament_select(pop, k, metric_name, seed):
    """Sample k distinct members uniformly; return the best by the metric.

    Ties are broken in favour of the younger individual.
    """
    if not pop:
        raise ValueError("tournament on an empty population")
    if k > len(pop):
        raise ValueError(f"tournament size {k} exceeds population {len(pop)}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(pop), size=k, replace=False)
    return max((pop[i] for i in idx), key=ranking(metric_name))


def genome_key(genome):
    """The memo's key: equal for two genomes (of str and int gene values)
    exactly when their to_json() is, and cheaper to build."""
    return genome.config_ref, tuple(
        tuple((g.kind, *vars(g).values()) for g in stage) for stage in genome.stages)


class SearchEngine:
    """One search's step counter, budget meters, history log and memo.

    A report depends only on the genome, space, entropic config and
    scoring_seed, not on the search seed, so ``memo`` (genome_key to
    ``[params, report or None]``) may be shared between engines that agree
    on those three.  A wall-clock total budget counts from construction."""

    def __init__(self, config, schedule, seed, entropic_cfg=None):
        if config.max_params < (least := archspace.least_params(config)):
            raise ConfigError(
                f"space: max_params {config.max_params} is below {least}, the "
                f"least parameter count of any genome in the space")
        self.config = config
        self.schedule = schedule.validate()
        self.entropic_cfg = (entropic_cfg or metrics.EntropicConfig()).validate()
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.step = 0
        self.history = []
        self.memo = {}
        self.total_meter = BudgetMeter(self.schedule.total_budget)
        self.evaluated = []  # every feasible scored individual, in order

    # -- scoring ---------------------------------------------------------

    def score(self, genome):
        key = genome_key(genome)
        if self.memo.get(key, (None, None))[1] is None:
            report = metrics.score_genome(genome, self.config, self.entropic_cfg,
                                          base_seed=self.schedule.scoring_seed)
            self.memo[key] = [report.params, report]
        return self.memo[key][1]

    def feasible(self, genome):
        key = genome_key(genome)
        if key not in self.memo:
            self.memo[key] = [archspace.count_params(genome, self.config), None]
        return self.memo[key][0] <= self.config.max_params

    def _seed(self):
        return int(self.rng.integers(2**63))

    def log(self, event, **fields):
        self.history.append({"event": event, "step": self.step, **fields})

    # -- population construction ----------------------------------------

    @cached_property
    def least_genome(self):
        return archspace.least_genome(self.config)

    def random_feasible_genome(self, tries=200):
        for _ in range(tries):
            g = archspace.random_genome(self.config, self._seed())
            if self.feasible(g):
                return g
        return self.least_genome

    def proposal_step(self, pop, meters, genome):
        """Charge one evaluation to every meter and advance ``step``; then,
        unless ``genome`` is None (a skipped step), score it, record it in
        ``evaluated`` and admit it to ``pop``.  Returns the admitted
        individual, or None."""
        for m in meters:
            m.consume()
        self.step += 1
        if genome is None:
            return None
        ind = Individual(genome=genome, report=self.score(genome),
                         birth_step=self.step)
        self.evaluated.append(ind)
        pop.append(ind)
        return ind

    def init_population(self, size, meters):
        pop = deque(maxlen=size)
        while len(pop) < size and not any(m.exhausted() for m in meters):
            self.proposal_step(pop, meters, self.random_feasible_genome())
        return pop

    def refill_population(self, seeds, phase, meters):
        """Build a phase population from seed individuals plus their mutants;
        an infeasible mutant is replaced by its parent's genome."""
        pop = deque(seeds, maxlen=self.schedule.population_size)
        while len(pop) < pop.maxlen and not any(m.exhausted() for m in meters):
            parent = seeds[int(self.rng.integers(len(seeds)))]
            cand = archspace.mutate(parent.genome, self.config, phase,
                                    self.schedule.mutations_per_step, self._seed())
            self.proposal_step(pop, meters,
                               cand if self.feasible(cand) else parent.genome)
        return pop

    # -- evolution -------------------------------------------------------

    def evolution_step(self, pop, phase, tournament_size, meters,
                       crossover_allowed=True):
        """Produce, score and admit one child; infeasible children are
        resampled up to infeasible_retries times, then the step is skipped."""
        sched = self.schedule
        metric_name = METRIC_FOR_PHASE[phase]
        tournament_size = min(tournament_size, len(pop))
        child = None
        for _ in range(sched.infeasible_retries + 1):
            use_crossover = (crossover_allowed
                             and self.rng.random() < sched.crossover_prob
                             and len(pop) >= 2)
            if use_crossover:
                pa = tournament_select(pop, tournament_size, metric_name, self._seed())
                pb = tournament_select(pop, tournament_size, metric_name, self._seed())
                cand = archspace.crossover(pa.genome, pb.genome, self.config,
                                           self._seed())
            else:
                parent = tournament_select(pop, tournament_size, metric_name,
                                           self._seed())
                cand = archspace.mutate(parent.genome, self.config, phase,
                                        sched.mutations_per_step, self._seed())
            if self.feasible(cand):
                child = cand
                break
        ind = self.proposal_step(pop, meters, child)
        if ind is None:
            self.log("step_skipped", phase=phase, reason="infeasible")
            return
        self.log("step", phase=phase, operator="crossover" if use_crossover
                 else "mutation", params=ind.report.params,
                 macs=ind.report.macs, entropic=ind.report.entropic,
                 logsynflow=ind.report.logsynflow)

    def run_phase(self, pop, phase, tournament_size, meters,
                  crossover_allowed=True):
        while not any(m.exhausted() for m in meters):
            self.evolution_step(pop, phase, tournament_size, meters,
                                crossover_allowed=crossover_allowed)

    # -- top-level stages ------------------------------------------------

    def multi_start(self):
        """Evolve independent warmup populations under the entropy metric only;
        return the best individual of each."""
        sched = self.schedule
        seeds = []
        for p in range(sched.multistart_populations):
            meters = [BudgetMeter(sched.multistart_budget), self.total_meter]
            pop = self.init_population(sched.multistart_population_size, meters)
            if not pop:
                raise ConfigError(f"schedule.multistart_budget or schedule.total_budget"
                                  f" left multi-start population {p} empty")
            self.run_phase(pop, PHASE_TOPOLOGY, sched.multistart_tournament_size,
                           meters, crossover_allowed=sched.crossover_in_multistart)
            best = max(pop, key=ranking("entropic"))
            seeds.append(best)
            self.log("multistart_done", population=p,
                     entropic=best.report.entropic,
                     params=best.report.params)
        return seeds

    def cyclic_search(self):
        """Multi-start seeding, then alternating topology/size phases."""
        sched = self.schedule
        seeds = self.multi_start()
        phase = PHASE_TOPOLOGY
        last_phase = phase
        while not self.total_meter.exhausted():
            meters = [BudgetMeter(sched.phase_budget), self.total_meter]
            pop = self.refill_population(seeds, phase, meters)
            self.run_phase(pop, phase, sched.tournament_size, meters)
            metric_name = METRIC_FOR_PHASE[phase]
            top = sorted(pop, key=ranking(metric_name),
                         reverse=True)[:sched.seeds_per_phase]
            self.log("phase_done", phase=phase,
                     best={"entropic": top[0].report.entropic,
                           "logsynflow": top[0].report.logsynflow,
                           "params": top[0].report.params})
            seeds = top
            last_phase = phase
            phase = PHASE_SIZE if phase == PHASE_TOPOLOGY else PHASE_TOPOLOGY
        final_metric = METRIC_FOR_PHASE[last_phase]
        best = max(self.evaluated, key=ranking(final_metric))
        self.log("search_done", final_metric=final_metric,
                 best_params=best.report.params,
                 best_entropic=best.report.entropic,
                 best_logsynflow=best.report.logsynflow)
        return best, self.history


def cyclic_search(config, schedule, seed, entropic_cfg=None):
    """Run the full decoupled search; returns (best individual, history log)."""
    engine = SearchEngine(config, schedule, seed, entropic_cfg)
    return engine.cyclic_search()
