"""Searchable architecture space: genome encoding, operators, analytic counting.

A genome describes one hybrid conv/attention candidate as a list of stages,
each stage a list of block genes.  Gene fields are split into two disjoint
roles -- topology (block type, kernel size, head count) and size (output
channels, expansion ratio, head dimension) -- so that mutation can be
restricted to one role during a search phase.  Each searched field's role,
message label and domain are defined once, in ``GENE_FIELDS``, and
random_genome, validate, mutate and crossover all read them from there.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

SCHEMA_VERSION = 1

FFN_IBN = "ibn"
FFN_CONVNEXT = "convnext"

PHASE_TOPOLOGY = "topology"
PHASE_SIZE = "size"

# Each searched gene field: its role, its name in violation messages, and its
# domain in 0-based stage si of a config c.
GENE_FIELDS = {
    "ffn_type": (PHASE_TOPOLOGY, "ffn_type", lambda c, si: c.ffn_types),
    "out_channels": (PHASE_SIZE, "channels", lambda c, si: c.channel_domain[si]),
    "expansion_ratio": (PHASE_SIZE, "expansion", lambda c, si: c.expansion_domain),
    "kernel_size": (PHASE_TOPOLOGY, "kernel", lambda c, si: c.kernel_domain),
    "num_heads": (PHASE_TOPOLOGY, "heads", lambda c, si: c.heads_domain),
    "head_dim": (PHASE_SIZE, "head_dim", lambda c, si: c.head_dim_domain),
}


class ConfigError(ValueError):
    """Raised for a config section, key or value that breaks its declared
    type or limits or a cross-field rule; the message names the key."""


def bounded(default=MISSING, *, least=None, most=None, above=None,
            choices=None, increasing=False):
    """A config field's default and the limits ``ConfigSection.validate``
    checks: ``least``/``most`` bound a number, or each number of a list,
    inclusively and ``above`` exclusively; ``choices`` are its allowed
    values, or each item's; an ``increasing`` list of numbers (each list of
    a list of lists) strictly increases.  A list default is copied."""
    limits = dict(least=least, most=most, above=above, choices=choices,
                  increasing=increasing)
    if isinstance(default, list):
        return field(default_factory=lambda: copy.deepcopy(default), metadata=limits)
    return field(default=default, metadata=limits)


@functools.cache
def _declared(cls):
    """(name, type, limits) of each field of a config class; resolving the
    annotations costs ~100 us, so it is done once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata) for f in fields(cls))


def _fits(tp, v):
    """Whether ``v`` is a ``tp``: a number is a finite int or float, not a bool."""
    return (type(v) is tp if tp is not float
            else type(v) in (int, float) and math.isfinite(v))


def _within(v, lim):
    return ((lim.get("least") is None or v >= lim["least"])
            and (lim.get("most") is None or v <= lim["most"])
            and (lim.get("above") is None or v > lim["above"])
            and (not lim.get("choices") or v in lim["choices"]))


def _requirement(tp, lim):
    """What a single value of type ``tp`` within ``lim`` is, in words."""
    if lim.get("choices"):
        return " or ".join(map(repr, lim["choices"]))
    if lim.get("most") is not None:
        return f"a number in [{lim['least']}, {lim['most']}]"
    what = {bool: "true or false", int: "an int", float: "a finite number",
            str: "a string"}.get(tp, "a JSON object")
    if lim.get("least") is not None:
        return f"{what} of at least {lim['least']}"
    return what if lim.get("above") is None else f"{what} > {lim['above']}"


def _problems(name, tp, lim, value):
    """What is wrong with ``value`` as the field ``name`` of type ``tp``
    within the limits ``lim``; a nested section's fields read name.field."""
    origin = typing.get_origin(tp)
    if origin is None:
        if type(value) is tp and isinstance(value, ConfigSection):
            return _section_problems(value, f"{name}.")
        if _fits(tp, value) and _within(value, lim):
            return []
        return [f"{name} must be {_requirement(tp, lim)}, got {value!r}"]
    if type(value) not in (list, origin):  # JSON gives a set field as a list
        return [f"{name} must be a list, got {value!r}"]
    (item,) = typing.get_args(tp)
    if typing.get_origin(item):  # a list of lists: each is checked
        return [p for i, v in enumerate(value)
                for p in _problems(f"{name}[{i}]", item, lim, v)]
    if not value and origin is list:
        return [f"{name} is empty"]
    if not all(_fits(item, v) for v in value):
        kind = "integers" if item is int else "strings"
        return [f"{name} must hold {kind}: {value}"]
    if not all(_within(v, lim) for v in value):
        allowed = (f">= {lim['least']}" if lim.get("least") is not None
                   else f"among {list(lim['choices'])}")
        return [f"{name} must hold values {allowed}: {value}"]
    if lim.get("increasing") and any(b <= a for a, b in zip(value, value[1:])):
        return [f"{name} is not strictly increasing: {value}"]
    return []


def _section_problems(obj, prefix=""):
    """The problems of each field of a config section, named prefix + field."""
    return [p for name, tp, lim in _declared(type(obj))
            for p in _problems(prefix + name, tp, lim, getattr(obj, name))]


def _refuse_unknown(d, known, what, error=ValueError):
    """Raise ``error`` naming each key of ``d`` that is not in ``known``."""
    unknown = [k for k in d if k not in known]
    if unknown:
        raise error(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                    f"known keys: {', '.join(known)}")


class ConfigSection:
    """Base of the config dataclasses.  Each field declares its type by its
    annotation and its limits by ``bounded``; ``validate`` checks every
    field against them (a nested section's too), and a subclass extends it
    with its cross-field rules.  ``section`` names the JSON object."""

    def validate(self):
        problems = _section_problems(self)
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def to_dict(self):
        """The JSON object, a set field as a sorted list; the field order is
        the key order that ``ref`` hashes."""
        return {k: sorted(v) if isinstance(v, set) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d):
        """Build and validate from a JSON object; a set field takes a list."""
        obj = cls._parse(d, cls.section).validate()
        for name, tp, _ in _declared(cls):
            if typing.get_origin(tp) is set:
                setattr(obj, name, set(getattr(obj, name)))
        return obj

    @classmethod
    def _parse(cls, d, section):
        """An unvalidated instance from ``section``'s JSON object ``d``,
        with each nested section parsed under its key; a misspelt key fails
        rather than being dropped for its default."""
        if not isinstance(d, dict):
            raise ConfigError(f"{section} must be a JSON object, got {d!r}")
        _refuse_unknown(d, [name for name, _, _ in _declared(cls)], section, ConfigError)
        missing = [f.name for f in fields(cls) if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"{section} is missing key(s) {', '.join(map(repr, missing))}")
        nested = {name: tp for name, tp, _ in _declared(cls)
                  if typing.get_origin(tp) is None and issubclass(tp, ConfigSection)}
        return cls(**{k: nested[k]._parse(v, k) if k in nested else v
                      for k, v in d.items()})


class InvalidGenomeError(ValueError):
    """Raised when an operation receives a genome that fails validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(self.violations)  # args re-create it when unpickled

    def __str__(self):
        return "; ".join(self.violations)


@dataclass
class SearchSpaceConfig(ConfigSection):
    """Domains and fixed structure of the architecture space.

    channel_domain holds one ordered value list per stage.  Overlapping
    regions of consecutive stage domains must share the same grid points so
    that the channel-monotonicity repair (a global sort of the channel
    multiset) can never move a value into a stage that does not allow it.
    """

    num_stages: int = bounded(4, least=1)
    blocks_per_stage: list[int] = bounded([2, 2, 6, 4], least=1)
    attention_stages: set[int] = field(default_factory=lambda: {3, 4})  # 1-based
    stem_channels: int = bounded(16, least=1)
    channel_domain: list[list[int]] = bounded(
        [[16, 24, 32], [32, 48, 64], [64, 96, 128], [128, 176, 224]],
        least=1, increasing=True)
    # genes take domain values as they are, so domains hold ints
    kernel_domain: list[int] = bounded([3, 5, 7], least=3, increasing=True)
    expansion_domain: list[int] = bounded([2, 3, 4], least=1, increasing=True)
    heads_domain: list[int] = bounded([2, 4, 8], least=1, increasing=True)
    head_dim_domain: list[int] = bounded([8, 16, 32], least=1, increasing=True)
    ffn_types: list[str] = bounded([FFN_IBN, FFN_CONVNEXT],
                                   choices=(FFN_IBN, FFN_CONVNEXT))
    attention_probability: float = bounded(0.5, least=0, most=1)
    input_resolution: int = bounded(224, least=4)
    input_channels: int = bounded(3, least=1)
    max_params: int = bounded(3_500_000, least=1)

    section = "space"

    def validate(self):
        super().validate()
        problems = []
        if len(self.blocks_per_stage) != self.num_stages:
            problems.append(
                f"blocks_per_stage has {len(self.blocks_per_stage)} entries, "
                f"expected num_stages {self.num_stages}"
            )
        if len(self.channel_domain) != self.num_stages:
            problems.append(
                f"channel_domain has {len(self.channel_domain)} stage lists, "
                f"expected num_stages {self.num_stages}"
            )
        if any(k % 2 == 0 for k in self.kernel_domain):
            problems.append(f"kernel_domain must hold odd values >= 3: {self.kernel_domain}")
        for s in self.attention_stages:
            if not 1 <= s <= self.num_stages:
                problems.append(f"attention_stages value {s} is out of range "
                                f"1..{self.num_stages}")
        # Stage ranges that never fall and a shared grid on domain overlaps keep
        # sort-repair closed over the space.
        chans = self.channel_domain
        if any(b[0] < a[0] or b[-1] < a[-1] for a, b in zip(chans, chans[1:])):
            problems.append(f"channel_domain stage ranges must not fall from one "
                            f"stage to the next: {chans}")
        if chans and self.stem_channels > chans[0][0]:
            # a residual pads its input's channels up, never down
            problems.append(f"stem_channels {self.stem_channels} exceeds "
                            f"channel_domain[0]'s least value {chans[0][0]}")
        problems += [f"channel_domain value {v} of stage {i + 1} falls inside the "
                     f"range of stage {j + 1} but is not in its domain"
                     for i, di in enumerate(chans) for j, dj in enumerate(chans)
                     for v in di if i != j and dj[0] <= v <= dj[-1] and v not in dj]
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def ref(self):
        """Stable short identifier of this configuration."""
        payload = json.dumps(self.to_dict(), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


class _Gene:
    """Base of the block genes.  ``searched`` names a gene's GENE_FIELDS in
    the order random_genome draws them."""

    def to_dict(self):
        return {"type": self.kind, **asdict(self)}


@dataclass
class FfnGene(_Gene):
    ffn_type: str
    out_channels: int
    kernel_size: int
    expansion_ratio: int

    kind = "ffn"
    searched = ("ffn_type", "out_channels", "expansion_ratio", "kernel_size")


@dataclass
class AttnGene(_Gene):
    """Attention block gene.  The kernel of its trailing FFN is fixed to 3."""

    ffn_type: str
    out_channels: int
    expansion_ratio: int
    num_heads: int
    head_dim: int

    kind = "attn"
    searched = ("ffn_type", "out_channels", "expansion_ratio", "num_heads", "head_dim")


GENE_TYPES = {cls.kind: cls for cls in (FfnGene, AttnGene)}


@dataclass
class ArchGenome:
    stages: list[list]
    config_ref: str = ""

    def blocks(self):
        """Yield (stage_index, block_index, gene) in network order (0-based)."""
        for si, stage in enumerate(self.stages):
            for bi, gene in enumerate(stage):
                yield si, bi, gene

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "config_ref": self.config_ref,
            "stages": [[g.to_dict() for g in stage] for stage in self.stages],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, d):
        """From a genome JSON object; unknown keys and versions raise ValueError."""
        def gene(g):
            gene_cls = GENE_TYPES.get(g["type"])
            if gene_cls is None:
                raise ValueError(f"unknown gene type {g['type']!r}")
            _refuse_unknown(g, ("type", *gene_cls.__dataclass_fields__), f"{gene_cls.kind} gene")
            return gene_cls(**{f: g[f] for f in gene_cls.__dataclass_fields__})

        if not isinstance(d, dict):
            raise ValueError(f"a genome must be a JSON object, got {d!r}")
        _refuse_unknown(d, ("schema_version", "config_ref", "stages"), "genome")
        v = d.get("schema_version", SCHEMA_VERSION)
        if type(v) is not int or v != SCHEMA_VERSION:  # true and 1.0 equal 1
            raise ValueError(f"genome schema_version {v!r} is not {SCHEMA_VERSION}")
        return cls(stages=[[gene(g) for g in stage] for stage in d["stages"]],
                   config_ref=d.get("config_ref", ""))

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))


def genome_hash(genome):
    """Stable integer digest of the canonical genome JSON."""
    h = hashlib.sha256(genome.to_json().encode()).digest()
    return int.from_bytes(h[:8], "big")


def _draw(rng, config, si, fname):
    """One uniform draw from a field's domain in stage si.  Indexing, unlike
    rng.choice(dom), returns the domain's own int or str."""
    dom = GENE_FIELDS[fname][2](config, si)
    return dom[rng.integers(len(dom))]


def repair_channels(genome):
    """Sort the out_channels sequence non-decreasing in network order.

    Preserves the channel multiset; identity on already-monotone genomes.
    """
    chans = sorted(g.out_channels for _, _, g in genome.blocks())
    it = iter(chans)
    stages = [[replace(g, out_channels=next(it)) for g in stage] for stage in genome.stages]
    return ArchGenome(stages=stages, config_ref=genome.config_ref)


def random_genome(config, seed):
    """Draw a uniform genome; channels are drawn then sorted non-decreasing."""
    rng = np.random.default_rng(seed)
    stages = []
    for si in range(config.num_stages):
        genes = []
        attn_ok = (si + 1) in config.attention_stages
        for _ in range(config.blocks_per_stage[si]):
            is_attn = attn_ok and rng.random() < config.attention_probability
            gene_cls = AttnGene if is_attn else FfnGene
            genes.append(gene_cls(**{f: _draw(rng, config, si, f) for f in gene_cls.searched}))
        stages.append(genes)
    return repair_channels(ArchGenome(stages=stages, config_ref=config.ref()))


def validate(genome, config):
    """Return the list of invariant violations (empty list means valid)."""
    violations = []
    if len(genome.stages) != config.num_stages:
        violations.append(
            f"genome has {len(genome.stages)} stages, expected {config.num_stages}")
        return violations
    for si, stage in enumerate(genome.stages):
        if len(stage) != config.blocks_per_stage[si]:
            violations.append(
                f"stage {si + 1} has {len(stage)} blocks, "
                f"expected {config.blocks_per_stage[si]}")
    net_idx = 0
    prev_ch = None
    for si, bi, g in genome.blocks():
        net_idx += 1
        where = f"stage {si + 1} block {bi + 1}"
        wrong = [f"{k} {v!r}" for k, v in vars(g).items()
                 if k != "ffn_type" and type(v) is not int]
        if wrong:  # the checks below compare integers
            violations.append(f"{where}: not an integer: {', '.join(wrong)}")
            prev_ch = None
            continue
        if isinstance(g, AttnGene) and (si + 1) not in config.attention_stages:
            violations.append(f"{where}: attention block outside attention stages "
                              f"{sorted(config.attention_stages)}")
        for fname in g.searched:
            _, label, domain = GENE_FIELDS[fname]
            v, dom = getattr(g, fname), domain(config, si)
            if v not in dom:
                violations.append(f"{where}: {label} {v!r} not in domain {dom}")
        if prev_ch is not None and g.out_channels < prev_ch:
            violations.append(f"decreasing channels at block {net_idx} "
                              f"({prev_ch} -> {g.out_channels})")
        prev_ch = g.out_channels
    return violations


def mutate(genome, config, phase, n_mutations, seed):
    """Resample n gene fields of the given role uniformly from their domains."""
    if phase not in (PHASE_TOPOLOGY, PHASE_SIZE):
        raise ValueError(f"unknown phase {phase!r}")
    rng = np.random.default_rng(seed)
    slots = [(si, bi, f) for si, bi, g in genome.blocks()
             for f in g.searched if GENE_FIELDS[f][0] == phase]
    n = min(n_mutations, len(slots))
    chosen = [slots[i] for i in rng.choice(len(slots), size=n, replace=False)] if n else []
    stages = [list(stage) for stage in genome.stages]
    for si, bi, fname in chosen:
        stages[si][bi] = replace(stages[si][bi], **{fname: _draw(rng, config, si, fname)})
    return repair_channels(ArchGenome(stages=stages, config_ref=genome.config_ref))


def crossover(parent_a, parent_b, config, seed):
    """Uniform crossover: each gene field comes from either parent with p=1/2.

    At positions where the parents carry different block kinds the whole gene
    is inherited from one parent (fields of the two kinds do not align).
    """
    rng = np.random.default_rng(seed)
    stages = []
    for stage_a, stage_b in zip(parent_a.stages, parent_b.stages):
        genes = []
        for ga, gb in zip(stage_a, stage_b):
            if type(ga) is not type(gb):
                genes.append(ga if rng.random() < 0.5 else gb)
                continue
            picks = {f: getattr(ga if rng.random() < 0.5 else gb, f) for f in ga.searched}
            genes.append(replace(ga, **picks))
        stages.append(genes)
    return repair_channels(ArchGenome(stages=stages, config_ref=parent_a.config_ref))


def count_params(genome, config):
    """Exact scalar parameter count of the instantiated graph.

    Counts on the weight-free graph structure, so no random number is drawn.
    """
    from . import netgraph

    return netgraph.count_graph_params(netgraph.build_structure(genome, config))


def least_genome(config):
    """A genome of the least parameter count in the space.

    Every count grows with a block's channels, expansion, kernel, heads and
    head_dim, so each stage's blocks take its least values of these (the
    least channel values never fall from stage to stage).  With the channels
    fixed, a block's count depends only on its own gene, so each block then
    takes the cheaper of the FFN types and, in an attention stage, of the
    two block kinds: an attention block's FFN has a 3x3 kernel, which can
    make it the cheaper one when the least kernel is larger.
    """
    options = []
    for si in range(config.num_stages):
        ch, e = config.channel_domain[si][0], config.expansion_domain[0]
        kinds = [FfnGene(t, ch, config.kernel_domain[0], e) for t in config.ffn_types]
        if si + 1 in config.attention_stages:
            kinds += [AttnGene(t, ch, e, config.heads_domain[0], config.head_dim_domain[0])
                      for t in config.ffn_types]
        options.append(kinds)
    genome = ArchGenome(stages=[[kinds[0]] * config.blocks_per_stage[si]
                                for si, kinds in enumerate(options)],
                        config_ref=config.ref())
    for si, bi, _ in list(genome.blocks()):
        counts = []
        for gene in options[si]:
            genome.stages[si][bi] = gene
            counts.append(count_params(genome, config))
        genome.stages[si][bi] = options[si][counts.index(min(counts))]
    return genome


def least_params(config):
    """The least parameter count of any genome of the space."""
    return count_params(least_genome(config), config)
