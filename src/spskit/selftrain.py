"""The iterative self-training loop: extract, generate, train, parse, select.

Iteration 0 trains the parser on source data alone.  Every later iteration
re-extracts syntactic rules from the current training set (source plus
accepted pseudo-trees, so prompts drift toward the target domain), generates
a fresh candidate pool, parses it with the current parser, selects the top K
under the configured criterion, appends them to the pseudo-tree set, retrains
on the whole training set (the PCFG backend counts only the trees added since
its last call, and gets the model a full recount would), and evaluates on the
held-out dev sets, whose sentences and gold spans are built once per run.
Accepted pseudo-trees persist for all later iterations.  The parser backend
needs only ``train(trees)`` and ``parse(model, sentence)``: the pool and the
dev sets are parsed one sentence at a time, in this process.

Dev and test sentences are barred from the prompt example pool and from the
candidate pool by token-sequence hash, so they can never leak into training.
All randomness flows from the run seed through per-iteration substreams,
which also makes interrupted runs resumable: the manifest and the selected
trees are persisted after every iteration, and a resumed run replays the
accepted trees and continues with the exact substreams a straight run would
have used.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConfigError, GenerationError, boolean, int_at_least
from .evaluation import ScoreOptions, score_corpus, spans
from .generator import PromptConfig, corpus_stats, sample_prompt
from .rules import RuleDistribution, extract_corpus_rules, token_counts
from .seeding import substream
from .selection import CriterionConfig, SelectionRefs, score, select_top_k
from .treebank import read_treebank, write_text_atomic, write_treebank

__all__ = [
    "Experiment", "IterationRecord", "RunManifest", "build_pool", "build_refs",
    "check_seeds", "run", "run_multiseed",
]

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


@dataclass
class Experiment:
    """Everything one self-training run needs, as in-memory objects."""

    source_trees: list
    target_examples: list          # Sentence pool for prompt examples
    parser_backend: object
    generator_backend: object
    criterion: CriterionConfig
    iterations: int = 4
    pool_size: int = 10000
    seed: int = 0
    converted_target_trees: list | None = None
    source_dev: list | None = None
    target_dev: list | None = None
    exclude_sentences: tuple = ()  # e.g. test sets, barred like the dev sets
    prompt_config: PromptConfig = field(default_factory=PromptConfig)
    score_options: ScoreOptions = field(default_factory=ScoreOptions)
    update_reference: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        int_at_least("iterations", self.iterations, 0)
        int_at_least("pool_size", self.pool_size, 1)
        int_at_least("seed", self.seed)
        boolean("update_reference", self.update_reference)
        if not self.source_trees:
            raise ConfigError("source treebank is empty")
        if (
            self.criterion.reference_name == "converted_target_rules"
            and not self.converted_target_trees
        ):
            raise ConfigError(
                f"criterion {self.criterion.kind!r} needs converted_target_trees"
            )

    def config_snapshot(self):
        def jsonable(data):
            return json.loads(json.dumps(data, sort_keys=True, default=list))

        return {
            "iterations": self.iterations,
            "pool_size": self.pool_size,
            "k": self.criterion.k,
            "seed": self.seed,
            "criterion": jsonable(dataclasses.asdict(self.criterion)),
            "prompt_config": jsonable(dataclasses.asdict(self.prompt_config)),
            "score_options": {
                "include_root": self.score_options.include_root,
                "include_pos": self.score_options.include_pos,
                "exclude_labels": sorted(self.score_options.exclude_labels),
            },
            "update_reference": self.update_reference,
            "parser_backend": getattr(self.parser_backend, "name", "custom"),
            "generator_backend": getattr(self.generator_backend, "name", "custom"),
            "source_size": len(self.source_trees),
            "example_pool_size": len(self.target_examples),
            "converted_target_size": (
                len(self.converted_target_trees)
                if self.converted_target_trees
                else 0
            ),
        }


@dataclass
class IterationRecord:
    iteration: int
    pool_size: int
    k: int
    criterion: str
    selected_ids: list
    train_size: int
    dev_f1_source: float | None
    dev_f1_target: float | None
    seed: int

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclass
class RunManifest:
    config: dict
    records: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    status: str = "running"
    version: int = MANIFEST_VERSION

    def to_dict(self):
        return {
            "version": self.version,
            "status": self.status,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "artifacts": self.artifacts,
        }

    def save(self, path):
        _write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        return cls(
            config=data["config"],
            records=[IterationRecord.from_dict(r) for r in data["records"]],
            artifacts=data["artifacts"],
            status=data["status"],
            version=data["version"],
        )


def _write_json(path, data):
    text = json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True)
    write_text_atomic(path, text + "\n")


def _sentence_key(sentence):
    return tuple(sentence.tokens)


def build_refs(cfg, source_trees=None, converted_target_trees=None):
    """The reference distribution the criterion ``cfg`` draws on.

    Only that one reference is built, featurized as ``cfg`` featurizes its
    candidates: the token or rule distribution of ``source_trees``, or the
    rule distribution of ``converted_target_trees`` (none for ``conf``).
    Rules leave out ``cfg.exclude_labels``.  When the corpus is not given the
    reference stays None, so scoring fails with a ConfigError naming it.
    """
    refs = SelectionRefs()
    name = cfg.reference_name
    corpus = source_trees
    if name == "converted_target_rules":
        corpus = converted_target_trees
    if name and corpus:
        if cfg.mode == "tokens":
            counts = token_counts(corpus)
        else:
            counts = extract_corpus_rules(corpus, exclude_labels=cfg.exclude_labels)
        setattr(refs, name, RuleDistribution(counts))
    return refs


class _DevSet(NamedTuple):
    """A dev set's gold trees with their sentences and gold spans, built once
    per run and scored every iteration."""

    golds: list
    sentences: list
    gold_spans: list


def _dev_set(golds, opts):
    """The ``_DevSet`` of ``golds``; None for a missing or empty set."""
    if not golds:
        return None
    return _DevSet(golds, [g.sentence() for g in golds], [spans(g, opts) for g in golds])


def _record(experiment, model, devs, **fields):
    """An iteration's manifest record, with ``model``'s F1 on the source and
    target dev sets ``devs`` (each from ``_dev_set``)."""

    def dev_f1(dev):
        if dev is None:
            return None
        backend = experiment.parser_backend
        preds = [backend.parse(model, sentence).tree for sentence in dev.sentences]
        report = score_corpus(
            preds, dev.golds, experiment.score_options, gold_spans=dev.gold_spans
        )
        return round(report.f1, 4)

    source, target = devs
    return IterationRecord(
        k=experiment.criterion.k,
        criterion=experiment.criterion.kind,
        dev_f1_source=dev_f1(source),
        dev_f1_target=dev_f1(target),
        seed=experiment.seed,
        **fields,
    )


def build_pool(generator, stats, examples, size, rng, prompt_config, excluded):
    """Generate up to ``size`` distinct candidate sentences.

    Prompts are drawn from ``rng``; sentences whose token sequence is in
    ``excluded`` or already pooled are dropped.  Twenty generation failures in
    a row, or ``50 + 10 * size`` batches, end the pool early.  Returns the
    pool and the provenance of every batch the backend returned.
    """
    pool = []
    provenance = []
    seen = set()
    failures = 0
    max_failures = 20
    max_batches = 50 + 10 * size
    batches = 0
    while len(pool) < size and batches < max_batches:
        batches += 1
        spec = sample_prompt(stats, examples, rng, config=prompt_config)
        try:
            batch = generator.generate(spec)
        except GenerationError as e:
            failures += 1
            log.warning("generation failed (%d in a row): %s", failures, e)
            if failures >= max_failures:
                log.warning("giving up at %d/%d sentences", len(pool), size)
                break
            continue
        failures = 0
        provenance.append(batch.provenance)
        for sentence in batch.sentences:
            key = _sentence_key(sentence)
            if key in excluded or key in seen:
                continue
            seen.add(key)
            pool.append(sentence)
            if len(pool) >= size:
                break
    return pool, provenance


def _persist_iteration(experiment, manifest, iteration, selected, scored, index):
    """Write an iteration's selected trees and its scores sidecar into out_dir."""
    tree_name = f"selected_iter_{iteration}.txt"
    write_treebank(
        [p.tree for p in selected], os.path.join(experiment.out_dir, tree_name)
    )
    chosen = {id(c) for c in selected}
    sidecar = [
        {
            "id": index[id(c)],
            "kind": experiment.criterion.kind,
            "score": s,
            "confidence": c.confidence,
            "sentence": c.sentence.text(),
        }
        for c, s in scored
        if id(c) in chosen
    ]
    score_name = f"scores_iter_{iteration}.json"
    _write_json(
        os.path.join(experiment.out_dir, score_name),
        sorted(sidecar, key=lambda row: row["id"]),
    )
    # Paths are stored relative to the run directory so manifests stay
    # byte-identical across runs and survive a directory move.
    manifest.artifacts[f"selected_iter_{iteration}"] = tree_name
    manifest.artifacts[f"scores_iter_{iteration}"] = score_name


def run(experiment, resume=False):
    """Execute one self-training run; returns the manifest.

    With ``resume=True`` and a manifest already present in ``out_dir``, the
    completed iterations are replayed from their persisted artifacts and the
    run continues where it stopped; a complete manifest is returned as it is,
    without training the parser.
    """
    manifest = RunManifest(config=experiment.config_snapshot())
    train_set = list(experiment.source_trees)
    out_dir = experiment.out_dir

    def save():
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            manifest.save(os.path.join(out_dir, MANIFEST_NAME))

    if resume:
        if not out_dir:
            raise ConfigError("resume requires out_dir")
        manifest_path = os.path.join(out_dir, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            manifest = RunManifest.load(manifest_path)
            if manifest.config != experiment.config_snapshot():
                raise ConfigError("resume config does not match the stored manifest")
            if manifest.status == "complete":
                return manifest
            for record in manifest.records[1:]:
                name = manifest.artifacts[f"selected_iter_{record.iteration}"]
                train_set += read_treebank(os.path.join(out_dir, name))
            manifest.status = "running"

    devs = tuple(
        _dev_set(golds, experiment.score_options)
        for golds in (experiment.source_dev, experiment.target_dev)
    )
    excluded = {_sentence_key(s) for dev in devs if dev for s in dev.sentences}
    for sentence in experiment.exclude_sentences:
        excluded.add(_sentence_key(sentence))
    example_pool = [
        s for s in experiment.target_examples if _sentence_key(s) not in excluded
    ]
    if not example_pool:
        raise ConfigError("no target example sentences survive dev/test exclusion")

    def current_refs():
        return build_refs(
            experiment.criterion,
            train_set if experiment.update_reference else experiment.source_trees,
            experiment.converted_target_trees,
        )

    refs = current_refs()
    stats = None
    model = experiment.parser_backend.train(train_set)
    if not manifest.records:
        manifest.records.append(
            _record(
                experiment,
                model,
                devs,
                iteration=0,
                pool_size=0,
                selected_ids=[],
                train_size=len(train_set),
            )
        )
        save()

    try:
        for iteration in range(len(manifest.records), experiment.iterations + 1):
            # Fold only the trees added since the last iteration into the stats.
            folded = len(stats.lengths) if stats else 0
            stats = corpus_stats(
                train_set[folded:],
                exclude_labels=experiment.criterion.exclude_labels,
                base=stats,
            )
            pool, _ = build_pool(
                experiment.generator_backend,
                stats,
                example_pool,
                experiment.pool_size,
                substream(experiment.seed, "generate", iteration),
                experiment.prompt_config,
                excluded,
            )
            candidates = [experiment.parser_backend.parse(model, s) for s in pool]
            scored = score(candidates, experiment.criterion, refs)
            selected = select_top_k(scored, experiment.criterion)
            index = {id(c): i for i, c in enumerate(candidates)}

            train_set = train_set + [p.tree for p in selected]
            if experiment.update_reference:
                refs = current_refs()
            model = experiment.parser_backend.train(train_set)

            manifest.records.append(
                _record(
                    experiment,
                    model,
                    devs,
                    iteration=iteration,
                    pool_size=len(pool),
                    selected_ids=[index[id(c)] for c in selected],
                    train_size=len(train_set),
                )
            )
            if out_dir:
                _persist_iteration(
                    experiment, manifest, iteration, selected, scored, index
                )
            save()
    except Exception:
        manifest.status = "aborted"
        save()
        raise

    manifest.status = "complete"
    save()
    return manifest


def check_seeds(seeds):
    """``seeds`` if a list of distinct integers (each run writes ``seed_<n>``)."""
    if not isinstance(seeds, list):
        raise ConfigError(f"'seeds' must be a list of integers, got {seeds!r}")
    for seed in seeds:
        int_at_least("seeds", seed)
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"'seeds' must not repeat a seed, got {seeds!r}")
    return seeds


def run_multiseed(experiment, seeds):
    """Independent runs per seed, aggregated into mean F1 per iteration.

    Individual run failures are tolerated: the aggregate covers whatever
    completed, with a warning.
    """
    seeds = check_seeds(list(seeds))
    if not seeds:
        raise ConfigError("run_multiseed needs at least one seed")

    manifests = {}
    for seed in seeds:
        per_seed = dataclasses.replace(
            experiment,
            seed=seed,
            out_dir=(
                os.path.join(experiment.out_dir, f"seed_{seed}")
                if experiment.out_dir
                else None
            ),
        )
        try:
            manifests[seed] = run(per_seed)
        except Exception as e:  # noqa: BLE001 - partial aggregation is the contract
            log.warning("run with seed %s failed: %s", seed, e)

    if not manifests:
        raise RuntimeError("all seeds failed")
    if len(manifests) < len(seeds):
        log.warning(
            "aggregating %d of %d seeds", len(manifests), len(seeds)
        )

    iterations = min(len(m.records) for m in manifests.values())
    per_seed = {
        seed: {
            "target_f1": [r.dev_f1_target for r in m.records],
            "source_f1": [r.dev_f1_source for r in m.records],
        }
        for seed, m in manifests.items()
    }

    def mean_at(key, i):
        values = [per_seed[s][key][i] for s in manifests]
        if any(v is None for v in values):
            return None
        return sum(values) / len(values)

    return {
        "seeds": sorted(manifests),
        "requested_seeds": seeds,
        "iterations": iterations - 1,
        "per_seed": per_seed,
        "mean_target_f1": [mean_at("target_f1", i) for i in range(iterations)],
        "mean_source_f1": [mean_at("source_f1", i) for i in range(iterations)],
        "manifests": {seed: m.to_dict() for seed, m in manifests.items()},
    }
