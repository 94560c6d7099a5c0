"""The iterative self-training loop: extract, generate, train, parse, select.

Iteration 0 trains the parser on source data alone.  Every later iteration
folds its new trees into one running count of the training set (source plus
accepted pseudo-trees): its rules weight the prompts, which thus drift toward
the target domain, and under ``update_reference`` it is the selection
reference.  The iteration then generates a fresh candidate pool, parses it
with the current parser, selects the top K under the configured criterion,
retrains on the whole training set (the PCFG backend counts only the trees
added since its last call, and gets the model a full recount would), and
evaluates on the held-out dev sets, whose sentences are built once per run.
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

from .errors import ConfigError, GenerationError, SpsError
from .errors import boolean, int_at_least, non_negative_number
from .evaluation import ScoreOptions, score_corpus
from .generator import PromptConfig, corpus_stats, sample_prompt
from .rules import RuleDistribution, extract_corpus_rules, token_counts
from .seeding import substream
from .selection import CriterionConfig, SelectionRefs, score, select_top_k
from .treebank import read_json, read_treebank, write_json, write_treebank

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
    out_dir: str | os.PathLike | None = None

    def __post_init__(self):
        int_at_least("iterations", self.iterations, 0)
        int_at_least("pool_size", self.pool_size, 1)
        int_at_least("seed", self.seed)
        boolean("update_reference", self.update_reference)
        out_dir = self.out_dir
        if out_dir == "" or not isinstance(out_dir, (str, os.PathLike, type(None))):
            raise ConfigError(
                f"'out_dir' must be a non-empty string or a path, got {out_dir!r}"
            )
        if self.update_reference and self.criterion.reference_name in (
            None, "converted_target_rules"
        ):
            raise ConfigError(
                f"'update_reference' has no effect under criterion "
                f"{self.criterion.kind!r}, whose reference is not the source treebank"
            )
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
            return json.loads(json.dumps(data, sort_keys=True, default=sorted))

        return {
            "iterations": self.iterations,
            "pool_size": self.pool_size,
            "k": self.criterion.k,
            "seed": self.seed,
            "criterion": jsonable(dataclasses.asdict(self.criterion)),
            "prompt_config": jsonable(dataclasses.asdict(self.prompt_config)),
            "score_options": jsonable(dataclasses.asdict(self.score_options)),
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


@dataclass
class RunManifest:
    config: dict
    records: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    status: str = "running"
    version: int = MANIFEST_VERSION

    @classmethod
    def load(cls, path):
        """Read a manifest; a ConfigError naming ``path`` if it cannot be read
        or is no JSON object, its version is not ``MANIFEST_VERSION``, a key is
        missing, a record is no ``IterationRecord`` with values of its types,
        or ``artifacts`` lacks the selected trees of a record after the first.
        So a damaged manifest stops ``run``, ``run_multiseed`` and ``report``."""
        try:
            data = read_json(path)
        except SpsError as e:
            raise ConfigError(str(e)) from None
        if not isinstance(data, dict):
            raise ConfigError(f"manifest {path} is not a JSON object")
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in data]
        if missing:
            raise ConfigError(f"manifest {path} is missing {', '.join(missing)}")
        if data["version"] != MANIFEST_VERSION:
            raise ConfigError(
                f"manifest {path} has version {data['version']!r}, "
                f"not {MANIFEST_VERSION}"
            )
        records, artifacts = data["records"], data["artifacts"]
        try:
            if not isinstance(records, list):
                raise ConfigError(f"'records' must be a list, got {records!r}")
            records = [_record_of(f"records[{i}]", r) for i, r in enumerate(records)]
            names = {f"selected_iter_{r.iteration}" for r in records[1:]}
            if not isinstance(artifacts, dict) or names - artifacts.keys() or not all(
                isinstance(name, str) for name in artifacts.values()
            ):
                raise ConfigError(
                    f"'artifacts' must be an object of strings holding {sorted(names)}"
                )
        except ConfigError as e:
            raise ConfigError(f"manifest {path}: {e}") from None
        return cls(data["config"], records, artifacts, data["status"], data["version"])


def _record_of(where, data):
    """The IterationRecord of a manifest's record ``data``; a ConfigError
    naming ``where`` and the key for another key or a value of another type."""
    fields = sorted(f.name for f in dataclasses.fields(IterationRecord))
    if not isinstance(data, dict) or sorted(data) != fields:
        raise ConfigError(f"{where!r} must have exactly the keys {', '.join(fields)}")
    for key in ("iteration", "pool_size", "k", "train_size", "seed"):
        int_at_least(f"{where}.{key}", data[key])
    for key, kind in (("selected_ids", list), ("criterion", str)):
        if not isinstance(data[key], kind):
            raise ConfigError(f"'{where}.{key}' must be a {kind.__name__}")
    for i, value in enumerate(data["selected_ids"]):
        int_at_least(f"{where}.selected_ids[{i}]", value)
    for key in ("dev_f1_source", "dev_f1_target"):
        if data[key] is not None:
            non_negative_number(f"{where}.{key}", data[key])
    return IterationRecord(**data)


def build_refs(cfg, source_trees=None, converted_target_trees=None):
    """The reference distribution the criterion ``cfg`` draws on.

    Only that one reference is built, featurized as ``cfg`` featurizes its
    candidates: the token or rule distribution of ``source_trees``, or the
    rule distribution of ``converted_target_trees`` (none for ``conf``).
    Rules leave out ``cfg.exclude_labels``.  When the corpus is not given the
    reference stays None, so scoring fails with a ConfigError naming it.
    """
    name = cfg.reference_name
    corpus = source_trees
    if name == "converted_target_rules":
        corpus = converted_target_trees
    if not (name and corpus):
        return SelectionRefs()
    if cfg.mode == "tokens":
        return _refs(cfg, token_counts(corpus))
    return _refs(cfg, extract_corpus_rules(corpus, exclude_labels=cfg.exclude_labels))


def _refs(cfg, counts):
    """``SelectionRefs`` holding only ``cfg``'s reference, the distribution of
    ``counts``."""
    return SelectionRefs(**{cfg.reference_name: RuleDistribution(counts)})


def _record(experiment, model, devs, **fields):
    """An iteration's manifest record, with ``model``'s F1 on the source and
    target dev sets ``devs``, each a (golds, their sentences) pair or None."""

    def dev_f1(dev):
        if dev is None:
            return None
        golds, sentences = dev
        backend = experiment.parser_backend
        preds = [backend.parse(model, sentence).tree for sentence in sentences]
        return round(score_corpus(preds, golds, experiment.score_options).f1, 4)

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
    seen = set(excluded)
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
            key = sentence.tokens
            if key in seen:
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
    write_json(
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
            write_json(os.path.join(out_dir, MANIFEST_NAME), manifest)

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
                try:
                    train_set += read_treebank(os.path.join(out_dir, name))
                except SpsError as e:
                    raise ConfigError(f"manifest {manifest_path}: {e}") from None
            manifest.status = "running"

    devs = [
        (golds, [g.sentence() for g in golds]) if golds else None
        for golds in (experiment.source_dev, experiment.target_dev)
    ]
    excluded = {s.tokens for dev in devs if dev for s in dev[1]}
    excluded.update(s.tokens for s in experiment.exclude_sentences)
    example_pool = [s for s in experiment.target_examples if s.tokens not in excluded]
    if not example_pool:
        raise ConfigError("no target example sentences survive dev/test exclusion")

    criterion = experiment.criterion
    if not experiment.update_reference:
        refs = build_refs(
            criterion, experiment.source_trees, experiment.converted_target_trees
        )
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
            stats = corpus_stats(
                train_set[stats.trees if stats else 0:],
                exclude_labels=criterion.exclude_labels,
                base=stats,
            )
            if experiment.update_reference:
                tokens = criterion.mode == "tokens"
                refs = _refs(
                    criterion, stats.token_counts if tokens else stats.rule_counts
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
            scored = score(candidates, criterion, refs)
            selected = select_top_k(scored, criterion)
            index = {id(c): i for i, c in enumerate(candidates)}

            train_set = train_set + [p.tree for p in selected]
            model = experiment.parser_backend.train(train_set)

            record = _record(
                experiment,
                model,
                devs,
                iteration=iteration,
                pool_size=len(pool),
                selected_ids=[index[id(c)] for c in selected],
                train_size=len(train_set),
            )
            # The record joins the manifest only once the files it names exist.
            if out_dir:
                _persist_iteration(
                    experiment, manifest, iteration, selected, scored, index
                )
            manifest.records.append(record)
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


def run_multiseed(experiment, seeds, resume=False):
    """Independent runs per seed, aggregated into mean F1 per iteration.

    ``resume`` is passed to every ``run``, so a seed whose manifest is
    complete is not run again.  Individual run failures are tolerated: the
    aggregate covers whatever completed, with a warning.  A ConfigError, such
    as a seed's damaged manifest, is no run failure and stops the whole run.
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
            manifests[seed] = run(per_seed, resume=resume)
        except ConfigError:
            raise
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
        "manifests": manifests,
    }
