"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (untimed by the
body clock, timed as ``setup_s``), runs one timed ``body`` over them, and
checks the body's output in ``check``, which returns an output digest and the
quality numbers for the run record.  A check raises ``CheckFailed`` when an
invariant breaks.  Bodies call spskit through module attributes and backend
objects, so the tracer's patches and proxies see every call.

Each one stresses a different layer:

* ``selftrain_scale``: the paper's whole loop; mock rejection sampling and
  short-sentence CKY dominate.
* ``prepare_treebank``: treebank I/O, rule-table conversion, POS
  normalization and segmentation transfer, the pipeline's first stage.
* ``parse_long``: CKY on 10-18 token sentences, nearly nothing else.
* ``select_wide``: the JS instance distance against a ~2,200-rule reference,
  plus the combined-criterion sort.

BENCHMARK.json gates the first two, which together reach every layer.  The
last two put one mechanism at full size, for the CKY-against-length and
distance-against-reference-size curves of a traced run; their timings
spread too widely across runs on a shared 2-vCPU host to gate a change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import spskit.evaluation as evaluation
import spskit.mapping as mapping
import spskit.segmentation as segmentation
import spskit.selection as selection
import spskit.selftrain as selftrain
import spskit.treebank as treebank
from spskit import synthetic
from spskit.parser import PcfgBackend, PseudoTree
from spskit.rules import RuleDistribution, extract_corpus_rules

import inputs
from tracer import TracedGenerator, TracedParser


class CheckFailed(Exception):
    """An output broke one of the workload's invariants."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_f1(value, what):
    _require(value is not None and 0.0 <= value <= 100.0, f"{what} F1 {value!r} outside [0, 100]")


class SelftrainScale:
    """``selftrain.run`` on the synthetic cross-domain experiment.

    The corpora are the experiment's standard ones (its default data seed, as
    in the ROADMAP baseline); the workload seed is the run seed, which drives
    prompt sampling and generation.  Sized so that a run of the benchmark
    holds many whole loops: pool 150, K 30, four generating iterations,
    criterion ``csrs``.
    """

    root = "selftrain.run"
    sizes = {
        "full": {"pool": 150, "k": 30, "iterations": 4},
        "tiny": {"pool": 30, "k": 6, "iterations": 2},
    }

    def setup(self, seed, size, workdir):
        p = self.sizes[size]
        return synthetic.cross_domain_experiment(
            seed=seed,
            iterations=p["iterations"],
            pool_size=p["pool"],
            k=p["k"],
            criterion_kind="csrs",
            jobs=1,
        )

    def prepare(self, experiment, tracer, rep_dir):
        parser_backend = experiment.parser_backend
        generator_backend = experiment.generator_backend
        if tracer is not None:
            parser_backend = TracedParser(parser_backend, tracer)
            generator_backend = TracedGenerator(generator_backend, tracer)
        return dataclasses.replace(
            experiment,
            parser_backend=parser_backend,
            generator_backend=generator_backend,
            out_dir=rep_dir,
        )

    def body(self, experiment, tracer):
        manifest = selftrain.run(experiment)
        if tracer is not None:
            tracer.count("selftrain.pool_kept", sum(r.pool_size for r in manifest.records))
        return manifest

    def items(self, experiment, manifest):
        return sum(r.pool_size for r in manifest.records)

    def check(self, experiment, manifest):
        records = manifest.records
        _require(manifest.status == "complete", f"run status {manifest.status!r}")
        _require(len(records) == experiment.iterations + 1, "missing iteration records")
        for record in records:
            _check_f1(record.dev_f1_source, f"iteration {record.iteration} source")
            _check_f1(record.dev_f1_target, f"iteration {record.iteration} target")
        for record in records[1:]:
            ids = record.selected_ids
            _require(len(set(ids)) == len(ids), f"iteration {record.iteration}: duplicate ids")
            _require(len(ids) <= record.k, f"iteration {record.iteration}: more than K selected")
            _require(all(0 <= i < record.pool_size for i in ids), "selected id outside the pool")
            out = experiment.out_dir
            trees = treebank.read_treebank(
                os.path.join(out, manifest.artifacts[f"selected_iter_{record.iteration}"])
            )
            with open(os.path.join(out, manifest.artifacts[f"scores_iter_{record.iteration}"]),
                      encoding="utf-8") as f:
                sentence_by_id = {row["id"]: row["sentence"] for row in json.load(f)}
            _require(len(trees) == len(ids), "selected treebank size differs from the ids")
            for cid, tree in zip(ids, trees):
                _require(" ".join(tree.leaves()) == sentence_by_id[cid],
                         f"selected tree {cid}: leaves differ from the sentence tokens")
        digest = _sha256(json.dumps([
            [r.iteration, r.pool_size, r.selected_ids, r.dev_f1_source, r.dev_f1_target]
            for r in records
        ]))
        quality = {
            "target_f1": [r.dev_f1_target for r in records],
            "source_f1": [r.dev_f1_source for r in records],
            "target_f1_final": records[-1].dev_f1_target,
            "source_f1_final": records[-1].dev_f1_source,
        }
        return digest, quality


@dataclasses.dataclass
class ParseInputs:
    model: object
    sentences: list
    gold: list
    backend: object = None


class ParseLong:
    """``parse_pool`` then ``score_corpus`` on held-out 10-18 token sentences
    from a benchmark-owned grammar; the model is trained during setup."""

    root = "bench.body"
    sizes = {
        "full": {"train": 2000, "per_length": 4},
        "tiny": {"train": 200, "per_length": 1},
    }

    def setup(self, seed, size, workdir):
        p = self.sizes[size]
        grammar = inputs.long_grammar()
        train_trees = grammar.sample_corpus(inputs.rng_for(seed, "long-train"), p["train"])
        model = PcfgBackend().train(train_trees)
        lengths = [10 + i % 9 for i in range(9 * p["per_length"])]
        gold = grammar.sample_lengths(inputs.rng_for(seed, "long-heldout"), lengths)
        return ParseInputs(model, [t.sentence() for t in gold], gold)

    def prepare(self, state, tracer, rep_dir):
        backend = PcfgBackend()
        if tracer is not None:
            backend = TracedParser(backend, tracer)
        return dataclasses.replace(state, backend=backend)

    def body(self, state, tracer):
        parsed = state.backend.parse_pool(state.model, state.sentences, jobs=1)
        report = evaluation.score_corpus([p.tree for p in parsed], state.gold)
        return parsed, report

    def items(self, state, output):
        return len(state.sentences)

    def check(self, state, output):
        parsed, report = output
        _require(len(parsed) == len(state.sentences), "a sentence went unparsed")
        lines = []
        for sentence, result in zip(state.sentences, parsed):
            _require(tuple(result.tree.leaves()) == sentence.tokens,
                     f"tree leaves differ from the tokens of {sentence.text()!r}")
            _require(0.0 <= result.confidence <= 1.0, f"confidence {result.confidence!r}")
            lines.append(f"{treebank.serialize(result.tree)}\t{result.confidence.hex()}")
        _check_f1(report.f1, "parse")
        quality = {
            "parse_f1": report.f1,
            "fallbacks": sum(1 for p in parsed if p.confidence == 0.0),
        }
        return _sha256("\n".join(lines)), quality


@dataclasses.dataclass
class SelectInputs:
    candidates: list
    criterion: object
    refs: object


class SelectWide:
    """``selection.select`` with ``csrs_conf`` against a wide reference."""

    root = "bench.body"
    sizes = {
        "full": {"reference": 3000, "candidates": 60, "k": 8},
        "tiny": {"reference": 300, "candidates": 24, "k": 3},
    }

    def setup(self, seed, size, workdir):
        p = self.sizes[size]
        reference = RuleDistribution(extract_corpus_rules(
            inputs.wide_grammar().sample_corpus(inputs.rng_for(seed, "wide-ref"), p["reference"])
        ))
        trees = inputs.wide_grammar(shift=True).sample_corpus(
            inputs.rng_for(seed, "wide-candidates"), p["candidates"])
        rng = inputs.rng_for(seed, "wide-confidence")
        candidates = [PseudoTree(t.sentence(), t, rng.uniform(0.05, 1.0)) for t in trees]
        return SelectInputs(
            candidates,
            selection.CriterionConfig(kind="csrs_conf", k=p["k"]),
            selection.SelectionRefs(converted_target_rules=reference),
        )

    def prepare(self, state, tracer, rep_dir):
        return state

    def body(self, state, tracer):
        return selection.select(state.candidates, state.criterion, state.refs)

    def items(self, state, selected):
        return len(state.candidates)

    def check(self, state, selected):
        index = {id(c): i for i, c in enumerate(state.candidates)}
        ids = [index[id(c)] for c in selected]
        _require(len(set(ids)) == len(ids), "a candidate was selected twice")
        _require(len(ids) == min(state.criterion.k, len(state.candidates)),
                 f"{len(ids)} selected, expected {state.criterion.k}")
        return _sha256(json.dumps(ids)), {"selected": len(ids)}


@dataclasses.dataclass
class TreebankInputs:
    source_path: str
    trees: int
    inventory: object
    table: object
    lexicon: object
    split_table: object
    out_path: str = ""


class PrepareTreebank:
    """read -> convert -> normalize -> segmentation transfer -> write."""

    root = "bench.body"
    sizes = {"full": {"trees": 1500}, "tiny": {"trees": 200}}

    def setup(self, seed, size, workdir):
        n = self.sizes[size]["trees"]
        path = os.path.join(workdir, "source_treebank.txt")
        treebank.write_treebank(
            inputs.treebank_grammar().sample_corpus(inputs.rng_for(seed, "treebank"), n), path)
        return TreebankInputs(
            path, n, inputs.sps_inventory(), inputs.mapping_table(),
            inputs.target_lexicon(), inputs.split_table(),
        )

    def prepare(self, state, tracer, rep_dir):
        return dataclasses.replace(state, out_path=os.path.join(rep_dir, "target_treebank.txt"))

    def body(self, state, tracer):
        trees = treebank.read_treebank(state.source_path)
        converted, conversion = mapping.convert_corpus(trees, state.table)
        normalized = [treebank.normalize_pos_nodes(t, state.inventory) for t in converted]
        transferred, transfer = segmentation.transfer_corpus(
            normalized, state.lexicon, state.split_table)
        treebank.write_treebank(transferred, state.out_path)
        return normalized, transferred, conversion, transfer

    def items(self, state, output):
        return state.trees

    def check(self, state, output):
        normalized, transferred, conversion, transfer = output
        _require(len(transferred) == state.trees, "trees were lost")
        for before, after in zip(normalized, transferred):
            _require("".join(before.leaves()) == "".join(after.leaves()),
                     "segmentation transfer changed the characters of a tree")
        _require(treebank.read_treebank(state.out_path) == transferred,
                 "the written treebank does not read back to the same trees")
        with open(state.out_path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        quality = {
            "conversion_fallbacks": conversion.fallback_count,
            "merged": transfer.merged,
            "misaligned": len(transfer.misaligned),
        }
        return digest, quality


WORKLOADS = {
    "selftrain_scale": SelftrainScale(),
    "parse_long": ParseLong(),
    "select_wide": SelectWide(),
    "prepare_treebank": PrepareTreebank(),
}
