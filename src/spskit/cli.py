"""Command-line interface: one executable, one subcommand per pipeline stage.

Exit codes: 0 success, 1 data error (bad file content, missing input, failed
run), 2 usage error.  Outputs are written atomically (temp file + rename) and
inputs are never mutated.  Every subcommand ends by printing one
machine-parsable summary line, ``spskit:summary {json}``.  All randomness
flows from ``--seed`` through named substreams.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import selftrain
from .errors import ConfigError, SpsError
from .evaluation import ScoreOptions, score_corpus
from .generator import (
    MockPcfgGenerator,
    PromptConfig,
    ServiceGenerator,
    corpus_stats,
    pcfg_from_treebank,
)
from .mapping import MappingTable, convert_corpus
from .parser import ParserModel, PcfgBackend, PseudoTree, TrainConfig, parse_pool, train
from .rules import export_rules, extract_corpus_rules
from .seeding import substream
from .segmentation import Lexicon, SplitTable, transfer_corpus
from .selection import KINDS, CriterionConfig, score, select_top_k
from .selftrain import Experiment, _write_json
from .treebank import (
    LabelInventory,
    Sentence,
    default_inventory,
    normalize_pos_nodes,
    read_treebank,
    write_text_atomic,
    write_treebank,
)


def _summary(subcommand, **fields):
    print("spskit:summary " + json.dumps({"subcommand": subcommand, **fields}))


def _seed_of(args):
    return args.seed if args.seed is not None else 0


def _check_inputs(*paths):
    for path in paths:
        if path is None:
            continue
        if not os.path.isfile(path):
            raise SpsError(f"input file not found: {path}")
        if not os.access(path, os.R_OK):
            raise SpsError(f"input file not readable: {path}")


def _read_sentences(path):
    sentences = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                sentences.append(Sentence.from_text(line))
            except ValueError as e:
                raise SpsError(f"{path}:{lineno}: {e}") from e
    return sentences


def _read_template(path):
    if not path:
        return None
    _check_inputs(path)
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_inventory(path):
    return LabelInventory.from_json(path) if path else default_inventory()


def cmd_convert(args):
    _check_inputs(args.input, args.table)
    trees = read_treebank(args.input)
    table = MappingTable.from_json(args.table)
    if args.strict:
        table.strict = True
    converted, report = convert_corpus(trees, table)
    write_treebank(converted, args.output)
    if args.report:
        _write_json(args.report, report.to_dict())
    _summary(
        "convert",
        trees=report.trees,
        fallback_count=report.fallback_count,
        output=args.output,
    )
    return 0


def cmd_normalize(args):
    _check_inputs(args.input, args.inventory)
    inventory = _load_inventory(args.inventory)
    trees = read_treebank(args.input, inventory=inventory)
    normalized = [normalize_pos_nodes(t, inventory) for t in trees]
    changed = sum(1 for a, b in zip(trees, normalized) if a != b)
    write_treebank(normalized, args.output)
    _summary("normalize", trees=len(trees), changed=changed, output=args.output)
    return 0


def cmd_transfer_seg(args):
    _check_inputs(args.input, args.lexicon, args.split_table)
    trees = read_treebank(args.input)
    lexicon = Lexicon.from_file(args.lexicon)
    split_table = SplitTable.from_file(args.split_table) if args.split_table else None
    out, report = transfer_corpus(
        trees, lexicon, split_table=split_table, lookahead=args.lookahead
    )
    write_treebank(out, args.output)
    if args.report:
        _write_json(args.report, report.to_dict())
    _summary(
        "transfer-seg",
        trees=len(trees),
        merged=report.merged,
        split=report.split,
        misaligned=len(report.misaligned),
        unmatched=len(report.unmatched_logged),
        output=args.output,
    )
    return 0


def cmd_extract_rules(args):
    _check_inputs(args.input)
    trees = read_treebank(args.input)
    counts = extract_corpus_rules(
        trees, exclude_labels=tuple(args.exclude_labels or ())
    )
    export_rules(counts, path=args.output)
    _summary(
        "extract-rules",
        trees=len(trees),
        distinct_rules=len(counts),
        total_rules=sum(counts.values()),
        output=args.output,
    )
    return 0


def cmd_generate(args):
    _check_inputs(args.stats_from, args.examples, args.mock_treebank)
    stats = corpus_stats(read_treebank(args.stats_from))
    examples = _read_sentences(args.examples)
    template = _read_template(args.template)

    if args.backend == "mock":
        if not args.mock_treebank:
            raise SpsError("--backend mock requires --mock-treebank")
        grammar = pcfg_from_treebank(read_treebank(args.mock_treebank))
        backend = MockPcfgGenerator(
            grammar, seed=_seed_of(args), batch_size=args.batch_size, template=template
        )
    else:
        if not args.endpoint:
            raise SpsError("--backend service requires --endpoint")
        backend = ServiceGenerator(args.endpoint, template=template, seed=args.seed)

    sentences, provenance = selftrain.build_pool(
        backend,
        stats,
        examples,
        args.count,
        substream(_seed_of(args), "cli-generate"),
        PromptConfig(example_count=args.example_count),
        excluded=frozenset(),
    )
    if not sentences:
        raise SpsError("generation produced no sentences")
    write_text_atomic(args.output, "".join(s.text() + "\n" for s in sentences))
    _write_json(args.output + ".provenance.json", provenance)
    _summary(
        "generate",
        sentences=len(sentences),
        requested=args.count,
        backend=args.backend,
        output=args.output,
    )
    return 0


def cmd_train(args):
    _check_inputs(args.input, args.inventory)
    inventory = LabelInventory.from_json(args.inventory) if args.inventory else None
    trees = read_treebank(args.input, inventory=inventory)
    config = TrainConfig(alpha=args.alpha, unk_threshold=args.unk_threshold)
    model = train(trees, config=config, inventory=inventory)
    model.save(args.output)
    _summary(
        "train",
        trees=len(trees),
        rules=len(model.rules),
        lexical=len(model.lexical),
        output=args.output,
    )
    return 0


def cmd_parse(args):
    _check_inputs(args.model, args.input)
    model = ParserModel.load(args.model)
    sentences = _read_sentences(args.input)
    results = parse_pool(model, sentences)
    write_treebank([r.tree for r in results], args.output)
    if args.confidences:
        write_text_atomic(
            args.confidences,
            "".join(f"{r.confidence:.12g}\n" for r in results),
        )
    fallbacks = sum(1 for r in results if r.confidence == 0.0)
    _summary(
        "parse",
        sentences=len(sentences),
        fallbacks=fallbacks,
        output=args.output,
    )
    return 0


def cmd_select(args):
    _check_inputs(
        args.candidates, args.confidences, args.source, args.converted_target
    )
    trees = read_treebank(args.candidates)
    with open(args.confidences, encoding="utf-8") as f:
        lines = [(n, text.strip()) for n, text in enumerate(f, 1) if text.strip()]
    if len(lines) != len(trees):
        raise SpsError(f"{len(trees)} candidate trees but {len(lines)} confidences")
    candidates = []
    for (lineno, line), tree in zip(lines, trees):
        try:
            candidates.append(PseudoTree(tree.sentence(), tree, float(line)))
        except ValueError as e:
            raise SpsError(f"{args.confidences}:{lineno}: {e}") from e

    cfg = CriterionConfig(
        kind=args.criterion,
        k=args.k,
        prefilter_multiplier=args.prefilter_multiplier,
    )
    refs = selftrain.build_refs(
        cfg,
        read_treebank(args.source) if args.source else None,
        read_treebank(args.converted_target) if args.converted_target else None,
    )
    scored = score(candidates, cfg, refs)
    selected = select_top_k(scored, cfg)
    write_treebank([p.tree for p in selected], args.output)
    if args.sidecar:
        index = {id(c): i for i, c in enumerate(candidates)}
        by_id = {index[id(c)]: (c, s) for c, s in scored}
        chosen = {index[id(c)] for c in selected}
        _write_json(
            args.sidecar,
            [
                {
                    "id": cid,
                    "kind": cfg.kind,
                    "score": s,
                    "confidence": c.confidence,
                    "selected": cid in chosen,
                }
                for cid, (c, s) in sorted(by_id.items())
            ],
        )
    _summary(
        "select",
        candidates=len(candidates),
        scorable=len(scored),
        selected=len(selected),
        criterion=cfg.kind,
        output=args.output,
    )
    return 0


def cmd_eval(args):
    _check_inputs(args.pred, args.gold)
    preds = read_treebank(args.pred)
    golds = read_treebank(args.gold)
    opts = ScoreOptions(
        include_root=args.include_root,
        include_pos=args.include_pos,
        exclude_labels=frozenset(args.exclude_labels or ()),
    )
    report = score_corpus(preds, golds, opts)
    print(report.table())
    print(f"F1 {report.f1:.2f}")
    if args.json:
        _write_json(args.json, report.to_dict())
    _summary(
        "eval",
        pairs=len(preds),
        precision=round(report.precision, 2),
        recall=round(report.recall, 2),
        f1=round(report.f1, 2),
    )
    return 0


# The run config's top-level keys.  Its sections "criterion", "parser",
# "prompt" and "score" take the fields of CriterionConfig, TrainConfig,
# PromptConfig and ScoreOptions, whose defaults fill in what a section leaves
# out; "generator" takes "backend", "template" and its backend's keys below.
_RUN_KEYS = frozenset({
    "source_treebank", "target_examples", "converted_target_treebank",
    "source_dev", "target_dev", "exclude", "seed", "seeds", "out_dir",
    "iterations", "pool_size", "update_reference",
    "criterion", "parser", "generator", "prompt", "score",
})
_GENERATOR_KEYS = {
    "mock": ("treebank", "seed", "batch_size", "guide_probability"),
    "service": ("endpoint", "seed", "max_attempts", "requests_per_minute"),
}


def _check_keys(section, where, allowed):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}")


def _from_section(cls, config, name):
    section = config.get(name, {})
    where = f"run config section {name!r}"
    _check_keys(section, where, {f.name for f in dataclasses.fields(cls)})
    try:
        return cls(**section)
    except TypeError as e:  # a missing field or a value of the wrong type
        raise ConfigError(f"{where}: {e}") from e


def _build_generator(config, seed):
    gen_cfg = config.get("generator", {})
    kind = gen_cfg.get("backend", "mock") if isinstance(gen_cfg, dict) else "mock"
    if kind not in _GENERATOR_KEYS:
        raise SpsError(f"unknown generator backend {kind!r}")
    _check_keys(
        gen_cfg,
        f"run config section 'generator' (backend {kind!r})",
        {"backend", "template", *_GENERATOR_KEYS[kind]},
    )
    template = _read_template(gen_cfg.get("template"))
    options = {k: v for k, v in gen_cfg.items() if k not in ("backend", "template")}
    if kind == "service":
        endpoint = options.pop("endpoint", None)
        if not endpoint:
            raise SpsError("generator.backend 'service' requires generator.endpoint")
        return ServiceGenerator(endpoint, template=template, **options)
    grammar_path = options.pop("treebank", None)
    if not grammar_path:
        raise SpsError("generator.backend 'mock' requires generator.treebank")
    _check_inputs(grammar_path)
    grammar = pcfg_from_treebank(read_treebank(grammar_path))
    return MockPcfgGenerator(grammar, template=template, **{"seed": seed, **options})


def _build_experiment(config, seed_override=None, out_dir_override=None):
    _check_keys(config, "the run config", _RUN_KEYS)
    for key in ("source_treebank", "target_examples", "criterion"):
        if key not in config:
            raise SpsError(f"run config is missing {key!r}")
    if not isinstance(config.get("exclude", []), list):
        raise ConfigError(f"'exclude' must be a list, got {config['exclude']!r}")
    criterion = _from_section(CriterionConfig, config, "criterion")
    train_config = _from_section(TrainConfig, config, "parser")
    prompt_config = _from_section(PromptConfig, config, "prompt")
    score_options = _from_section(ScoreOptions, config, "score")
    _check_inputs(
        config["source_treebank"],
        config["target_examples"],
        config.get("converted_target_treebank"),
        config.get("source_dev"),
        config.get("target_dev"),
    )

    def optional_treebank(key):
        return read_treebank(config[key]) if config.get(key) else None

    exclude = []
    for path in config.get("exclude", []):
        _check_inputs(path)
        exclude.extend(t.sentence() for t in read_treebank(path))

    if config.get("seeds") is not None:
        selftrain.check_seeds(config["seeds"])
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    options = {
        key: config[key]
        for key in ("iterations", "pool_size", "update_reference")
        if key in config
    }
    return Experiment(
        source_trees=read_treebank(config["source_treebank"]),
        target_examples=_read_sentences(config["target_examples"]),
        parser_backend=PcfgBackend(train_config),
        generator_backend=_build_generator(config, seed),
        criterion=criterion,
        seed=seed,
        converted_target_trees=optional_treebank("converted_target_treebank"),
        source_dev=optional_treebank("source_dev"),
        target_dev=optional_treebank("target_dev"),
        exclude_sentences=tuple(exclude),
        prompt_config=prompt_config,
        score_options=score_options,
        out_dir=out_dir_override or config.get("out_dir"),
        **options,
    )


def cmd_self_train(args):
    _check_inputs(args.config)
    with open(args.config, encoding="utf-8") as f:
        config = json.load(f)

    seeds = config.get("seeds")
    if args.seed is not None:
        seeds = None  # an explicit seed runs exactly one run

    experiment = _build_experiment(
        config, seed_override=args.seed, out_dir_override=args.out_dir
    )

    if seeds:
        aggregate = selftrain.run_multiseed(experiment, seeds)
        out_dir = experiment.out_dir
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            _write_json(os.path.join(out_dir, "aggregate.json"), aggregate)
        _summary(
            "self-train",
            seeds=aggregate["seeds"],
            iterations=aggregate["iterations"],
            mean_target_f1=aggregate["mean_target_f1"],
            mean_source_f1=aggregate["mean_source_f1"],
        )
        return 0

    manifest = selftrain.run(experiment, resume=args.resume)
    last = manifest.records[-1]
    _summary(
        "self-train",
        iterations=len(manifest.records) - 1,
        train_size=last.train_size,
        dev_f1_source=last.dev_f1_source,
        dev_f1_target=last.dev_f1_target,
        status=manifest.status,
        out_dir=experiment.out_dir,
    )
    return 0


def cmd_report(args):
    rows = []
    for path in args.manifest:
        _check_inputs(path)
        manifest = selftrain.RunManifest.load(path)
        for record in manifest.records:
            rows.append((path, record))
    header = f"{'manifest':<32} {'iter':>4} {'train':>7} {'src F1':>8} {'tgt F1':>8}"
    print(header)
    for path, record in rows:
        src = "-" if record.dev_f1_source is None else f"{record.dev_f1_source:.2f}"
        tgt = "-" if record.dev_f1_target is None else f"{record.dev_f1_target:.2f}"
        name = os.path.basename(os.path.dirname(path) or path) or path
        print(
            f"{name:<32} {record.iteration:>4} {record.train_size:>7} "
            f"{src:>8} {tgt:>8}"
        )
    _summary("report", manifests=len(args.manifest), rows=len(rows))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spskit",
        description="Cross-domain SPS parsing pipeline tools",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="base random seed (default 0)"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    class _Sub:
        """Registers --seed on every subcommand too, so it may be given after
        the subcommand name without clobbering the global."""

        def add_parser(self, *args, **kwargs):
            p = subparsers.add_parser(*args, **kwargs)
            p.add_argument(
                "--seed", type=int, default=argparse.SUPPRESS, help="base random seed"
            )
            return p

    sub = _Sub()

    p = sub.add_parser("convert", help="apply a mapping table to a treebank")
    p.add_argument("--input", required=True, help="constituency treebank file")
    p.add_argument("--table", required=True, help="mapping table JSON")
    p.add_argument("--output", required=True, help="converted treebank file")
    p.add_argument("--report", help="conversion report JSON")
    p.add_argument(
        "--strict", action="store_true", help="error on unmapped nodes"
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("normalize", help="splice out POS nodes above internal nodes")
    p.add_argument("--input", required=True)
    p.add_argument("--inventory", help="label inventory JSON (default: shipped)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("transfer-seg", help="word-segmentation granularity transfer")
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", required=True, help="one word per line")
    p.add_argument("--split-table", help="TSV: word TAB space-joined parts")
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="transfer report JSON")
    p.add_argument("--lookahead", type=int, default=3)
    p.set_defaults(func=cmd_transfer_seg)

    p = sub.add_parser("extract-rules", help="export syntactic rules as text")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--exclude-labels", nargs="*", default=[])
    p.set_defaults(func=cmd_extract_rules)

    p = sub.add_parser("generate", help="generate raw sentences for a pool")
    p.add_argument("--stats-from", required=True, help="treebank for prompt stats")
    p.add_argument("--examples", required=True, help="sentence file for prompts")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--backend", choices=["mock", "service"], default="mock")
    p.add_argument("--mock-treebank", help="treebank defining the mock grammar")
    p.add_argument("--endpoint", help="completion service URL")
    p.add_argument("--template", help="prompt template file")
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--example-count", type=int, default=3)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the PCFG parser backend")
    p.add_argument("--input", required=True)
    p.add_argument("--inventory")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--unk-threshold", type=int, default=1)
    p.add_argument("--output", required=True, help="model JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--output", required=True)
    p.add_argument("--confidences", help="write one confidence per line")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("select", help="rank candidates and keep the top K")
    p.add_argument("--candidates", required=True, help="candidate treebank")
    p.add_argument("--confidences", required=True, help="one confidence per line")
    p.add_argument(
        "--criterion",
        required=True,
        choices=list(KINDS),
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prefilter-multiplier", type=int, default=2)
    p.add_argument("--source", help="source treebank for token/srs references")
    p.add_argument("--converted-target", help="converted target treebank for csrs")
    p.add_argument("--output", required=True)
    p.add_argument("--sidecar", help="scores sidecar JSON")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("self-train", help="run the full self-training loop")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out-dir", help="override the config's out_dir")
    p.set_defaults(func=cmd_self_train)

    p = sub.add_parser("eval", help="labeled bracket F1 against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--include-root", action="store_true")
    p.add_argument("--include-pos", action="store_true")
    p.add_argument("--exclude-labels", nargs="*", default=[])
    p.add_argument("--json", help="write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="tabulate one or more run manifests")
    p.add_argument("--manifest", nargs="+", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (SpsError, OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"spskit: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
