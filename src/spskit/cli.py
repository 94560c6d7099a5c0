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
import functools
import json
import logging
import os
import sys

from . import selftrain
from .errors import ConfigError, SpsError, probability
from .evaluation import ScoreOptions, score_corpus
from .generator import (
    MockPcfgGenerator,
    PromptConfig,
    ServiceGenerator,
    corpus_stats,
    pcfg_from_treebank,
)
from .mapping import MappingTable, convert_corpus
from .parser import ParserModel, PcfgBackend, PseudoTree, TrainConfig, parse, train
from .rules import export_rules, extract_corpus_rules
from .seeding import substream
from .segmentation import Lexicon, SplitTable, transfer_corpus
from .selection import KINDS, CriterionConfig, score, select_top_k
from .selftrain import Experiment
from .treebank import (
    LabelInventory,
    Sentence,
    default_inventory,
    normalize_pos_nodes,
    read_json,
    read_lines,
    read_text,
    read_treebank,
    write_json,
    write_text_atomic,
    write_treebank,
)


def _summary(subcommand, **fields):
    print("spskit:summary " + json.dumps({"subcommand": subcommand, **fields}))


def _seed_of(args):
    return args.seed if args.seed is not None else 0


def _given(args, *names):
    """The named flags that were given: a flag left out leaves its class's default."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _check_inputs(*paths):
    for path in paths:
        if path is None:
            continue
        if not os.path.isfile(path):
            raise SpsError(f"input file not found: {path}")
        if not os.access(path, os.R_OK):
            raise SpsError(f"input file not readable: {path}")


def _check_optional_output(path, flag):
    """Refuse an empty optional output path before anything is written.

    Only leaving ``flag`` out (None) leaves its output out, as for an input.
    The writer refuses "" too, but only after the command's other outputs.
    """
    if path == "":
        raise SpsError(f"{flag} is empty: it must name an output file")


def _read_sentences(path):
    return read_lines(path, lambda _, line: Sentence.from_text(line))


def _optional(read, path):
    """``read(path)``, or None for an input left out: only None leaves it
    out, and any other path, "" included, names a file."""
    return None if path is None else read(path)


def _build_generator(backend, template, treebank=None, **options):
    """The ``backend`` generator, with the prompt template read from the file
    ``template`` names and, for the mock, its grammar from ``treebank``."""
    template = _optional(read_text, template)
    if backend == "service":
        return ServiceGenerator(template=template, **options)
    grammar = pcfg_from_treebank(read_treebank(treebank))
    return MockPcfgGenerator(grammar, template=template, **options)


def cmd_convert(args):
    _check_optional_output(args.report, "--report")
    trees = read_treebank(args.input)
    table = MappingTable.from_json(args.table)
    if args.strict:
        table.strict = True
    converted, report = convert_corpus(trees, table)
    write_treebank(converted, args.output)
    if args.report is not None:
        write_json(args.report, report)
    _summary(
        "convert",
        trees=report.trees,
        fallback_count=report.fallback_count,
        output=args.output,
    )
    return 0


def cmd_normalize(args):
    inventory = _optional(LabelInventory.from_json, args.inventory) or default_inventory()
    trees = read_treebank(args.input, inventory=inventory)
    normalized = [normalize_pos_nodes(t, inventory) for t in trees]
    changed = sum(1 for a, b in zip(trees, normalized) if a != b)
    write_treebank(normalized, args.output)
    _summary("normalize", trees=len(trees), changed=changed, output=args.output)
    return 0


def cmd_transfer_seg(args):
    _check_optional_output(args.report, "--report")
    trees = read_treebank(args.input)
    lexicon = Lexicon.from_file(args.lexicon)
    split_table = _optional(SplitTable.from_file, args.split_table)
    out, report = transfer_corpus(
        trees, lexicon, split_table=split_table, **_given(args, "lookahead")
    )
    write_treebank(out, args.output)
    if args.report is not None:
        write_json(args.report, report)
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
    trees = read_treebank(args.input)
    counts = extract_corpus_rules(
        trees, exclude_labels=tuple(args.exclude_labels or ())
    )
    write_text_atomic(args.output, export_rules(counts))
    _summary(
        "extract-rules",
        trees=len(trees),
        distinct_rules=len(counts),
        total_rules=sum(counts.values()),
        output=args.output,
    )
    return 0


def cmd_generate(args):
    stats = corpus_stats(read_treebank(args.stats_from))
    examples = _read_sentences(args.examples)
    if args.backend == "mock":
        if args.mock_treebank is None:
            raise SpsError("--backend mock requires --mock-treebank")
        options = {"treebank": args.mock_treebank, "seed": _seed_of(args)}
        options.update(_given(args, "batch_size"))
    else:
        if args.endpoint is None:
            raise SpsError("--backend service requires --endpoint")
        options = {"endpoint": args.endpoint, "seed": args.seed}
    backend = _build_generator(args.backend, args.template, **options)
    sentences, provenance = selftrain.build_pool(
        backend,
        stats,
        examples,
        args.count,
        substream(_seed_of(args), "cli-generate"),
        PromptConfig(**_given(args, "example_count")),
        excluded=frozenset(),
    )
    if not sentences:
        raise SpsError("generation produced no sentences")
    write_text_atomic(args.output, "".join(s.text() + "\n" for s in sentences))
    write_json(args.output + ".provenance.json", provenance)
    _summary(
        "generate",
        sentences=len(sentences),
        requested=args.count,
        backend=args.backend,
        output=args.output,
    )
    return 0


def cmd_train(args):
    inventory = _optional(LabelInventory.from_json, args.inventory)
    trees = read_treebank(args.input, inventory=inventory)
    model = train(trees, config=TrainConfig(**_given(args, "alpha", "unk_threshold")))
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
    _check_optional_output(args.confidences, "--confidences")
    model = ParserModel.load(args.model)
    sentences = _read_sentences(args.input)
    results = [parse(model, s) for s in sentences]
    write_treebank([r.tree for r in results], args.output)
    if args.confidences is not None:
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
    _check_optional_output(args.sidecar, "--sidecar")
    trees = read_treebank(args.candidates)
    confidences = read_lines(
        args.confidences, lambda _, line: probability("confidence", float(line))
    )
    if len(confidences) != len(trees):
        raise SpsError(f"{len(trees)} candidate trees but {len(confidences)} confidences")
    candidates = [
        PseudoTree(tree.sentence(), tree, confidence)
        for tree, confidence in zip(trees, confidences)
    ]

    cfg = CriterionConfig(
        kind=args.criterion, k=args.k, **_given(args, "prefilter_multiplier")
    )
    refs = selftrain.build_refs(
        cfg,
        _optional(read_treebank, args.source),
        _optional(read_treebank, args.converted_target),
    )
    scored = score(candidates, cfg, refs)
    selected = select_top_k(scored, cfg)
    write_treebank([p.tree for p in selected], args.output)
    if args.sidecar is not None:
        index = {id(c): i for i, c in enumerate(candidates)}
        chosen = {id(c) for c in selected}
        rows = [
            {
                "id": index[id(c)],
                "kind": cfg.kind,
                "score": s,
                "confidence": c.confidence,
                "selected": id(c) in chosen,
            }
            for c, s in scored
        ]
        write_json(args.sidecar, sorted(rows, key=lambda row: row["id"]))
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
    _check_optional_output(args.json, "--json")
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
    if args.json is not None:
        write_json(args.json, report)
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


def _build_experiment(config, seed_override=None, out_dir_override=None):
    """Check every run-config key and input path, then read the inputs; the
    objects built from them check the values they hold."""
    _check_keys(config, "the run config", _RUN_KEYS)
    gen_cfg = config.get("generator", {})
    backend = gen_cfg.get("backend", "mock") if isinstance(gen_cfg, dict) else "mock"
    if backend not in list(_GENERATOR_KEYS):  # a list: backend may be unhashable
        raise ConfigError(f"'backend' must be 'mock' or 'service', got {backend!r}")
    where = f"run config section 'generator' (backend {backend!r})"
    _check_keys(gen_cfg, where, {"backend", "template", *_GENERATOR_KEYS[backend]})
    if config.get("criterion") is None:
        raise ConfigError("run config is missing 'criterion'")
    criterion = _from_section(CriterionConfig, config, "criterion")
    train_config = _from_section(TrainConfig, config, "parser")
    prompt_config = _from_section(PromptConfig, config, "prompt")
    score_options = _from_section(ScoreOptions, config, "score")
    if config.get("seeds") is not None:
        selftrain.check_seeds(config["seeds"])
    exclude = config.get("exclude", [])
    if not isinstance(exclude, list):
        raise ConfigError(f"'exclude' must be a list, got {exclude!r}")
    # Each path- or URL-valued key and whether it is required; a "generator."
    # key sits in that section.  Null leaves out an optional key, but no
    # exclude entry.
    paths = {}
    for key, required in (
        ("source_treebank", True),
        ("target_examples", True),
        ("converted_target_treebank", False),
        ("source_dev", False),
        ("target_dev", False),
        ("generator.treebank", backend == "mock"),
        ("generator.template", False),
        ("generator.endpoint", backend == "service"),
    ):
        group, _, name = key.rpartition(".")
        paths[key] = (gen_cfg if group else config).get(name)
        if required and paths[key] is None:
            raise ConfigError(f"run config is missing {key!r}")
    given = [(key, path) for key, path in paths.items() if path is not None]
    for key, path in given + [("exclude", path) for path in exclude]:
        if not isinstance(path, str) or not path:
            raise ConfigError(f"{key!r} must be a non-empty string, got {path!r}")
    del paths["generator.endpoint"]  # no file: ServiceGenerator checks the URL
    _check_inputs(*paths.values(), *exclude)

    seed = seed_override if seed_override is not None else config.get("seed", 0)
    options = {k: v for k, v in gen_cfg.items() if k in _GENERATOR_KEYS[backend]}
    if backend == "mock":
        options = {"seed": seed, **options}
    generator = _build_generator(backend, paths["generator.template"], **options)

    def optional_treebank(key):
        return _optional(read_treebank, paths[key])

    return Experiment(
        source_trees=read_treebank(paths["source_treebank"]),
        target_examples=_read_sentences(paths["target_examples"]),
        parser_backend=PcfgBackend(train_config),
        generator_backend=generator,
        criterion=criterion,
        seed=seed,
        converted_target_trees=optional_treebank("converted_target_treebank"),
        source_dev=optional_treebank("source_dev"),
        target_dev=optional_treebank("target_dev"),
        exclude_sentences=tuple(
            tree.sentence() for path in exclude for tree in read_treebank(path)
        ),
        prompt_config=prompt_config,
        score_options=score_options,
        out_dir=config.get("out_dir") if out_dir_override is None else out_dir_override,
        **{
            key: config[key]
            for key in ("iterations", "pool_size", "update_reference")
            if key in config
        },
    )


def cmd_self_train(args):
    config = read_json(args.config)
    experiment = _build_experiment(
        config, seed_override=args.seed, out_dir_override=args.out_dir
    )
    seeds = config.get("seeds") if args.seed is None else None  # --seed: one run
    if seeds:
        aggregate = selftrain.run_multiseed(experiment, seeds, resume=args.resume)
        if experiment.out_dir is not None:
            write_json(os.path.join(experiment.out_dir, "aggregate.json"), aggregate)
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


def _class_default(parser, flag, kind, owner):
    """Add ``flag``, which when left out leaves the default that ``owner`` holds."""
    parser.add_argument(
        flag, type=kind, default=argparse.SUPPRESS, help=f"default: {owner}'s"
    )


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
    # Every subcommand takes --seed too, so it may be given after the
    # subcommand name without clobbering the global.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="base random seed"
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    add_parser = functools.partial(subparsers.add_parser, parents=[common])

    p = add_parser("convert", help="apply a mapping table to a treebank")
    p.add_argument("--input", required=True, help="constituency treebank file")
    p.add_argument("--table", required=True, help="mapping table JSON")
    p.add_argument("--output", required=True, help="converted treebank file")
    p.add_argument("--report", help="conversion report JSON")
    p.add_argument(
        "--strict", action="store_true", help="error on unmapped nodes"
    )
    p.set_defaults(func=cmd_convert)

    p = add_parser("normalize", help="splice out POS nodes above internal nodes")
    p.add_argument("--input", required=True)
    p.add_argument("--inventory", help="label inventory JSON (default: shipped)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_normalize)

    p = add_parser("transfer-seg", help="word-segmentation granularity transfer")
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", required=True, help="one word per line")
    p.add_argument("--split-table", help="TSV: word TAB space-joined parts")
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="transfer report JSON")
    _class_default(p, "--lookahead", int, "transfer_corpus")
    p.set_defaults(func=cmd_transfer_seg)

    p = add_parser("extract-rules", help="export syntactic rules as text")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--exclude-labels", nargs="*", default=[])
    p.set_defaults(func=cmd_extract_rules)

    p = add_parser("generate", help="generate raw sentences for a pool")
    p.add_argument("--stats-from", required=True, help="treebank for prompt stats")
    p.add_argument("--examples", required=True, help="sentence file for prompts")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--backend", choices=["mock", "service"], default="mock")
    p.add_argument("--mock-treebank", help="treebank defining the mock grammar")
    p.add_argument("--endpoint", help="completion service URL")
    p.add_argument("--template", help="prompt template file")
    _class_default(p, "--batch-size", int, "MockPcfgGenerator")
    _class_default(p, "--example-count", int, "PromptConfig")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = add_parser("train", help="train the PCFG parser backend")
    p.add_argument("--input", required=True)
    p.add_argument("--inventory")
    _class_default(p, "--alpha", float, "TrainConfig")
    _class_default(p, "--unk-threshold", int, "TrainConfig")
    p.add_argument("--output", required=True, help="model JSON")
    p.set_defaults(func=cmd_train)

    p = add_parser("parse", help="parse sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--output", required=True)
    p.add_argument("--confidences", help="write one confidence per line")
    p.set_defaults(func=cmd_parse)

    p = add_parser("select", help="rank candidates and keep the top K")
    p.add_argument("--candidates", required=True, help="candidate treebank")
    p.add_argument("--confidences", required=True, help="one confidence per line")
    p.add_argument(
        "--criterion",
        required=True,
        choices=list(KINDS),
    )
    p.add_argument("--k", type=int, required=True)
    _class_default(p, "--prefilter-multiplier", int, "CriterionConfig")
    p.add_argument("--source", help="source treebank for token/srs references")
    p.add_argument("--converted-target", help="converted target treebank for csrs")
    p.add_argument("--output", required=True)
    p.add_argument("--sidecar", help="scores sidecar JSON")
    p.set_defaults(func=cmd_select)

    p = add_parser("self-train", help="run the full self-training loop")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out-dir", help="override the config's out_dir")
    p.set_defaults(func=cmd_self_train)

    p = add_parser("eval", help="labeled bracket F1 against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--include-root", action="store_true")
    p.add_argument("--include-pos", action="store_true")
    p.add_argument("--exclude-labels", nargs="*", default=[])
    p.add_argument("--json", help="write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = add_parser("report", help="tabulate one or more run manifests")
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
