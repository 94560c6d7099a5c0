import dataclasses
import hashlib
import json
import pathlib
import re

import pytest

from spskit import cli
from spskit.cli import build_parser, main
from spskit.evaluation import ScoreOptions
from spskit.generator import PromptConfig
from spskit.parser import TrainConfig
from spskit.selection import CriterionConfig
from spskit.selftrain import Experiment
from spskit.synthetic import sample_corpus, source_grammar, target_grammar
from spskit.treebank import read_treebank, write_treebank

SUBCOMMANDS = [
    "convert",
    "normalize",
    "transfer-seg",
    "extract-rules",
    "generate",
    "parse",
    "select",
    "train",
    "self-train",
    "eval",
    "report",
]


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_line(capsys):
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("spskit:summary ")
    ]
    if not lines:
        raise AssertionError("no summary line printed")
    return json.loads(lines[-1].split(" ", 1)[1])


@pytest.fixture
def gold_file(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text(
        "(s (subj (n a)) (pred (v b)))\n(s (subj (n a)) (pred (v b) (obj (n c))))\n",
        encoding="utf-8",
    )
    return path


class TestUsageAndHelp:
    def test_every_subcommand_is_wired(self):
        parser = build_parser()
        names = set()
        for action in parser._subparsers._group_actions:
            names.update(action.choices)
        assert names == set(SUBCOMMANDS)

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_documents_all_flags(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        parser = build_parser()
        sub = next(
            action.choices[subcommand]
            for action in parser._subparsers._group_actions
        )
        for action in sub._actions:
            if action.option_strings:
                assert action.option_strings[0] in text

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["frobnicate"])
        assert exit_info.value.code == 2

    def test_missing_required_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--pred", "x.txt"])
        assert exit_info.value.code == 2

    def test_jobs_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["--jobs", "2", "parse", "--model", "m.json", "--input", "in.txt",
                  "--output", "out.txt"])
        assert exit_info.value.code == 2

    def test_missing_input_file_is_a_data_error(self, tmp_path, capsys):
        code = main(
            ["eval", "--pred", str(tmp_path / "nope.txt"), "--gold", str(tmp_path / "nope.txt")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestEval:
    def test_identical_files_give_f1_100(self, gold_file, capsys):
        code = main(["eval", "--pred", str(gold_file), "--gold", str(gold_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "F1 100.00" in out

    def test_json_report_written(self, gold_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--pred", str(gold_file),
                "--gold", str(gold_file),
                "--json", str(report),
            ]
        )
        assert code == 0
        assert json.loads(report.read_text(encoding="utf-8"))["f1"] == 100.0


class TestTransferSeg:
    def test_table_3_fixture_summary(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "(s (n 圣诞) (n 节))\n(s (n 武侠小说))\n(vp (v 惹火) (u 儿了))\n",
            encoding="utf-8",
        )
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("圣诞节\n武侠\n小说\n惹火上身\n", encoding="utf-8")
        split = tmp_path / "split.tsv"
        split.write_text("武侠小说\t武侠 小说\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        report = tmp_path / "report.json"
        before = sha(corpus)
        code = main(
            [
                "transfer-seg",
                "--input", str(corpus),
                "--lexicon", str(lexicon),
                "--split-table", str(split),
                "--output", str(out),
                "--report", str(report),
            ]
        )
        assert code == 0
        summary = summary_line(capsys)
        assert summary["merged"] == 1
        assert summary["split"] == 1
        assert summary["misaligned"] == 1
        assert sha(corpus) == before  # inputs are never mutated
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "(s (n 圣诞节))"
        assert lines[1] == "(s (n 武侠) (n 小说))"

    @pytest.mark.parametrize("lookahead", ["0", "-2"])
    def test_lookahead_below_one_is_a_data_error(self, tmp_path, capsys, lookahead):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("(s (n 圣诞) (n 节) (v 到))\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("圣诞节\n到\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        code = main(
            [
                "transfer-seg",
                "--input", str(corpus),
                "--lexicon", str(lexicon),
                "--output", str(out),
                "--lookahead", lookahead,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err and "lookahead" in err
        assert not out.exists()


class TestPipeline:
    def test_convert_normalize_extract(self, tmp_path, capsys):
        treebank = tmp_path / "const.txt"
        treebank.write_text("(IP (NP (NN 指标)) (VP (VV 高于)))\n", encoding="utf-8")
        table = tmp_path / "table.json"
        table.write_text(
            json.dumps(
                {
                    "default_label": "att",
                    "rules": [
                        {
                            "pattern": {"parent": "IP", "children": ["NP", "VP"]},
                            "rewrite": {
                                "parent": "s",
                                "children": ["subject", "predicate"],
                            },
                            "priority": 10,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        converted = tmp_path / "sps.txt"
        assert main(
            ["convert", "--input", str(treebank), "--table", str(table),
             "--output", str(converted)]
        ) == 0
        assert summary_line(capsys)["fallback_count"] == 2

        inventory = tmp_path / "inv.json"
        inventory.write_text(
            json.dumps(
                {"sps_labels": ["s", "subject", "predicate", "att"], "pos_labels": ["n"]}
            ),
            encoding="utf-8",
        )
        normalized = tmp_path / "norm.txt"
        assert main(
            ["normalize", "--input", str(converted), "--inventory", str(inventory),
             "--output", str(normalized)]
        ) == 0

        rules_out = tmp_path / "rules.txt"
        assert main(
            ["extract-rules", "--input", str(normalized), "--output", str(rules_out)]
        ) == 0
        assert "s -> subject predicate" in rules_out.read_text(encoding="utf-8")

    def test_train_parse_select_eval(self, tmp_path, capsys):
        source = tmp_path / "source.txt"
        write_treebank(sample_corpus(source_grammar(), 120, seed=1, name="cli-src"), source)
        target_ref = tmp_path / "target_ref.txt"
        write_treebank(sample_corpus(target_grammar(), 60, seed=1, name="cli-ref"), target_ref)

        model = tmp_path / "model.json"
        assert main(["train", "--input", str(source), "--output", str(model)]) == 0

        raw = tmp_path / "raw.txt"
        raw_trees = sample_corpus(target_grammar(), 30, seed=2, name="cli-raw")
        raw.write_text(
            "".join(" ".join(t.leaves()) + "\n" for t in raw_trees), encoding="utf-8"
        )
        parsed = tmp_path / "parsed.txt"
        confidences = tmp_path / "conf.txt"
        assert main(
            ["parse", "--model", str(model), "--input", str(raw),
             "--output", str(parsed), "--confidences", str(confidences)]
        ) == 0
        assert len(read_treebank(parsed)) == 30
        assert len(confidences.read_text().splitlines()) == 30

        selected = tmp_path / "selected.txt"
        sidecar = tmp_path / "scores.json"
        assert main(
            ["select", "--candidates", str(parsed), "--confidences", str(confidences),
             "--criterion", "csrs", "--k", "5",
             "--converted-target", str(target_ref),
             "--output", str(selected), "--sidecar", str(sidecar)]
        ) == 0
        assert summary_line(capsys)["selected"] == 5
        assert len(read_treebank(selected)) == 5
        entries = json.loads(sidecar.read_text(encoding="utf-8"))
        assert sum(1 for e in entries if e["selected"]) == 5

        assert main(["eval", "--pred", str(parsed), "--gold", str(parsed)]) == 0

    def test_a_bracket_token_in_raw_input_names_its_line(self, tmp_path, capsys):
        source = tmp_path / "source.txt"
        write_treebank(sample_corpus(source_grammar(), 40, seed=1, name="cli-src"), source)
        model = tmp_path / "model.json"
        assert main(["train", "--input", str(source), "--output", str(model)]) == 0
        raw = tmp_path / "raw.txt"
        raw.write_text("na va\n\nna (va) nb\n", encoding="utf-8")
        parsed = tmp_path / "parsed.txt"
        code = main(["parse", "--model", str(model), "--input", str(raw), "--output", str(parsed)])
        assert code == 1
        assert f"{raw}:3: bad token '(va)'" in capsys.readouterr().err
        assert not parsed.exists()

    def test_generate_with_mock_backend(self, tmp_path, capsys):
        stats_treebank = tmp_path / "stats.txt"
        write_treebank(sample_corpus(source_grammar(), 50, seed=3, name="cli-stats"), stats_treebank)
        grammar_treebank = tmp_path / "grammar.txt"
        write_treebank(sample_corpus(target_grammar(), 80, seed=3, name="cli-gram"), grammar_treebank)
        examples = tmp_path / "examples.txt"
        examples.write_text("na va\nnb vb nc\n", encoding="utf-8")
        out = tmp_path / "sentences.txt"
        code = main(
            ["--seed", "5",
             "generate", "--stats-from", str(stats_treebank),
             "--examples", str(examples), "--count", "25",
             "--backend", "mock", "--mock-treebank", str(grammar_treebank),
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 25
        assert (tmp_path / "sentences.txt.provenance.json").exists()
        # determinism under the same seed
        out2 = tmp_path / "sentences2.txt"
        main(
            ["--seed", "5",
             "generate", "--stats-from", str(stats_treebank),
             "--examples", str(examples), "--count", "25",
             "--backend", "mock", "--mock-treebank", str(grammar_treebank),
             "--output", str(out2)]
        )
        assert out.read_text() == out2.read_text()

    def test_generate_with_batch_size_zero_is_a_data_error(self, tmp_path, capsys):
        stats_treebank = tmp_path / "stats.txt"
        write_treebank(sample_corpus(source_grammar(), 50, seed=3, name="cli-stats"), stats_treebank)
        grammar_treebank = tmp_path / "grammar.txt"
        write_treebank(sample_corpus(target_grammar(), 80, seed=3, name="cli-gram"), grammar_treebank)
        examples = tmp_path / "examples.txt"
        examples.write_text("na va\nnb vb nc\n", encoding="utf-8")
        out = tmp_path / "sentences.txt"
        code = main(
            ["generate", "--stats-from", str(stats_treebank),
             "--examples", str(examples), "--count", "25", "--batch-size", "0",
             "--backend", "mock", "--mock-treebank", str(grammar_treebank),
             "--output", str(out)]
        )
        assert code == 1
        assert "'batch_size'" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_writes_no_duplicate_sentence(self, tmp_path, capsys):
        stats_treebank = tmp_path / "stats.txt"
        write_treebank(sample_corpus(source_grammar(), 50, seed=3, name="cli-stats"), stats_treebank)
        grammar_treebank = tmp_path / "grammar.txt"
        write_treebank(sample_corpus(target_grammar(), 80, seed=3, name="cli-gram"), grammar_treebank)
        examples = tmp_path / "examples.txt"
        examples.write_text("na va\nnb vb nc\n", encoding="utf-8")
        out = tmp_path / "sentences.txt"
        code = main(
            ["--seed", "5",
             "generate", "--stats-from", str(stats_treebank),
             "--examples", str(examples), "--count", "1000",
             "--backend", "mock", "--mock-treebank", str(grammar_treebank),
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1000
        assert len(set(lines)) == 1000
        assert summary_line(capsys)["sentences"] == 1000

    def test_select_without_source_lacks_the_source_reference(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.txt"
        candidates.write_text(
            "(s (subj (n a)) (pred (v b)))\n(s (subj (n c)) (pred (v d)))\n",
            encoding="utf-8",
        )
        confidences = tmp_path / "conf.txt"
        confidences.write_text("0.5\n0.25\n", encoding="utf-8")
        code = main(
            ["select", "--candidates", str(candidates),
             "--confidences", str(confidences), "--criterion", "srs", "--k", "1",
             "--output", str(tmp_path / "selected.txt")]
        )
        assert code == 1
        assert "missing reference distribution" in capsys.readouterr().err
        assert not (tmp_path / "selected.txt").exists()

    @pytest.mark.parametrize("bad", ["x", "nan", "1.5"])
    def test_select_names_the_line_of_a_bad_confidence(self, tmp_path, capsys, bad):
        candidates = tmp_path / "candidates.txt"
        candidates.write_text(
            "(s (subj (n a)) (pred (v b)))\n(s (subj (n c)) (pred (v d)))\n",
            encoding="utf-8",
        )
        confidences = tmp_path / "conf.txt"
        confidences.write_text(f"0.5\n\n{bad}\n", encoding="utf-8")
        code = main(
            ["select", "--candidates", str(candidates),
             "--confidences", str(confidences), "--criterion", "conf", "--k", "1",
             "--output", str(tmp_path / "selected.txt")]
        )
        assert code == 1
        assert f"spskit: error: {confidences}:3: " in capsys.readouterr().err
        assert not (tmp_path / "selected.txt").exists()


def _setting_kind(annotation):
    if annotation == "bool":
        return "boolean"
    if re.fullmatch(r"(int|float)( \| None)?", annotation):
        return "number"
    return None


SECTION_CLASSES = {
    "criterion": CriterionConfig,
    "parser": TrainConfig,
    "prompt": PromptConfig,
    "score": ScoreOptions,
}

# (section, key, kind) of every numeric and boolean run-config setting: the
# top-level keys, each section's fields and both generator backends' keys
# other than the path and the endpoint.
RUN_CONFIG_SETTINGS = [
    (None, f.name, _setting_kind(f.type))
    for f in dataclasses.fields(Experiment)
    if f.name in cli._RUN_KEYS and _setting_kind(f.type)
] + [
    (section, f.name, _setting_kind(f.type))
    for section, cls in SECTION_CLASSES.items()
    for f in dataclasses.fields(cls)
    if _setting_kind(f.type)
] + [
    (f"generator-{backend}", key, "number")
    for backend, keys in cli._GENERATOR_KEYS.items()
    for key in keys
    if key not in ("treebank", "endpoint")
]


class TestSelfTrainCommand:
    def make_config(self, tmp_path, seeds=None):
        paths = {}
        for name, trees in (
            ("source", sample_corpus(source_grammar(), 80, seed=4, name="st-src")),
            ("ref", sample_corpus(target_grammar(), 40, seed=4, name="st-ref")),
            ("src_dev", sample_corpus(source_grammar(), 15, seed=4, name="st-sdev")),
            ("tgt_dev", sample_corpus(target_grammar(), 15, seed=4, name="st-tdev")),
        ):
            path = tmp_path / f"{name}.txt"
            write_treebank(trees, path)
            paths[name] = str(path)
        examples = tmp_path / "examples.txt"
        ref_trees = read_treebank(paths["ref"])
        examples.write_text(
            "".join(" ".join(t.leaves()) + "\n" for t in ref_trees), encoding="utf-8"
        )
        config = {
            "source_treebank": paths["source"],
            "target_examples": str(examples),
            "converted_target_treebank": paths["ref"],
            "source_dev": paths["src_dev"],
            "target_dev": paths["tgt_dev"],
            "criterion": {"kind": "csrs", "k": 4},
            "iterations": 1,
            "pool_size": 20,
            "prompt": {"length_sigma": 0.0},
            "generator": {"backend": "mock", "treebank": paths["ref"]},
            "out_dir": str(tmp_path / "run"),
        }
        if seeds:
            config["seeds"] = seeds
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_deterministic_manifests(self, tmp_path, capsys):
        config = self.make_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["self-train", "--config", str(config), "--seed", "7",
                     "--out-dir", str(out1)]) == 0
        assert main(["self-train", "--config", str(config), "--seed", "7",
                     "--out-dir", str(out2)]) == 0
        m1 = (out1 / "manifest.json").read_text(encoding="utf-8")
        m2 = (out2 / "manifest.json").read_text(encoding="utf-8")
        assert m1 == m2

    def test_multiseed_aggregate(self, tmp_path, capsys):
        config = self.make_config(tmp_path, seeds=[1, 2])
        assert main(["self-train", "--config", str(config)]) == 0
        summary = summary_line(capsys)
        assert summary["seeds"] == [1, 2]
        aggregate = json.loads(
            (tmp_path / "run" / "aggregate.json").read_text(encoding="utf-8")
        )
        assert len(aggregate["mean_target_f1"]) == 2

    @pytest.mark.parametrize(
        "section, value, named",
        [
            (None, 20, "pool-size"),
            ("criterion", {"kind": "csrs", "kk": 2}, "kk"),
            ("prompt", {"sigma": 0}, "sigma"),
            ("generator", {"batchsize": 3}, "batchsize"),
            ("generator", {"endpoint": "http://localhost:1"}, "endpoint"),
            ("criterion", {"k": 2}, "kind"),
            ("parser", [0.01], "parser"),
            (None, "4", "iterations"),
            (None, 4.5, "iterations"),
            (None, None, "pool_size"),
            (None, "no", "update_reference"),
            ("criterion", {"kind": "csrs", "exclude_labels": "adv"}, "exclude_labels"),
            ("criterion", {"kind": "csrs", "k": 2.5}, "k"),
            (None, 3, "exclude"),
            ("generator", {"backend": "service", "endpoint": "http://localhost:1",
                           "max_attempts": 0}, "max_attempts"),
            ("generator", {"backend": "service", "endpoint": "http://localhost:1",
                           "requests_per_minute": "60"}, "requests_per_minute"),
            ("generator", {"batch_size": 0}, "batch_size"),
            ("generator", {"guide_probability": 5}, "guide_probability"),
            # not settings: the kind alone fixes the reference and how the
            # combined kinds combine, and the criterion's exclude_labels is the
            # run's one exclude-label list
            ("criterion", {"kind": "srs", "reference": "converted_target_rules"},
             "reference"),
            ("criterion", {"kind": "csrs_conf", "combine": "weighted"}, "combine"),
            ("criterion", {"kind": "csrs_conf", "conf_weight": 0.5}, "conf_weight"),
            (None, ["adv"], "rule_exclude_labels"),
            ("prompt", {"template_id": "default"}, "template_id"),
            ("score", {"exclude_labels": "adv"}, "exclude_labels"),
            ("prompt", {"min_length": "2"}, "min_length"),
            ("prompt", {"max_rules": 0}, "max_rules"),
            ("prompt", {"example_count": True}, "example_count"),
            ("prompt", {"length_sigma": float("inf")}, "length_sigma"),
            ("prompt", {"rule_count_mean": -1}, "rule_count_mean"),
            ("parser", {"alpha": -1}, "alpha"),
            ("parser", {"unk_threshold": 1.5}, "unk_threshold"),
            (None, "7", "seed"),
            (None, 1.5, "seed"),
            (None, [1, "a"], "seeds"),
            (None, [1, 1], "seeds"),
        ],
        ids=[
            "top-level-typo",
            "criterion-typo",
            "prompt-typo",
            "generator-typo",
            "generator-key-of-other-backend",
            "criterion-missing-kind",
            "section-not-an-object",
            "iterations-a-string",
            "iterations-a-float",
            "pool-size-null",
            "update-reference-a-string",
            "criterion-labels-a-string",
            "criterion-k-a-float",
            "exclude-not-a-list",
            "service-max-attempts-zero",
            "service-requests-per-minute-string",
            "mock-batch-size-zero",
            "mock-guide-probability-five",
            "criterion-reference-removed",
            "criterion-combine-removed",
            "criterion-conf-weight-removed",
            "rule-exclude-labels-removed",
            "prompt-template-id-removed",
            "score-labels-a-string",
            "prompt-min-length-a-string",
            "prompt-max-rules-zero",
            "prompt-example-count-a-bool",
            "prompt-length-sigma-infinite",
            "prompt-rule-count-mean-negative",
            "parser-alpha-negative",
            "parser-unk-threshold-a-float",
            "seed-a-string",
            "seed-a-float",
            "seeds-entry-a-string",
            "seeds-repeated",
        ],
    )
    def test_bad_run_config_is_a_data_error(
        self, tmp_path, capsys, section, value, named
    ):
        path = self.make_config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        if section is None:
            config[named] = value
        elif section == "generator" and "backend" not in value:
            config[section].update(value)  # extra keys for the mock backend
        else:
            config[section] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["self-train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err
        assert repr(named) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad", ["other-type", "numeric-string"])
    @pytest.mark.parametrize(
        "section, key, kind",
        RUN_CONFIG_SETTINGS,
        ids=[f"{section or 'top'}-{key}" for section, key, _ in RUN_CONFIG_SETTINGS],
    )
    def test_every_setting_rejects_a_value_of_another_type(
        self, tmp_path, capsys, section, key, kind, bad
    ):
        path = self.make_config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        if bad == "numeric-string":
            value = "1"
        else:
            value = True if kind == "number" else "false"
        if section is None:
            config[key] = value
        elif section == "generator-service":
            config["generator"] = {
                "backend": "service", "endpoint": "http://localhost:1", key: value
            }
        elif section == "generator-mock":
            config["generator"][key] = value
        else:
            config.setdefault(section, {})[key] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["self-train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err
        assert repr(key) in err
        assert not (tmp_path / "run").exists()

    def test_report_subcommand(self, tmp_path, capsys):
        config = self.make_config(tmp_path)
        out = tmp_path / "single"
        main(["self-train", "--config", str(config), "--seed", "3",
              "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["report", "--manifest", str(out / "manifest.json")]) == 0
        text = capsys.readouterr().out
        assert "tgt F1" in text
        assert "spskit:summary" in text


def test_readme_run_config_table_matches_the_code():
    # The README's run-config table lists exactly the top-level keys the CLI
    # accepts and exactly the fields of each section's class.
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("Run-config keys.", 1)[1].split("\n\n")[1]
    top, sections = set(), {}
    for row in table.splitlines()[2:]:
        cell = row.split("|")[1]
        if " keys for " in cell:
            continue  # a generator backend's keys
        head, is_section, fields = cell.partition(" section:")
        names = re.findall(r"`(\w+)`", head)
        top.update(names)
        if is_section:
            sections[names[0]] = set(re.findall(r"`(\w+)`", fields))
    assert top == cli._RUN_KEYS
    for name, cls in SECTION_CLASSES.items():
        assert sections[name] == {f.name for f in dataclasses.fields(cls)}, name
