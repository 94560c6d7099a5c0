import dataclasses
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import spskit
from spskit import cli, selftrain
from spskit.cli import build_parser, main
from spskit.evaluation import ScoreOptions
from spskit.generator import PromptConfig
from spskit.parser import PcfgBackend, TrainConfig, train
from spskit.selection import CriterionConfig
from spskit.synthetic import sample_corpus, source_grammar, target_grammar
from spskit.treebank import (
    parse_bracketed,
    read_treebank,
    serialize,
    write_json,
    write_treebank,
)

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

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["transfer-seg", "--input", "i", "--lexicon", "l", "--output", "o"],
             ["lookahead"]),
            (["generate", "--stats-from", "s", "--examples", "e", "--output", "o"],
             ["batch_size", "example_count"]),
            (["train", "--input", "i", "--output", "o"], ["alpha", "unk_threshold"]),
            (["select", "--candidates", "c", "--confidences", "f", "--criterion", "srs",
              "--k", "1", "--output", "o"], ["prefilter_multiplier"]),
        ],
        ids=["transfer-seg", "generate", "train", "select"],
    )
    def test_an_absent_flag_leaves_the_class_default(self, argv, names):
        args = build_parser().parse_args(argv)
        assert [name for name in names if hasattr(args, name)] == []

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
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["merged"] == 1
        assert data["merges"][0]["parts"] == ["圣诞", "节"]

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

    @pytest.mark.parametrize(
        "lexicon_text, split_text, named",
        [
            ("圣诞节\n", "ab\t\n", "split.tsv:1:"),
            ("圣诞节\n", "ab\ta b\nab\tab\n", "split.tsv:2:"),
            ("\n", "", "lex.txt"),
        ],
        ids=["split-entry-with-empty-parts", "duplicate-split-entry", "empty-lexicon"],
    )
    def test_a_bad_input_file_is_named(
        self, tmp_path, capsys, lexicon_text, split_text, named
    ):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("(s (n 圣诞) (n 节))\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text(lexicon_text, encoding="utf-8")
        split = tmp_path / "split.tsv"
        split.write_text(split_text, encoding="utf-8")
        out = tmp_path / "out.txt"
        code = main(
            [
                "transfer-seg",
                "--input", str(corpus),
                "--lexicon", str(lexicon),
                "--split-table", str(split),
                "--output", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err
        assert str(tmp_path / named) in err
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

    def test_convert_rejects_a_rule_priority_that_is_no_integer(self, tmp_path, capsys):
        treebank = tmp_path / "const.txt"
        treebank.write_text("(IP (NP (NN 指标)) (VP (VV 高于)))\n", encoding="utf-8")
        table = tmp_path / "table.json"
        rule = {"pattern": {"parent": "IP"}, "rewrite": {"parent": "s"}, "priority": "5"}
        table.write_text(
            json.dumps({"default_label": "att", "rules": [rule]}), encoding="utf-8"
        )
        converted = tmp_path / "sps.txt"
        assert main(
            ["convert", "--input", str(treebank), "--table", str(table),
             "--output", str(converted)]
        ) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err and "rule 0: 'priority'" in err
        assert not converted.exists()

    def test_convert_rejects_a_label_that_would_not_re_read(self, tmp_path, capsys):
        # "(s p (x a) (x b))" would read back as label "s" over a token "p".
        treebank = tmp_path / "const.txt"
        treebank.write_text("(s (n a) (v b))\n", encoding="utf-8")
        table = tmp_path / "table.json"
        rule = {"pattern": {"parent": "s"}, "rewrite": {"parent": "s p"}, "priority": 1}
        table.write_text(
            json.dumps({"default_label": "x", "rules": [rule]}), encoding="utf-8"
        )
        converted = tmp_path / "sps.txt"
        assert main(
            ["convert", "--input", str(treebank), "--table", str(table),
             "--output", str(converted)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"spskit: error: mapping table {table} rule 0: ")
        assert "rewrite 'parent' must be a label" in err and "'s p'" in err
        assert not converted.exists()

    @pytest.mark.parametrize("key, value", [("default_label", 5), ("strict", "no")])
    def test_convert_rejects_a_table_value_of_the_wrong_type(
        self, tmp_path, capsys, key, value
    ):
        treebank = tmp_path / "const.txt"
        treebank.write_text("(IP (NP (NN 指标)) (VP (VV 高于)))\n", encoding="utf-8")
        table = tmp_path / "table.json"
        rule = {"pattern": {"parent": "IP"}, "rewrite": {"parent": "s"}, "priority": 1}
        table.write_text(
            json.dumps({"default_label": "att", "rules": [rule], key: value}),
            encoding="utf-8",
        )
        converted = tmp_path / "sps.txt"
        assert main(
            ["convert", "--input", str(treebank), "--table", str(table),
             "--output", str(converted)]
        ) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err and f"'{key}' must be" in err
        assert not converted.exists()

    @pytest.mark.parametrize(
        "data, named",
        [
            ([], ": the file must be an object"),
            ({"default_label": "att", "rules": 5}, ": 'rules' must be a list"),
            ({"default_label": "att", "rules": ["x"]}, " rule 0: the entry must be"),
            (
                {"default_label": "att", "rules": [{"pattern": "IP", "priority": 1}]},
                " rule 0: 'pattern' must be an object",
            ),
            (
                {"default_label": "att", "rules": [
                    {"pattern": {"parent": "IP"}, "rewrite": "s", "priority": 1}
                ]},
                " rule 0: 'rewrite' must be an object",
            ),
        ],
    )
    def test_convert_rejects_a_table_of_the_wrong_shape(
        self, tmp_path, capsys, data, named
    ):
        # Each of these used to escape main() as a raw TypeError or
        # AttributeError traceback.
        treebank = tmp_path / "const.txt"
        treebank.write_text("(IP (NP (NN 指标)) (VP (VV 高于)))\n", encoding="utf-8")
        table = tmp_path / "table.json"
        table.write_text(json.dumps(data), encoding="utf-8")
        converted = tmp_path / "sps.txt"
        assert main(
            ["convert", "--input", str(treebank), "--table", str(table),
             "--output", str(converted)]
        ) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err and f"mapping table {table}{named}" in err
        assert not converted.exists()

    @pytest.mark.parametrize(
        "data", [[], {"sps_labels": "subj", "pos_labels": ["n"]}]
    )
    def test_normalize_rejects_an_inventory_of_the_wrong_shape(
        self, tmp_path, capsys, data
    ):
        treebank = tmp_path / "sps.txt"
        treebank.write_text("(s (subj (n a)))\n", encoding="utf-8")
        inventory = tmp_path / "inv.json"
        inventory.write_text(json.dumps(data), encoding="utf-8")
        normalized = tmp_path / "norm.txt"
        assert main(
            ["normalize", "--input", str(treebank), "--inventory", str(inventory),
             "--output", str(normalized)]
        ) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err and str(inventory) in err
        assert not normalized.exists()

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
        assert len(confidences.read_text(encoding="utf-8").splitlines()) == 30

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

    @pytest.mark.parametrize("marked", ["source.txt", "raw.txt", "seg.txt", "lexicon.txt"])
    def test_an_input_with_a_byte_order_mark_reads_as_without(self, tmp_path, marked):
        # Some editors begin a UTF-8 file with U+FEFF; it is no part of the text.
        trees = sample_corpus(source_grammar(), 40, seed=1, name="cli-src")
        texts = {
            "source.txt": "".join(serialize(t) + "\n" for t in trees),
            "raw.txt": "".join(" ".join(t.leaves()) + "\n" for t in trees[:5]),
            "seg.txt": "(s (n 圣诞) (n 节))\n",
            "lexicon.txt": "圣诞节\n",
        }
        outputs = []
        for mark in ("", "\ufeff"):
            d = tmp_path / f"mark{len(mark)}"
            d.mkdir()
            for name, text in texts.items():
                (d / name).write_text((mark if name == marked else "") + text, encoding="utf-8")
            model, parsed, seg_out = d / "model.json", d / "parsed.txt", d / "seg-out.txt"
            assert main(["train", "--input", str(d / "source.txt"), "--output", str(model)]) == 0
            assert main(["parse", "--model", str(model), "--input", str(d / "raw.txt"),
                         "--output", str(parsed)]) == 0
            assert main(["transfer-seg", "--input", str(d / "seg.txt"),
                         "--lexicon", str(d / "lexicon.txt"), "--output", str(seg_out)]) == 0
            outputs.append([model.read_bytes(), parsed.read_bytes(), seg_out.read_bytes()])
        assert outputs[1] == outputs[0]
        assert outputs[0][2] == "(s (n 圣诞节))\n".encode("utf-8")

    def test_parse_rejects_a_model_file_that_is_no_object(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("[]", encoding="utf-8")
        raw = tmp_path / "raw.txt"
        raw.write_text("na va\n", encoding="utf-8")
        parsed = tmp_path / "parsed.txt"
        code = main(["parse", "--model", str(model), "--input", str(raw), "--output", str(parsed)])
        assert code == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err and str(model) in err
        assert not parsed.exists()

    def test_train_names_the_line_of_a_label_outside_the_inventory(self, tmp_path, capsys):
        source = tmp_path / "source.txt"
        source.write_text("(s (subj (n a)))\n(s (zz (n b)))\n", encoding="utf-8")
        inventory = tmp_path / "inv.json"
        inventory.write_text(
            json.dumps({"sps_labels": ["s", "subj"], "pos_labels": ["n"]}), encoding="utf-8"
        )
        model = tmp_path / "model.json"
        assert main(
            ["train", "--input", str(source), "--inventory", str(inventory),
             "--output", str(model)]
        ) == 1
        err = capsys.readouterr().err
        assert f"spskit: error: {source}:2: unknown labels: zz" in err
        assert not model.exists()

    @pytest.mark.parametrize("command", ["extract-rules", "eval", "select"])
    def test_a_malformed_treebank_is_named(self, tmp_path, capsys, command):
        good = tmp_path / "good.txt"
        good.write_text("(s (subj (n a)) (pred (v b)))\n", encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_text("(s (subj (n a)) (pred (v b)))\n(s (n c)\n", encoding="utf-8")
        conf = tmp_path / "conf.txt"
        conf.write_text("0.5\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        argv = {
            "extract-rules": ["--input", str(bad), "--output", str(out)],
            "eval": ["--pred", str(good), "--gold", str(bad)],
            "select": ["--candidates", str(good), "--confidences", str(conf),
                       "--criterion", "srs", "--k", "1", "--source", str(bad),
                       "--output", str(out)],
        }[command]
        assert main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert f"spskit: error: {bad}:2: unbalanced brackets: missing ')'" in err
        assert not out.exists()

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
        assert out.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_generate_refuses_a_count_below_one_up_front(self, tmp_path, capsys, count):
        # The stats treebank does not exist: the count is refused before any
        # input is read.
        examples = tmp_path / "examples.txt"
        examples.write_text("na va\n", encoding="utf-8")
        out = tmp_path / "sentences.txt"
        code = main(
            ["generate", "--stats-from", str(tmp_path / "missing.txt"),
             "--examples", str(examples), "--count", count,
             "--mock-treebank", str(tmp_path / "missing.txt"), "--output", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"spskit: error: 'count' must be an integer >= 1, got {count}" in err
        assert not out.exists()
        assert not (tmp_path / "sentences.txt.provenance.json").exists()

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

    @pytest.mark.parametrize("endpoint", ["nohost", "ftp://host/complete", "http://", ""])
    def test_generate_refuses_an_endpoint_that_is_no_http_url(
        self, tmp_path, capsys, endpoint
    ):
        stats_treebank = tmp_path / "stats.txt"
        write_treebank(sample_corpus(source_grammar(), 5, seed=3, name="cli-stats"), stats_treebank)
        examples = tmp_path / "examples.txt"
        examples.write_text("na va\n", encoding="utf-8")
        out = tmp_path / "sentences.txt"
        code = main(
            ["generate", "--stats-from", str(stats_treebank),
             "--examples", str(examples), "--backend", "service",
             "--endpoint", endpoint, "--output", str(out)]
        )
        assert code == 1
        assert "'endpoint'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "template", ["${foo} ${rules}", "$5 ${rules}"], ids=["unknown-name", "stray-dollar"]
    )
    def test_generate_refuses_a_bad_template_before_generating(
        self, tmp_path, capsys, monkeypatch, template
    ):
        stats_treebank = tmp_path / "stats.txt"
        write_treebank(sample_corpus(source_grammar(), 5, seed=3, name="cli-stats"), stats_treebank)
        examples = tmp_path / "examples.txt"
        examples.write_text("na va\n", encoding="utf-8")
        template_file = tmp_path / "template.txt"
        template_file.write_text(template, encoding="utf-8")
        calls = []
        monkeypatch.setattr(selftrain, "build_pool", lambda *args, **kw: calls.append(args))
        out = tmp_path / "sentences.txt"
        code = main(
            ["generate", "--stats-from", str(stats_treebank), "--examples", str(examples),
             "--mock-treebank", str(stats_treebank), "--template", str(template_file),
             "--output", str(out)]
        )
        assert code == 1
        assert "spskit: error: 'template' has an" in capsys.readouterr().err
        assert calls == []
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


SECTION_CLASSES = {
    "criterion": CriterionConfig,
    "parser": TrainConfig,
    "prompt": PromptConfig,
    "score": ScoreOptions,
}

# Every path- or URL-valued run-config key, and whether null is an error for
# it.  Null leaves an optional key out, so it has no null row; a required key
# and an exclude entry do.  Each key gets every JSON type but a string, and "".
PATH_KEYS = {
    "source_treebank": True,
    "target_examples": True,
    "exclude": True,
    "converted_target_treebank": False,
    "source_dev": False,
    "target_dev": False,
    "out_dir": False,
    "generator.treebank": False,
    "generator.template": False,
    "generator.endpoint": False,
}
PATH_CASES = [
    (key, value)
    for key, null_is_an_error in PATH_KEYS.items()
    for value in ([None] if null_is_an_error else []) + [True, 5, 1.5, "", ["a"], {}]
]

# Every run-config key that holds no path, as (where, key): the top-level keys
# (with "exclude", a list whose entries PATH_CASES tries), each section's
# fields, the generator's backend, and both backends' keys but the path and
# the endpoint.
SETTINGS = [
    (None, key) for key in sorted(cli._RUN_KEYS - set(PATH_KEYS) | {"exclude"})
] + [
    (section, f.name)
    for section, cls in SECTION_CLASSES.items()
    for f in dataclasses.fields(cls)
] + [("generator", "backend")] + [
    (f"generator-{backend}", key)
    for backend, keys in cli._GENERATOR_KEYS.items()
    for key in keys
    if key not in ("treebank", "endpoint")
]

# Each setting is tried with one value of every JSON type, a string that reads
# as a number and one that reads as a boolean, but not with the values TAKEN
# lists for it: those it takes.  Null means "not given" where it is taken.
TYPE_VALUES = [None, True, 1, 1.5, "x", "1", "false", [], {}]
TAKEN = {
    (None, "exclude"): ["[]"],
    (None, "seed"): ["1"],
    (None, "seeds"): ["null", "[]"],  # [] is no seed list: one run
    (None, "iterations"): ["1"],
    (None, "pool_size"): ["1"],
    # a boolean; true is refused under csrs, which the update-reference-under-
    # csrs row of test_bad_run_config_is_a_data_error covers
    (None, "update_reference"): ["true"],
    (None, "criterion"): [],  # required: {} lacks the kind and is refused
    (None, "parser"): ["{}"],
    (None, "prompt"): ["{}"],
    (None, "score"): ["{}"],
    # {} is the mock backend without its treebank, which is refused as the
    # missing 'generator.treebank'
    (None, "generator"): ["{}"],
    ("criterion", "kind"): [],  # one of the kinds' names
    ("criterion", "k"): ["1"],
    ("criterion", "prefilter_multiplier"): ["1"],
    ("criterion", "exclude_labels"): ["[]"],
    ("parser", "alpha"): ["1", "1.5"],
    ("parser", "unk_threshold"): ["1"],
    ("prompt", "length_sigma"): ["null", "1", "1.5"],
    ("prompt", "min_length"): [],  # at least 2
    ("prompt", "max_rules"): ["1"],
    ("prompt", "rule_count_mean"): ["null", "1", "1.5"],
    ("prompt", "example_count"): ["1"],
    ("score", "include_root"): ["true"],
    ("score", "include_pos"): ["true"],
    ("score", "exclude_labels"): ["[]"],
    ("generator", "backend"): [],  # "mock" or "service"
    ("generator-mock", "seed"): ["1"],
    ("generator-mock", "batch_size"): ["1"],
    ("generator-mock", "guide_probability"): ["1"],  # in [0, 1]
    ("generator-service", "seed"): ["null", "1"],
    ("generator-service", "max_attempts"): ["1"],
    ("generator-service", "requests_per_minute"): ["1", "1.5"],
}
TYPE_CASES = [
    (where, key, value)
    for where, key in SETTINGS
    for value in TYPE_VALUES
    if json.dumps(value) not in TAKEN[where, key]
]


def test_the_type_table_covers_every_setting_once():
    assert sorted(TAKEN, key=str) == sorted(SETTINGS, key=str)
    assert len(set(SETTINGS)) == len(SETTINGS)


class TestSelfTrainCommand:
    @staticmethod
    def make_config(tmp_path, seeds=None):
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

    def test_multiseed_resume_continues_only_the_unfinished_seed(
        self, tmp_path, capsys, monkeypatch
    ):
        path = self.make_config(tmp_path, seeds=[1, 2])
        config = json.loads(path.read_text(encoding="utf-8"))
        config["iterations"] = 2
        path.write_text(json.dumps(config), encoding="utf-8")
        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        for out in (straight, resumed):
            assert main(["self-train", "--config", str(path), "--out-dir", str(out)]) == 0
        # Cut seed 2 back to a run aborted after iteration 1.
        seed_2 = resumed / "seed_2"
        manifest = json.loads((seed_2 / "manifest.json").read_text(encoding="utf-8"))
        manifest["status"] = "aborted"
        manifest["records"] = manifest["records"][:2]
        for name in ("selected_iter_2", "scores_iter_2"):
            (seed_2 / manifest["artifacts"].pop(name)).unlink()
        write_json(seed_2 / "manifest.json", manifest)
        (resumed / "aggregate.json").unlink()

        events = []
        run, train = selftrain.run, PcfgBackend.train

        def spy_run(experiment, resume=False):
            events.append(("run", experiment.seed, resume))
            return run(experiment, resume=resume)

        def spy_train(backend, trees):
            events.append("train")
            return train(backend, trees)

        monkeypatch.setattr(selftrain, "run", spy_run)
        monkeypatch.setattr(PcfgBackend, "train", spy_train)
        argv = ["self-train", "--config", str(path), "--out-dir", str(resumed)]
        assert main(argv + ["--resume"]) == 0
        # Seed 1 is complete: no training.  Seed 2 trains on source plus the
        # replayed trees, then once more after iteration 2.
        assert events == [("run", 1, True), ("run", 2, True), "train", "train"]

        def files(root):
            return {
                p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()
            }

        assert files(resumed) == files(straight)

    def test_a_bad_seed_manifest_stops_a_multiseed_resume(self, tmp_path, capsys):
        # A damaged seed is no tolerated run failure: the aggregate of the
        # other seeds must not silently replace the full one.
        path = self.make_config(tmp_path, seeds=[1, 2])
        assert main(["self-train", "--config", str(path)]) == 0
        manifest_path = tmp_path / "run" / "seed_2" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["version"] = 99
        write_json(manifest_path, manifest)
        aggregate = (tmp_path / "run" / "aggregate.json").read_bytes()
        capsys.readouterr()
        assert main(["self-train", "--config", str(path), "--resume"]) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err
        assert str(manifest_path) in err
        assert (tmp_path / "run" / "aggregate.json").read_bytes() == aggregate

    @pytest.mark.parametrize(
        "content", [b"\xff\n", b'{"config": '], ids=["not-utf-8", "truncated-json"]
    )
    def test_an_unreadable_seed_manifest_stops_a_multiseed_resume(
        self, tmp_path, capsys, content
    ):
        path = self.make_config(tmp_path, seeds=[1, 2])
        assert main(["self-train", "--config", str(path)]) == 0
        manifest_path = tmp_path / "run" / "seed_2" / "manifest.json"
        manifest_path.write_bytes(content)
        aggregate = (tmp_path / "run" / "aggregate.json").read_bytes()
        capsys.readouterr()
        assert main(["self-train", "--config", str(path), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spskit: error: ")
        assert err.count(str(manifest_path)) == 1
        assert (tmp_path / "run" / "aggregate.json").read_bytes() == aggregate

    @pytest.mark.parametrize("command", ["resume", "report"])
    @pytest.mark.parametrize(
        "damage",
        [
            "version-99", "missing-key", "extra-record-key", "null-iteration",
            "artifacts-list", "missing-selected-artifact",
        ],
    )
    def test_a_bad_manifest_is_a_data_error(self, tmp_path, capsys, command, damage):
        path = self.make_config(tmp_path)
        assert main(["self-train", "--config", str(path)]) == 0
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if damage == "version-99":
            manifest["version"] = 99
        elif damage == "missing-key":
            del manifest["artifacts"]
        elif damage == "extra-record-key":
            manifest["records"][1]["extra"] = 0
        elif damage == "null-iteration":
            manifest["records"][1]["iteration"] = None
        elif damage == "artifacts-list":
            manifest["artifacts"] = []
        else:
            del manifest["artifacts"]["selected_iter_1"]
        text = json.dumps(manifest)
        manifest_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        if command == "resume":
            argv = ["self-train", "--config", str(path), "--resume"]
        else:
            argv = ["report", "--manifest", str(manifest_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err
        assert str(manifest_path) in err
        assert manifest_path.read_text(encoding="utf-8") == text

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
            (None, True, "update_reference"),
            ("criterion", {"kind": "csrs", "exclude_labels": "adv"}, "exclude_labels"),
            ("criterion", {"kind": "csrs", "k": 2.5}, "k"),
            (None, 3, "exclude"),
            ("generator", {"backend": "service", "endpoint": "http://localhost:1",
                           "max_attempts": 0}, "max_attempts"),
            ("generator", {"backend": "service", "endpoint": "http://localhost:1",
                           "requests_per_minute": "60"}, "requests_per_minute"),
            ("generator", {"batch_size": 0}, "batch_size"),
            ("generator", {"guide_probability": 5}, "guide_probability"),
            ("generator", {"backend": "service", "endpoint": "nohost"}, "endpoint"),
            ("generator", {"backend": "service"}, "generator.endpoint"),
            ("generator", {"backend": "mock"}, "generator.treebank"),
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
            "update-reference-under-csrs",
            "criterion-labels-a-string",
            "criterion-k-a-float",
            "exclude-not-a-list",
            "service-max-attempts-zero",
            "service-requests-per-minute-string",
            "mock-batch-size-zero",
            "mock-guide-probability-five",
            "service-endpoint-without-scheme",
            "service-endpoint-missing",
            "mock-treebank-missing",
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

    def test_a_bad_template_leaves_no_run_directory(self, tmp_path, capsys):
        path = self.make_config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        template = tmp_path / "template.txt"
        template.write_text("${rules}\n${foo}\n", encoding="utf-8")
        config["generator"]["template"] = str(template)
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["self-train", "--config", str(path)]) == 1
        assert "'template' has an unknown placeholder ${foo}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("config", [[], "run", None])
    def test_a_run_config_that_is_no_object_is_a_data_error(
        self, tmp_path, capsys, config
    ):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["self-train", "--config", str(path)]) == 1
        assert "the run config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, key, value",
        TYPE_CASES,
        ids=[f"{where or 'top'}-{key}-{json.dumps(v)}" for where, key, v in TYPE_CASES],
    )
    def test_every_setting_rejects_a_value_of_another_type(
        self, tmp_path, capsys, where, key, value
    ):
        path = self.make_config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        if where is None:
            config[key] = value
        elif where == "generator-service":
            config["generator"] = {
                "backend": "service", "endpoint": "http://localhost:1", key: value
            }
        elif where == "generator-mock":
            config["generator"][key] = value
        else:
            config.setdefault(where, {})[key] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["self-train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err
        assert repr(key) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value", PATH_CASES, ids=[f"{k}-{json.dumps(v)}" for k, v in PATH_CASES]
    )
    def test_every_path_key_rejects_a_value_that_is_no_path(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        path = self.make_config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        if key == "exclude":
            config["exclude"] = [value]
        elif key == "generator.endpoint":
            config["generator"] = {"backend": "service", "endpoint": value}
        elif key.startswith("generator."):
            config["generator"][key.removeprefix("generator.")] = value
        else:
            config[key] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # where a relative run directory would go
        before = set(tmp_path.iterdir())
        assert main(["self-train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "spskit: error:" in err
        assert repr(key) in err
        assert set(tmp_path.iterdir()) == before

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


# The sha256 of every JSON file the CLI writes in one small session, of
# eval's printed table, of a mock generation's sentences and of the exported
# rules: how outputs are built and serialized may change, but not one byte of
# what lands on disk.
OUTPUT_DIGESTS = {
    "convert-report.json": "62c0bc90f8b3550c267cfe890176295fb90edc0684c9e455aad5110cc88c9d3a",
    "transfer-report.json": "5932f614aee8364d9411358c991780bd41754787ad653e3f971ffe46f69149e5",
    "select-sidecar.json": "2e6e048817d1ac4d30df7af8f7575d0887fd7408ce5e21dd911b6616751ed388",
    "eval.json": "5caba669d6c2ff09680a5d3dce3b4b7df0f2257f75532419061e23474b11c053",
    "eval-table.txt": "f82f929b856d8148f3ae233f8fbe09a8ca0288c27d42b7532ea1299111d4e91a",
    "run/seed_1/manifest.json": "a604c748892e9c97e618756d1e4b6f78abf190230150b246538595ea72c2ae5f",
    "run/seed_2/manifest.json": "56838384027d74d67b07ffc6636b2e29049abd5ab3e9b86af7f64c45c5b18178",
    "run/aggregate.json": "2a67497ba5d6885426e2b47b30a6082331a657bacef255b36bfe03fe35a5ab32",
    "generated.txt": "c40e68f68050e9dbbad49ac8c5edf847970bae288de6112a27c7a458ae4be9e7",
    "generated.txt.provenance.json": "444f44383672c1a36ae41b1b01b27e5a3c827cea6c222a39438651c589fe0895",
    "rules.txt": "a4fb91957f58a4d912330702297eb5a99fe69e8bd5924da6a87d44378edc7b62",
}


def test_every_json_output_keeps_its_bytes(tmp_path, capsys):
    const = tmp_path / "const.txt"
    const.write_text(
        "(IP (NP (NN 指标)) (VP (VV 高于) (NP (NN 均值))))\n(IP (NP (NN 价格)) (VP (VV 跌)))\n",
        encoding="utf-8",
    )
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"default_label": "att", "rules": [{
        "pattern": {"parent": "IP", "children": ["NP", "VP"]},
        "rewrite": {"parent": "s", "children": ["subject", "predicate"]},
        "priority": 10,
    }]}), encoding="utf-8")
    assert main(["convert", "--input", str(const), "--table", str(table),
                 "--output", str(tmp_path / "sps.txt"),
                 "--report", str(tmp_path / "convert-report.json")]) == 0

    seg = tmp_path / "seg.txt"
    seg.write_text(
        "(s (n 圣诞) (n 节))\n(s (n 武侠小说))\n(vp (v 惹火) (u 儿了))\n", encoding="utf-8"
    )
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("圣诞节\n武侠\n小说\n火儿\n惹火上身\n", encoding="utf-8")
    split = tmp_path / "split.tsv"
    split.write_text("武侠小说\t武侠 小说\n惹火\t惹 火\n儿了\t儿 了\n", encoding="utf-8")
    assert main(["transfer-seg", "--input", str(seg), "--lexicon", str(lexicon),
                 "--split-table", str(split), "--output", str(tmp_path / "seg-out.txt"),
                 "--report", str(tmp_path / "transfer-report.json")]) == 0

    source = tmp_path / "source.txt"
    write_treebank(sample_corpus(source_grammar(), 60, seed=1, name="pin-src"), source)
    gold = tmp_path / "gold.txt"
    write_treebank(sample_corpus(target_grammar(), 12, seed=2, name="pin-gold"), gold)
    raw = tmp_path / "raw.txt"
    raw.write_text(
        "".join(" ".join(t.leaves()) + "\n" for t in read_treebank(gold)), encoding="utf-8"
    )
    model, parsed, confidences = (tmp_path / n for n in ("model.json", "parsed.txt", "conf.txt"))
    assert main(["train", "--input", str(source), "--output", str(model)]) == 0
    assert main(["parse", "--model", str(model), "--input", str(raw), "--output", str(parsed),
                 "--confidences", str(confidences)]) == 0
    assert main(["select", "--candidates", str(parsed), "--confidences", str(confidences),
                 "--criterion", "srs", "--k", "4", "--source", str(source),
                 "--output", str(tmp_path / "selected.txt"),
                 "--sidecar", str(tmp_path / "select-sidecar.json")]) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(parsed), "--gold", str(gold),
                 "--json", str(tmp_path / "eval.json")]) == 0
    table_text = capsys.readouterr().out.split("spskit:summary ")[0]
    (tmp_path / "eval-table.txt").write_text(table_text, encoding="utf-8")

    template = tmp_path / "template.txt"
    template.write_text(
        "Rules (${rule_count}):\n${rules}\nExamples:\n${examples}\nLength: ${length}\n",
        encoding="utf-8",
    )
    assert main(["generate", "--seed", "3", "--stats-from", str(source),
                 "--examples", str(raw), "--mock-treebank", str(gold),
                 "--template", str(template), "--count", "20",
                 "--output", str(tmp_path / "generated.txt")]) == 0
    assert main(["extract-rules", "--input", str(source),
                 "--output", str(tmp_path / "rules.txt")]) == 0

    run_dir = tmp_path / "self-train"
    run_dir.mkdir()
    config = TestSelfTrainCommand.make_config(run_dir, seeds=[1, 2])
    assert main(["self-train", "--config", str(config), "--out-dir", str(tmp_path / "run")]) == 0

    assert {name: sha(tmp_path / name) for name in OUTPUT_DIGESTS} == OUTPUT_DIGESTS


# Every input flag of every subcommand, and whether the file it names is JSON.
INPUT_FLAGS = {
    "convert": {"--input": False, "--table": True},
    "normalize": {"--input": False, "--inventory": True},
    "transfer-seg": {"--input": False, "--lexicon": False, "--split-table": False},
    "extract-rules": {"--input": False},
    "generate": {"--stats-from": False, "--examples": False, "--mock-treebank": False,
                 "--template": False},
    "train": {"--input": False, "--inventory": True},
    "parse": {"--model": True, "--input": False},
    "select": {"--candidates": False, "--confidences": False, "--source": False,
               "--converted-target": False},
    "self-train": {"--config": True},
    "eval": {"--pred": False, "--gold": False},
    "report": {"--manifest": True},
}
# What each case puts at the flag's path (None: nothing), and what the error
# says about it.
BAD_INPUTS = {
    "missing": (None, "input file not found"),
    "a-directory": ("directory", "input file not found"),
    "not-utf-8": (b"(s (n \xff))\n", "input file not UTF-8"),
    "truncated-json": (b'{"default_label": ', "is not JSON"),
}
READER_CASES = [
    (subcommand, flag, case)
    for subcommand, flags in INPUT_FLAGS.items()
    for flag, is_json in flags.items()
    for case in BAD_INPUTS
    if is_json or case != "truncated-json"
]


def reader_argv(tmp_path, subcommand):
    """Good inputs in ``tmp_path/in`` and every output of ``subcommand`` in
    ``tmp_path/out``, as its argv."""
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    tree = "(s (subj (n a)) (pred (v b)))"
    files = {
        "tree.txt": tree + "\n",
        "table.json": json.dumps({"default_label": "att", "rules": [
            {"pattern": {"parent": "s"}, "rewrite": {"parent": "s"}, "priority": 1}
        ]}),
        "inv.json": json.dumps({"sps_labels": ["s", "subj", "pred"],
                                "pos_labels": ["n", "v"]}),
        "lex.txt": "a\nb\n",
        "split.tsv": "ab\ta b\n",
        "examples.txt": "a b\n",
        "template.txt": "${rules}\n${examples}\n",
        "conf.txt": "0.5\n",
    }
    for name, text in files.items():
        (inputs / name).write_text(text, encoding="utf-8")
    train([parse_bracketed(tree)]).save(inputs / "model.json")
    write_json(inputs / "manifest.json", selftrain.RunManifest(config={}))
    config = TestSelfTrainCommand.make_config(inputs)
    i = {name: str(inputs / name) for name in [*files, "model.json", "manifest.json"]}
    o = str(out / "out.txt")
    return {
        "convert": ["--input", i["tree.txt"], "--table", i["table.json"], "--output", o,
                    "--report", str(out / "report.json")],
        "normalize": ["--input", i["tree.txt"], "--inventory", i["inv.json"], "--output", o],
        "transfer-seg": ["--input", i["tree.txt"], "--lexicon", i["lex.txt"],
                         "--split-table", i["split.tsv"], "--output", o,
                         "--report", str(out / "report.json")],
        "extract-rules": ["--input", i["tree.txt"], "--output", o],
        "generate": ["--stats-from", i["tree.txt"], "--examples", i["examples.txt"],
                     "--mock-treebank", i["tree.txt"], "--template", i["template.txt"],
                     "--count", "1", "--output", o],
        "train": ["--input", i["tree.txt"], "--inventory", i["inv.json"], "--output", o],
        "parse": ["--model", i["model.json"], "--input", i["examples.txt"], "--output", o,
                  "--confidences", str(out / "conf.txt")],
        "select": ["--candidates", i["tree.txt"], "--confidences", i["conf.txt"],
                   "--criterion", "csrs", "--k", "1", "--source", i["tree.txt"],
                   "--converted-target", i["tree.txt"], "--output", o,
                   "--sidecar", str(out / "sidecar.json")],
        "self-train": ["--config", str(config), "--out-dir", str(out / "run")],
        "eval": ["--pred", i["tree.txt"], "--gold", i["tree.txt"],
                 "--json", str(out / "eval.json")],
        "report": ["--manifest", i["manifest.json"]],
    }[subcommand]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_the_reader_table_runs_on_good_inputs(tmp_path, capsys, subcommand):
    assert main([subcommand, *reader_argv(tmp_path, subcommand)]) == 0
    assert summary_line(capsys)["subcommand"] == subcommand


@pytest.mark.parametrize(
    "subcommand, flag, case", READER_CASES,
    ids=[f"{subcommand}{flag}-{case}" for subcommand, flag, case in READER_CASES],
)
def test_every_input_flag_refuses_a_file_it_cannot_read(
    tmp_path, capsys, subcommand, flag, case
):
    argv = reader_argv(tmp_path, subcommand)
    content, reason = BAD_INPUTS[case]
    bad = tmp_path / case
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    argv[argv.index(flag) + 1] = str(bad)
    assert main([subcommand, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spskit: error: ")
    assert reason in err
    assert err.count(str(bad)) == 1
    assert list((tmp_path / "out").iterdir()) == []


# Every file-valued run-config key; a "generator." key sits in that section,
# and "exclude" stands for one entry of that list.
RUN_CONFIG_PATHS = (
    "source_treebank", "target_examples", "converted_target_treebank", "source_dev",
    "target_dev", "exclude", "generator.treebank", "generator.template",
)
RUN_CONFIG_CASES = [
    (key, case)
    for key in RUN_CONFIG_PATHS
    for case in ("missing", "a-directory", "not-utf-8")
]


@pytest.mark.parametrize(
    "key, case", RUN_CONFIG_CASES, ids=[f"{k}-{case}" for k, case in RUN_CONFIG_CASES]
)
def test_every_run_config_path_refuses_a_file_it_cannot_read(
    tmp_path, capsys, key, case
):
    argv = reader_argv(tmp_path, "self-train")
    config_path = pathlib.Path(argv[argv.index("--config") + 1])
    config = json.loads(config_path.read_text(encoding="utf-8"))
    # Every key holds a good file but the one under test.
    config["exclude"] = [config["target_dev"]]
    config["generator"]["template"] = str(tmp_path / "in" / "template.txt")
    content, reason = BAD_INPUTS[case]
    bad = tmp_path / case
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    group, _, name = key.rpartition(".")
    section = config[group] if group else config
    section[name] = [str(bad)] if key == "exclude" else str(bad)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["self-train", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spskit: error: ")
    assert reason in err
    assert err.count(str(bad)) == 1
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, flag",
    [(subcommand, flag) for subcommand, flags in INPUT_FLAGS.items() for flag in flags],
)
def test_every_input_flag_refuses_an_empty_path(tmp_path, capsys, subcommand, flag):
    # Only leaving a flag out leaves its input out: "" names a file, as it
    # does for a required flag.
    argv = reader_argv(tmp_path, subcommand)
    argv[argv.index(flag) + 1] = ""
    assert main([subcommand, *argv]) == 1
    assert capsys.readouterr().err == "spskit: error: input file not found: \n"
    assert list((tmp_path / "out").iterdir()) == []


# Every optional output flag, and what refusing an empty value says.
OPTIONAL_OUTPUTS = {
    ("convert", "--report"): "--report is empty",
    ("transfer-seg", "--report"): "--report is empty",
    ("parse", "--confidences"): "--confidences is empty",
    ("select", "--sidecar"): "--sidecar is empty",
    ("eval", "--json"): "--json is empty",
    ("self-train", "--out-dir"): "'out_dir' must be a non-empty string",
}


@pytest.mark.parametrize(
    "subcommand, flag", list(OPTIONAL_OUTPUTS), ids=[" ".join(k) for k in OPTIONAL_OUTPUTS]
)
def test_every_optional_output_flag_refuses_an_empty_path(
    tmp_path, capsys, monkeypatch, subcommand, flag
):
    # Only leaving a flag out leaves its output out: "" is refused before
    # anything is written, not read as "no report" or as the config's out_dir.
    argv = reader_argv(tmp_path, subcommand)
    argv[argv.index(flag) + 1] = ""
    monkeypatch.chdir(tmp_path / "out")
    assert main([subcommand, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spskit: error: ")
    assert OPTIONAL_OUTPUTS[subcommand, flag] in err
    assert list((tmp_path / "out").iterdir()) == []
    assert not (tmp_path / "in" / "run").exists()  # the config's out_dir


def test_the_reader_table_covers_every_subcommand():
    assert sorted(INPUT_FLAGS) == sorted(SUBCOMMANDS)


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this spskit."""
    src = str(pathlib.Path(spskit.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )


class TestImportFootprint:
    def test_only_the_service_backend_loads_the_http_client(self):
        done = run_python(
            "import sys\n"
            "import spskit, spskit.cli\n"
            "assert 'requests' not in sys.modules, 'loaded on import'\n"
            "spskit.ServiceGenerator('http://127.0.0.1:1/none')\n"
            "assert 'requests' in sys.modules, 'not loaded by the service backend'\n"
        )
        assert done.returncode == 0, done.stderr

    def test_offline_stages_run_without_the_http_client(self, tmp_path):
        treebank = tmp_path / "const.txt"
        treebank.write_text("(IP (NP (NN 指标)) (VP (VV 高于)))\n", encoding="utf-8")
        table = tmp_path / "table.json"
        rule = {"pattern": {"parent": "IP"}, "rewrite": {"parent": "s"}, "priority": 1}
        table.write_text(
            json.dumps({"default_label": "att", "rules": [rule]}), encoding="utf-8"
        )
        config = TestSelfTrainCommand.make_config(tmp_path)
        commands = [
            ["convert", "--input", str(treebank), "--table", str(table),
             "--output", str(tmp_path / "sps.txt")],
            ["extract-rules", "--input", str(tmp_path / "sps.txt"),
             "--output", str(tmp_path / "rules.txt")],
            ["self-train", "--config", str(config)],
        ]
        done = run_python(
            "import json, sys\n"
            "sys.modules['requests'] = None  # any import of it now fails\n"
            "from spskit.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n",
            json.dumps(commands),
        )
        assert done.returncode == 0, done.stderr
        assert "s -> att att" in (tmp_path / "rules.txt").read_text(encoding="utf-8")
        assert (tmp_path / "run" / "manifest.json").exists()


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
