import dataclasses
import json
import os
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spskit.errors import LabelError, RootPromotionError, SpsError, TreeSyntaxError
from spskit.parser import PseudoTree, train
from spskit.rules import SyntacticRule
from spskit.selftrain import RunManifest
from spskit.treebank import (
    LabelInventory,
    ParseTree,
    Sentence,
    _is_token,
    default_inventory,
    normalize_pos_nodes,
    parse_bracketed,
    read_treebank,
    serialize,
    validate_tree,
    write_json,
    write_text_atomic,
    write_treebank,
)

tokens = st.text(alphabet="ab天晚x1", min_size=1, max_size=3)
labels = st.sampled_from(["A", "B", "p", "q"])


def trees(max_depth=4):
    def extend(children):
        return st.builds(
            ParseTree, labels, st.lists(children, min_size=1, max_size=3).map(tuple)
        )

    leaf_node = st.builds(ParseTree, labels, st.tuples(tokens))
    return st.recursive(leaf_node, extend, max_leaves=8)


class TestParseBracketed:
    def test_three_child_tree(self, flat_time_tree):
        assert flat_time_tree.label == "adv"
        assert len(flat_time_tree.children) == 3
        assert flat_time_tree.leaves() == ["昨天", "晚上", "，"]

    def test_minimal_tree_with_inventory(self):
        inv = LabelInventory(sps_labels={"x"}, pos_labels=set())
        tree = parse_bracketed("(x a)", inventory=inv)
        assert tree == ParseTree("x", ("a",))

    def test_unbalanced_is_an_error(self):
        with pytest.raises(TreeSyntaxError):
            parse_bracketed("(a (b")

    @pytest.mark.parametrize("text", ["", "()", "(a)", "(a b))", "a", "(a b) (c d)"])
    def test_malformed_inputs(self, text):
        with pytest.raises(TreeSyntaxError):
            parse_bracketed(text)

    def test_unknown_label_rejected_when_validating(self, fig_inventory):
        with pytest.raises(LabelError) as err:
            parse_bracketed("(adv (zz 昨天))", inventory=fig_inventory)
        assert "zz" in str(err.value)


class TestSerialize:
    def test_canonical_single_spacing(self):
        tree = parse_bracketed("(adv   (t 昨天)  (t 晚上)   (w ，))")
        assert serialize(tree) == "(adv (t 昨天) (t 晚上) (w ，))"

    def test_fig_normalized_tree(self, flat_time_tree):
        assert serialize(flat_time_tree) == "(adv (t 昨天) (t 晚上) (w ，))"

    @settings(max_examples=1000, deadline=None)
    @given(trees())
    def test_round_trip_identity(self, tree):
        assert parse_bracketed(serialize(tree)) == tree


class TestNormalizePosNodes:
    def test_pos_over_internal_nodes_is_spliced(
        self, nested_time_tree, flat_time_tree, fig_inventory
    ):
        assert normalize_pos_nodes(nested_time_tree, fig_inventory) == flat_time_tree

    def test_tree_without_such_nodes_is_unchanged(self, flat_time_tree, fig_inventory):
        # Not a copy: trees are immutable, so the input itself is the result.
        assert normalize_pos_nodes(flat_time_tree, fig_inventory) is flat_time_tree

    def test_a_splice_rebuilds_only_its_path_to_the_root(
        self, nested_time_tree, fig_inventory
    ):
        out = normalize_pos_nodes(nested_time_tree, fig_inventory)
        spliced, comma = nested_time_tree.children
        assert out is not nested_time_tree
        assert out.children[0] is spliced.children[0]
        assert out.children[1] is spliced.children[1]
        assert out.children[2] is comma
        assert serialize(nested_time_tree) == "(adv (t (t 昨天) (t 晚上)) (w ，))"

    def test_double_nesting_splices_to_fixpoint(self, fig_inventory):
        tree = parse_bracketed("(adv (t (t (t a))))")
        assert serialize(normalize_pos_nodes(tree, fig_inventory)) == "(adv (t a))"

    def test_deletable_multi_child_root_is_an_error(self, fig_inventory):
        tree = parse_bracketed("(t (t a) (t b))")
        with pytest.raises(RootPromotionError):
            normalize_pos_nodes(tree, fig_inventory)

    def test_deletable_single_child_root_promotes_the_child(self, fig_inventory):
        tree = parse_bracketed("(t (adv (t a)))")
        assert serialize(normalize_pos_nodes(tree, fig_inventory)) == "(adv (t a))"

    @given(trees())
    def test_idempotent_and_leaf_preserving(self, tree):
        inv = LabelInventory(sps_labels={"A", "B"}, pos_labels={"p", "q"})
        try:
            once = normalize_pos_nodes(tree, inv)
        except RootPromotionError:
            return
        assert normalize_pos_nodes(once, inv) == once
        assert once.leaves() == tree.leaves()


class TestLabelInventory:
    def test_overlap_rejected(self):
        with pytest.raises(LabelError):
            LabelInventory(sps_labels={"a", "b"}, pos_labels={"b"})

    def test_membership(self, fig_inventory):
        assert "adv" in fig_inventory
        assert "t" in fig_inventory
        assert "zz" not in fig_inventory

    def test_json_round_trip(self, tmp_path, fig_inventory):
        path = tmp_path / "inv.json"
        data = {
            "sps_labels": sorted(fig_inventory.sps_labels),
            "pos_labels": sorted(fig_inventory.pos_labels),
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        assert LabelInventory.from_json(path) == fig_inventory

    @pytest.mark.parametrize(
        "data, named",
        [
            ([], "must hold an object"),
            ("s", "must hold an object"),
            ({"pos_labels": ["n"]}, "missing key 'sps_labels'"),
            ({"sps_labels": "subj", "pos_labels": ["n"]}, "'sps_labels' must be"),
            ({"sps_labels": ["s"], "pos_labels": {"n": 1}}, "'pos_labels' must be"),
            ({"sps_labels": ["s", 3], "pos_labels": ["n"]}, "'sps_labels' must be"),
            ({"sps_labels": ["s"], "pos_labels": [""]}, "'pos_labels' must be"),
        ],
    )
    def test_from_json_names_a_value_of_the_wrong_type(self, tmp_path, data, named):
        # A string is iterable, so "subj" must be refused, not read as the
        # labels s, u, b and j; a file that is no object names its path.
        path = tmp_path / "inv.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(LabelError, match=named) as info:
            LabelInventory.from_json(path)
        assert str(path) in str(info.value)

    def test_default_inventory_loads(self):
        inv = default_inventory()
        assert "subject" in inv.sps_labels
        assert "ind" in inv.sps_labels
        assert "w" in inv.pos_labels
        assert not inv.sps_labels & inv.pos_labels


class TestTreebankFiles:
    def test_blank_lines_ignored_and_round_trip(self, tmp_path, flat_time_tree):
        path = tmp_path / "trees.txt"
        path.write_text(
            "\n(adv (t 昨天) (t 晚上) (w ，))\n\n(adv (t a))\n\n", encoding="utf-8"
        )
        trees = read_treebank(path)
        assert trees[0] == flat_time_tree
        out = tmp_path / "out.txt"
        write_treebank(trees, out)
        assert read_treebank(out) == trees

    def test_bad_label_reported_with_path_and_line_number(self, tmp_path, fig_inventory):
        path = tmp_path / "trees.txt"
        path.write_text("(adv (t a))\n(adv (zz b))\n", encoding="utf-8")
        with pytest.raises(LabelError) as err:
            read_treebank(path, inventory=fig_inventory)
        assert str(err.value) == f"{path}:2: unknown labels: zz"

    def test_syntax_error_reported_with_path_and_line_number(self, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_text("(adv (t a))\n\n(adv (t b\n", encoding="utf-8")
        with pytest.raises(TreeSyntaxError) as err:
            read_treebank(path)
        assert str(err.value) == f"{path}:3: unbalanced brackets: missing ')'"

    def test_a_crlf_file_reads_like_its_lf_twin(self, tmp_path):
        lines = ["(adv (t 昨天) (t 晚上))", "", "(adv (t a))", "(adv (t b"]
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes("\n".join(lines[:3]).encode("utf-8") + b"\n")
        crlf.write_bytes("\r\n".join(lines[:3]).encode("utf-8") + b"\r\n")
        assert read_treebank(crlf) == read_treebank(lf)
        assert len(read_treebank(lf)) == 2
        crlf.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        with pytest.raises(TreeSyntaxError, match=f"^{re.escape(str(crlf))}:4: "):
            read_treebank(crlf)

    def test_a_byte_order_mark_is_dropped_and_offsets_count_from_the_file(self, tmp_path):
        # Some editors begin a UTF-8 file with U+FEFF (bytes EF BB BF).
        path = tmp_path / "trees.txt"
        path.write_bytes(b"\xef\xbb\xbf(adv (t a))\n")
        assert read_treebank(path) == [parse_bracketed("(adv (t a))")]
        path.write_bytes(b"\xef\xbb\xbf(a\xff)\n")  # the bad byte is byte 5
        with pytest.raises(SpsError) as err:
            read_treebank(path)
        assert str(err.value) == f"input file not UTF-8: {path} (invalid start byte at byte 5)"

    @pytest.mark.parametrize("separator", ["\x1c", "\x85", "\u2028"])
    def test_a_unicode_line_separator_does_not_end_a_tree(self, tmp_path, separator):
        path = tmp_path / "trees.txt"
        path.write_text(f"(adv (t a){separator}(t b))\n", encoding="utf-8")
        assert read_treebank(path) == [parse_bracketed("(adv (t a) (t b))")]

    def test_equal_strings_of_one_file_are_one_object(self, tmp_path):
        lines = ["(subj (n 指标) (n 指标))", "(subj (v 高于) (n 指标))"]
        path = tmp_path / "trees.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        first, second = read_treebank(path)
        assert [first, second] == [parse_bracketed(line) for line in lines]
        assert first.label is second.label
        assert first.children[1].label is second.children[1].label
        shared = {id(token) for tree in (first, second) for token in tree.leaves()}
        assert len(shared) == 2  # 指标 three times, 高于 once

    def test_equal_preterminals_of_one_file_are_one_node(self, tmp_path):
        lines = ["(subj (n 指标) (n 指标))", "(subj (v 指标) (n 指标))", "(n 指标)", "(n 指标)"]
        path = tmp_path / "trees.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        trees = read_treebank(path)
        # The repeated one-node tree still reads as two equal entries.
        assert trees == [parse_bracketed(line) for line in lines]
        first, second, third, fourth = trees
        nodes = [first.children[0], first.children[1], second.children[1], third, fourth]
        assert len({id(node) for node in nodes}) == 1
        assert second.children[0] is not first.children[0]  # another label

    def test_unknown_labels_all_reported(self, fig_inventory):
        tree = parse_bracketed("(adv (zz a) (yy b))")
        with pytest.raises(LabelError) as err:
            validate_tree(tree, fig_inventory)
        assert "yy" in str(err.value) and "zz" in str(err.value)


WRITERS = {
    "write_treebank": lambda path: write_treebank([parse_bracketed("(s (n a))")], path),
    "ParserModel.save": lambda path: train([parse_bracketed("(s (n a))")]).save(path),
    "write_json": lambda path: write_json(path, RunManifest(config={})),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_the_previous_contents(
        self, writer, tmp_path, monkeypatch
    ):
        path = tmp_path / "out"
        path.write_text("previous\n", encoding="utf-8")

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            WRITERS[writer](path)
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("target", ["no-directory/out.txt", "a-directory"])
    def test_an_error_names_the_requested_path(self, tmp_path, target):
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / target
        with pytest.raises(OSError) as err:
            write_text_atomic(path, "x\n")
        assert str(err.value).endswith(f": {str(path)!r}")
        assert ".tmp" not in str(err.value)
        assert [p.name for p in tmp_path.rglob("*")] == ["a-directory"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_new_files_get_the_permissions_of_a_plain_open(self, tmp_path, umask):
        # The umask of the moment applies, not one taken earlier.
        previous = os.umask(umask)
        try:
            plain = tmp_path / "plain.txt"
            with open(plain, "w", encoding="utf-8") as f:
                f.write("x\n")
            atomic = tmp_path / "atomic.txt"
            write_text_atomic(atomic, "x\n")
        finally:
            os.umask(previous)
        assert atomic.stat().st_mode == plain.stat().st_mode
        assert atomic.stat().st_mode & 0o777 == 0o666 & ~umask
        assert atomic.read_bytes() == plain.read_bytes()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_a_temporary_name_in_use_is_refused_and_left_alone(
        self, tmp_path, monkeypatch
    ):
        taken = tmp_path / ".spskit-0000000000000000.tmp"
        taken.write_text("another writer's\n", encoding="utf-8")
        monkeypatch.setattr(os, "urandom", bytes)  # bytes(8): eight zero bytes
        target = tmp_path / "out.txt"
        with pytest.raises(FileExistsError) as err:
            write_text_atomic(target, "x\n")
        assert err.value.filename == str(target)
        assert taken.read_text(encoding="utf-8") == "another writer's\n"
        assert [p.name for p in tmp_path.iterdir()] == [taken.name]


class TestFuzzing:
    @given(st.text(alphabet="()ab 天，\t", max_size=40))
    def test_arbitrary_input_parses_or_raises_cleanly(self, text):
        try:
            tree = parse_bracketed(text)
        except TreeSyntaxError:
            return
        assert parse_bracketed(serialize(tree)) == tree


class TestDomainTypes:
    def test_sentence_invariants(self):
        with pytest.raises(ValueError):
            Sentence(())
        with pytest.raises(ValueError):
            Sentence(("a", "b c"))
        assert Sentence.from_text("a b").text() == "a b"
        assert len(Sentence(("a", "b")).tokens) == 2

    @given(st.text(alphabet="a(天)", min_size=1, max_size=4), labels)
    def test_a_token_is_rejected_or_re_reads(self, token, label):
        if "(" in token or ")" in token:
            with pytest.raises(TreeSyntaxError):
                ParseTree(label, (token,))
            with pytest.raises(ValueError):
                Sentence(("x", token))
            return
        tree = ParseTree(label, (token,))
        assert parse_bracketed(serialize(tree)) == tree
        assert Sentence((token,)).tokens == (token,)

    def test_the_token_rule_matches_its_definition_on_every_character(self):
        # _is_token passes letters and digits without splitting; no code point
        # may make that shortcut disagree with the rule itself (a string is
        # alphanumeric when each of its characters is).
        for code in range(sys.maxunicode + 1):
            char = chr(code)
            expected = char.split() == [char] and char not in "()"
            assert _is_token(char) == expected, hex(code)

    def test_node_invariants(self):
        with pytest.raises(TreeSyntaxError):
            ParseTree("a", ())
        with pytest.raises(TreeSyntaxError):
            ParseTree("a", ("tok en",))
        for label in ("", "s p", "s\tp", "(s", "s)", None, 5):
            with pytest.raises(TreeSyntaxError, match="bad node label"):
                ParseTree(label, ("x",))

    @given(st.text(alphabet="a(天) \u3000", min_size=1, max_size=4))
    def test_a_label_is_rejected_or_re_reads(self, label):
        # "s p" used to be written as "(s p (n a))", which reads back as
        # label "s" over a stray token "p".
        if label.split() != [label] or "(" in label or ")" in label:
            with pytest.raises(TreeSyntaxError):
                ParseTree(label, ("x",))
            return
        tree = ParseTree("s", (ParseTree(label, ("x",)),))
        assert parse_bracketed(serialize(tree)) == tree

    def test_tree_helpers(self, flat_time_tree):
        assert flat_time_tree.sentence() == Sentence(("昨天", "晚上", "，"))
        assert [n.label for n in flat_time_tree.subtrees()] == ["adv", "t", "t", "w"]
        assert str(flat_time_tree) == serialize(flat_time_tree)


def _value(kind, token="a"):
    tree = parse_bracketed(f"(s (n {token}) (v b))")
    return {
        "ParseTree": tree,
        "Sentence": tree.sentence(),
        "PseudoTree": PseudoTree(tree.sentence(), tree, 0.5),
        "SyntacticRule": SyntacticRule("s", ("n", token)),
    }[kind]


VALUE_TYPES = ["ParseTree", "Sentence", "PseudoTree", "SyntacticRule"]


class TestSlottedValueTypes:
    @pytest.mark.parametrize("kind", VALUE_TYPES)
    def test_no_instance_dict_and_fields_stay_frozen(self, kind):
        value = _value(kind)
        assert not hasattr(value, "__dict__")
        # "extra" is no field: it must fail as frozen, not for want of a slot.
        for name in [f.name for f in dataclasses.fields(value)] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name, 1))

    @pytest.mark.parametrize("kind", VALUE_TYPES)
    def test_equality_and_hash_are_by_field_values(self, kind):
        value, twin = _value(kind), _value(kind)
        assert value == twin and value is not twin
        assert value != _value(kind, token="c")
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        assert hash(value) == hash(twin) == hash(fields)

    def test_rules_order_by_parent_then_children(self):
        rules = [
            SyntacticRule("s", ("n", "v")),
            SyntacticRule("np", ("n",)),
            SyntacticRule("s", ("n",)),
            SyntacticRule("np", ("adj", "n")),
        ]
        assert sorted(rules) == sorted(rules, key=lambda r: (r.parent, r.children))
        assert sorted(rules)[0] == SyntacticRule("np", ("adj", "n"))
