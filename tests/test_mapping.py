import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spskit.errors import MappingTableError, UnmappedNodeError
from spskit.mapping import MappingRule, MappingTable, convert_corpus
from spskit.treebank import ParseTree, parse_bracketed, serialize

tokens = st.text(alphabet="abc指标", min_size=1, max_size=3)
labels = st.sampled_from(["IP", "NP", "VP", "NN", "VV"])


def convert(tree, table):
    """The one tree ``convert_corpus([tree], table)`` returns."""
    (out,), _ = convert_corpus([tree], table)
    return out


def trees(max_depth=4):
    def extend(children):
        return st.builds(
            ParseTree, labels, st.lists(children, min_size=1, max_size=3).map(tuple)
        )

    leaf_node = st.builds(ParseTree, labels, st.tuples(tokens))
    return st.recursive(leaf_node, extend, max_leaves=8)


def rule(parent, children, new_parent=None, new_children=None, priority=0):
    return MappingRule(
        parent_pattern=parent,
        child_pattern=None if children is None else tuple(children),
        parent_rewrite=new_parent,
        child_rewrites=None if new_children is None else tuple(new_children),
        priority=priority,
    )


@pytest.fixture
def subject_predicate_table():
    # "an NP with a VP sibling is the subject; the VP is the predicate"
    return MappingTable(
        rules=[
            rule("IP", ["NP", "VP"], "sps", ["subject", "predicate"], priority=10),
        ],
        default_label="att",
    )


class TestConvert:
    def test_two_rule_example_hand_applied(self, subject_predicate_table):
        # Hand application: IP matches and assigns itself "sps" and its
        # children subject/predicate; the POS preterminals match nothing and
        # fall back to the default label.
        tree = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 高于)))")
        out = convert(tree, subject_predicate_table)
        assert serialize(out) == "(sps (subject (att 指标)) (predicate (att 高于)))"

    def test_identity_table_is_a_no_op(self):
        table = MappingTable(
            rules=[
                rule(label, None, label, priority=i)
                for i, label in enumerate(["IP", "NP", "VP", "NN", "VV"])
            ],
            default_label="att",
        )
        tree = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 高于) (NP (NN a))))")
        assert convert(tree, table) == tree

    def test_unmatched_nodes_all_get_the_default(self):
        table = MappingTable(rules=[rule("ZZZ", None, "x")], default_label="att")
        tree = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 高于)))")
        out = convert(tree, table)
        assert all(node.label == "att" for node in out.subtrees())

    def test_pos_passthrough_is_expressible_as_rules(self, subject_predicate_table):
        table = MappingTable(
            rules=subject_predicate_table.rules
            + [rule("NN", None, "NN", priority=1), rule("VV", None, "VV", priority=2)],
            default_label="att",
        )
        tree = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 高于)))")
        out = convert(tree, table)
        assert serialize(out) == "(sps (subject (NN 指标)) (predicate (VV 高于)))"

    def test_priority_decides_between_matches(self):
        tree = parse_bracketed("(NP (NN a))")
        low = rule("NP", None, "low", priority=1)
        high = rule("NP", None, "high", priority=5)
        out = convert(tree, MappingTable(rules=[low, high], default_label="att"))
        assert out.label == "high"

    def test_wildcard_position_matches_any_label(self):
        table = MappingTable(
            rules=[rule("IP", ["*", "VP"], "s", ["subject", "predicate"], priority=1)],
            default_label="att",
        )
        tree = parse_bracketed("(IP (XX (NN a)) (VP (VV b)))")
        out = convert(tree, table)
        assert [c.label for c in out.children] == ["subject", "predicate"]

    def test_arity_must_match_explicit_child_patterns(self):
        table = MappingTable(
            rules=[rule("IP", ["NP", "VP"], "s", priority=1)], default_label="att"
        )
        tree = parse_bracketed("(IP (NP (NN a)) (VP (VV b)) (NP (NN c)))")
        assert convert(tree, table).label == "att"  # three children, no match

    def test_strict_mode_raises_on_unmapped(self):
        table = MappingTable(
            rules=[rule("IP", None, "s", priority=1)],
            default_label="att",
            strict=True,
        )
        with pytest.raises(UnmappedNodeError):
            convert(parse_bracketed("(IP (NP (NN a)))"), table)

    @given(trees())
    def test_shape_and_tokens_preserved(self, tree):
        table = MappingTable(
            rules=[rule("NP", None, "subject", priority=1)], default_label="att"
        )
        out = convert(tree, table)
        assert out.leaves() == tree.leaves()

        def shape(node):
            return [
                shape(c) if isinstance(c, ParseTree) else None for c in node.children
            ]

        assert shape(out) == shape(tree)

    @given(trees())
    def test_deterministic(self, tree):
        table = MappingTable(
            rules=[rule("NP", None, "subject", priority=1)], default_label="att"
        )
        assert convert(tree, table) == convert(tree, table)


class TestConvertCorpus:
    def test_fallback_counting(self, subject_predicate_table):
        with_fallback = parse_bracketed("(XX (NN a))")
        clean = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 高于)))")
        out, report = convert_corpus([clean, with_fallback], subject_predicate_table)
        assert len(out) == 2
        assert report.trees == 2
        # clean tree: NN and VV fall back; other tree: XX and NN fall back
        assert report.fallback_count == 4
        assert report.fallbacks_by_label["NN"] == 2

    def test_empty_corpus(self, subject_predicate_table):
        out, report = convert_corpus([], subject_predicate_table)
        assert out == [] and report.trees == 0 and report.fallback_count == 0

    @given(st.lists(trees(), max_size=20))
    def test_identity_table_never_falls_back(self, corpus):
        table = MappingTable(
            rules=[
                rule(label, None, label, priority=i)
                for i, label in enumerate(["IP", "NP", "VP", "NN", "VV"])
            ],
            default_label="att",
        )
        out, report = convert_corpus(corpus, table)
        assert out == list(corpus)
        assert report.fallback_count == 0

    @given(st.lists(trees(), max_size=12))
    def test_fallbacks_equal_the_per_tree_sums(self, corpus):
        # A corpus repeats its preterminals, fallbacks among them, across
        # trees; NN is assigned a label under NP [NN] and falls back elsewhere.
        table = MappingTable(
            rules=[
                rule("IP", ["NP", "VP"], "sps", ["subject", "predicate"], priority=3),
                rule("NP", ["NN"], "np", ["head"], priority=2),
                rule("VV", None, "v", priority=1),
            ],
            default_label="att",
        )
        corpus = corpus + [parse_bracketed("(IP (NP (NN a)) (VP (XX a)))")] * 2
        out, report = convert_corpus(corpus, table)
        per_tree = [convert_corpus([t], table) for t in corpus]
        assert out == [tree for (tree,), _ in per_tree]
        reports = [r for _, r in per_tree]
        assert report.trees == len(corpus)
        assert report.fallback_count == sum(r.fallback_count for r in reports)
        assert report.fallbacks_by_label == sum(
            (r.fallbacks_by_label for r in reports), Counter()
        )

    def test_equal_preterminals_convert_to_one_node(self, subject_predicate_table):
        clean = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 高于)))")
        again = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 指标)))")
        (first, second), report = convert_corpus([clean, again], subject_predicate_table)
        assert report.fallback_count == 4
        assert report.fallbacks_by_label == Counter({"NN": 2, "VV": 2})
        assert first.children[0].children[0] is second.children[0].children[0]

    def test_strict_error_names_the_first_failing_tree(self):
        # NN converts under NP, whose rule assigns it a label, and fails
        # alone: its earlier conversion must not be taken for the failing one.
        table = MappingTable(
            rules=[
                rule("IP", None, "s", priority=1),
                rule("NP", ["NN"], "np", ["head"], priority=2),
            ],
            default_label="att",
            strict=True,
        )
        corpus = [
            parse_bracketed("(IP (NP (NN a)))"),
            parse_bracketed("(IP (NP (NN a)) (NP (NN a)))"),
            parse_bracketed("(IP (NN a))"),
            parse_bracketed("(IP (NN a))"),
        ]
        with pytest.raises(UnmappedNodeError, match="^tree 2: .*'NN'"):
            convert_corpus(corpus, table)

    def test_strict_error_carries_tree_index(self):
        table = MappingTable(
            rules=[rule("IP", None, "s", priority=1)],
            default_label="att",
            strict=True,
        )
        good = parse_bracketed("(IP (IP a))")
        bad = parse_bracketed("(IP (NP (NN a)))")
        with pytest.raises(UnmappedNodeError) as err:
            convert_corpus([good, bad], table)
        assert "tree 1" in str(err.value)


class TestMappingTable:
    def test_duplicate_priorities_rejected(self):
        with pytest.raises(MappingTableError):
            MappingTable(
                rules=[rule("A", None, "x", priority=1), rule("B", None, "y", priority=1)],
                default_label="att",
            )

    def test_empty_table_rejected(self):
        with pytest.raises(MappingTableError):
            MappingTable(rules=[], default_label="att")

    def test_child_rewrites_must_align(self):
        with pytest.raises(MappingTableError):
            rule("A", ["B"], "x", ["y", "z"], priority=1)
        with pytest.raises(MappingTableError):
            rule("A", None, "x", ["y"], priority=1)

    def test_from_json(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(
            json.dumps(
                {
                    "default_label": "att",
                    "rules": [
                        {
                            "pattern": {"parent": "IP", "children": ["NP", "VP"]},
                            "rewrite": {
                                "parent": "sps",
                                "children": ["subject", "predicate"],
                            },
                            "priority": 10,
                        },
                        {
                            "pattern": {"parent": "NN"},
                            "rewrite": {"parent": "NN"},
                            "priority": 1,
                        },
                    ],
                },
                ensure_ascii=False,
            ),
            encoding="utf-8",
        )
        table = MappingTable.from_json(path)
        assert table.default_label == "att"
        assert table.rules[0].priority == 10  # sorted, highest first
        tree = parse_bracketed("(IP (NP (NN 指标)) (VP (VV 高于)))")
        out = convert(tree, table)
        assert serialize(out) == "(sps (subject (NN 指标)) (predicate (att 高于)))"

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("priority", "5", "'priority'"),
            ("priority", 2.0, "'priority'"),
            ("priority", True, "'priority'"),
            ("pattern", {"parent": "IP", "children": "NP"}, "pattern 'children'"),
            ("pattern", {"parent": "IP", "children": ["NP", 3]}, "pattern 'children'"),
            ("pattern", {"parent": "IP", "children": ["NP", None]}, "pattern 'children'"),
            ("pattern", {"parent": ""}, "pattern 'parent'"),
            ("pattern", {"parent": ["IP"]}, "pattern 'parent'"),
            ("pattern", {"parent": None}, "pattern 'parent'"),
            ("rewrite", {"parent": 5}, "rewrite 'parent'"),
            ("rewrite", {"parent": ""}, "rewrite 'parent'"),
            ("rewrite", {"parent": "s", "children": "ab"}, "rewrite 'children'"),
            ("rewrite", {"parent": "s", "children": [1, None]}, "rewrite 'children'"),
            # A label that would not re-read from a tree's bracketing.
            ("pattern", {"parent": "I P"}, "pattern 'parent'"),
            ("pattern", {"parent": "IP", "children": ["NP", "(VP"]}, "pattern 'children'"),
            ("rewrite", {"parent": "s p"}, "rewrite 'parent'"),
            ("rewrite", {"parent": "s)"}, "rewrite 'parent'"),
            ("rewrite", {"parent": "s", "children": ["a\tb", None]}, "rewrite 'children'"),
        ],
    )
    def test_from_json_names_a_rule_value_of_the_wrong_type(
        self, tmp_path, field, value, named
    ):
        # "children": "NP" used to be read as ("N", "P"), a rule that never
        # matches; "priority": "5" failed later with a raw TypeError.
        entry = {
            "pattern": {"parent": "IP", "children": ["NP", "VP"]},
            "rewrite": {"parent": "s"},
            "priority": 1,
        }
        entry[field] = value
        path = tmp_path / "table.json"
        rules = [{"pattern": {"parent": "NN"}, "priority": 2}, entry]
        path.write_text(
            json.dumps({"default_label": "att", "rules": rules}), encoding="utf-8"
        )
        with pytest.raises(MappingTableError, match="rule 1: " + named) as info:
            MappingTable.from_json(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("default_label", 5),
            ("default_label", ""),
            ("default_label", None),
            ("default_label", "a b"),
            ("default_label", "(att"),
            ("strict", "no"),
            ("strict", 1),
            ("strict", None),
        ],
    )
    def test_from_json_names_a_table_value_of_the_wrong_type(self, tmp_path, key, value):
        # "strict": "no" is truthy, so it must be refused, not run strict; a
        # label that is no string would fail only when trees are written.
        rules = [{"pattern": {"parent": "NN"}, "priority": 1}]
        table = {"default_label": "att", "rules": rules, key: value}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        with pytest.raises(MappingTableError, match=f"'{key}' must be") as info:
            MappingTable.from_json(path)
        assert str(path) in str(info.value)

    def test_from_json_reads_strict(self, tmp_path):
        path = tmp_path / "table.json"
        rules = [{"pattern": {"parent": "NN"}, "priority": 1}]
        for strict in (True, False):
            table = {"default_label": "att", "strict": strict, "rules": rules}
            path.write_text(json.dumps(table), encoding="utf-8")
            assert MappingTable.from_json(path).strict is strict

    def test_from_json_accepts_null_child_rewrites(self, tmp_path):
        path = tmp_path / "table.json"
        entry = {
            "pattern": {"parent": "IP", "children": ["NP", "*"]},
            "rewrite": {"children": ["subject", None]},
            "priority": 1,
        }
        path.write_text(
            json.dumps({"default_label": "att", "rules": [entry]}), encoding="utf-8"
        )
        (rule_,) = MappingTable.from_json(path).rules
        assert rule_.child_pattern == ("NP", "*")
        assert rule_.child_rewrites == ("subject", None)

    def test_from_json_missing_key(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"rules": []}', encoding="utf-8")
        with pytest.raises(MappingTableError):
            MappingTable.from_json(path)
