import dataclasses
import hashlib
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spskit import segmentation
from spskit.errors import RootPromotionError
from spskit.segmentation import Lexicon, SplitTable, transfer_corpus
from spskit.treebank import (
    LabelInventory,
    ParseTree,
    normalize_pos_nodes,
    parse_bracketed,
    serialize,
)


@pytest.fixture
def toy_lexicon():
    # Exactly four words: enough to reproduce all three granularity cases.
    return Lexicon(["圣诞节", "武侠", "小说", "火儿"])


class TestLexicon:
    def test_membership_and_strict_prefix(self, toy_lexicon):
        assert "武侠" in toy_lexicon
        assert "圣诞" not in toy_lexicon
        assert toy_lexicon.is_strict_prefix("圣诞")
        assert toy_lexicon.is_strict_prefix("圣")
        assert not toy_lexicon.is_strict_prefix("圣诞节")  # full word, not strict
        assert not toy_lexicon.is_strict_prefix("qq")
        assert not toy_lexicon.is_strict_prefix("")

    @given(
        st.sets(st.text(alphabet="abc", min_size=1, max_size=4), min_size=1),
        st.text(alphabet="abc", min_size=1, max_size=4),
    )
    def test_queries_match_brute_force(self, words, query):
        lex = Lexicon(words)
        assert (query in lex) == (query in words)
        brute = any(w != query and w.startswith(query) for w in words)
        assert lex.is_strict_prefix(query) == brute

    def test_rejects_empty_words(self):
        with pytest.raises(ValueError):
            Lexicon(["a", ""])
        with pytest.raises(ValueError):
            Lexicon([])

    def test_accepts_a_generator(self):
        lex = Lexicon(w for w in ["ab", "a"])
        assert lex.words == {"ab", "a"}
        assert lex.is_strict_prefix("a")

    def test_duplicates_are_accepted(self):
        assert len(Lexicon(["a", "a", "b"])) == 2

    def test_from_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("圣诞节\n\n武侠\n", encoding="utf-8")
        lex = Lexicon.from_file(path)
        assert lex.words == {"圣诞节", "武侠"}


class TestSplitTable:
    def test_parts_must_concatenate(self):
        with pytest.raises(ValueError):
            SplitTable({"武侠小说": ["武侠", "小看"]})
        with pytest.raises(ValueError):
            SplitTable({"ab": ["ab", ""]})

    def test_from_file(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("武侠小说\t武侠 小说\n惹火\t惹 火\n", encoding="utf-8")
        table = SplitTable.from_file(path)
        assert table.entries == {"武侠小说": ("武侠", "小说"), "惹火": ("惹", "火")}

    def test_a_second_line_for_one_word_is_an_error(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("ab\ta b\n惹火\t惹 火\n\nab\tab\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            SplitTable.from_file(path)
        assert str(err.value) == f"{path}:4: duplicate entry 'ab' (first on line 1)"

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("no-tab-here\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            SplitTable.from_file(path)
        assert "1" in str(err.value)


def transfer_one(tree, lex, **options):
    """The transferred tree and the report of a one-tree corpus."""
    (out,), report = transfer_corpus([tree], lex, **options)
    return out, report


class TestSplit:
    def test_table_3_split_row(self, toy_lexicon):
        table = SplitTable({"武侠小说": ["武侠", "小说"]})
        tree = parse_bracketed("(obj (n 武侠小说))")
        out, report = transfer_one(tree, toy_lexicon, split_table=table)
        assert serialize(out) == "(obj (n 武侠) (n 小说))"
        assert report.split == 1

    def test_no_matching_keys_is_identity(self, toy_lexicon):
        table = SplitTable({"武侠小说": ["武侠", "小说"]})
        tree = parse_bracketed("(s (n 圣诞节))")
        out, report = transfer_one(tree, toy_lexicon, split_table=table)
        assert out == tree
        assert report.split == 0

    def test_a_one_part_entry_is_no_split(self, toy_lexicon):
        table = SplitTable({"ab": ["ab"]})
        for text in ("(s (n ab) (n c))", "(n ab)"):
            tree = parse_bracketed(text)
            out, report = transfer_one(tree, toy_lexicon, split_table=table)
            assert out is tree
            assert report.split == 0

    def test_misalignment_row_decomposition(self, toy_lexicon):
        # Split to 惹 火 儿 了, each part under a copy of its preterminal;
        # the merge then crosses the old token boundary.
        table = SplitTable({"惹火": ["惹", "火"], "儿了": ["儿", "了"]})
        tree = parse_bracketed("(vp (v 惹火) (u 儿了))")
        out, report = transfer_one(tree, toy_lexicon, split_table=table)
        assert serialize(out) == "(vp (v 惹) (v 火儿) (u 了))"
        assert report.split == 2
        assert report.merges[0].parts == ("火", "儿")
        assert report.merges[0].pos_labels == ("v", "u")

    def test_single_preterminal_root_with_entry_errors(self, toy_lexicon):
        table = SplitTable({"ab": ["a", "b"]})
        with pytest.raises(ValueError, match="single-node tree"):
            transfer_one(parse_bracketed("(n ab)"), toy_lexicon, split_table=table)


class TestGreedyMerge:
    def test_table_3_merge_row(self, toy_lexicon):
        tree = parse_bracketed("(s (n 圣诞) (n 节))")
        out, report = transfer_one(tree, toy_lexicon)
        assert serialize(out) == "(s (n 圣诞节))"
        assert report.merged == 1
        assert report.misaligned == [] and report.unmatched_logged == []
        assert report.merges[0].parts == ("圣诞", "节")
        assert report.merges[0].pos_labels == ("n", "n")

    def test_different_parents_block_the_merge(self, toy_lexicon):
        tree = parse_bracketed("(s (x (n 圣诞)) (y (n 节)))")
        out, report = transfer_one(tree, toy_lexicon)
        assert out == tree
        assert report.merged == 0
        assert report.misaligned == []

    def test_unmatched_token_is_logged_and_kept(self, toy_lexicon):
        tree = parse_bracketed("(s (n qq) (n 武侠))")
        out, report = transfer_one(tree, toy_lexicon)
        assert out == tree
        assert report.unmatched_logged == [(0, "qq")]

    def test_failed_attempt_is_misaligned(self):
        lex = Lexicon(["圣诞节", "武侠", "小说", "惹火上身"])
        tree = parse_bracketed("(vp (v 惹火) (u 儿了))")
        out, report = transfer_one(tree, lex)
        assert out == tree
        assert report.misaligned == [(0, 0, "惹火儿了")]

    def test_word_that_is_not_a_prefix_is_kept_silently(self, toy_lexicon):
        tree = parse_bracketed("(s (n 武侠) (n 小说))")
        out, report = transfer_one(tree, toy_lexicon)
        assert out == tree
        assert report.merged == 0
        assert report.misaligned == [] and report.unmatched_logged == []

    def test_merged_leaf_inherits_first_pos_label(self):
        lex = Lexicon(["ab"])
        tree = parse_bracketed("(s (x a) (y b))")
        out, _ = transfer_one(tree, lex)
        assert serialize(out) == "(s (x ab))"

    def test_lookahead_bounds_multi_leaf_merges(self):
        lex = Lexicon(["abcd"])
        tree = parse_bracketed("(s (n a) (n b) (n c) (n d))")
        out, report = transfer_one(tree, lex, lookahead=3)
        assert serialize(out) == "(s (n abcd))"
        short, report_short = transfer_one(tree, lex, lookahead=1)
        assert short == tree
        assert report_short.merged == 0

    def test_sweeps_repeat_until_no_merge_commits(self):
        # With one leaf of lookahead the first sweep makes ab; only a second
        # sweep can extend it to abc.
        lex = Lexicon(["ab", "abc"])
        tree = parse_bracketed("(s (n a) (n b) (n c))")
        out, report = transfer_one(tree, lex, lookahead=1)
        assert serialize(out) == "(s (n abc))"
        assert report.merged == 2
        assert report.merges[0].parts == ("a", "b", "c")

    def test_attempt_stops_at_the_first_non_prefix(self):
        lex = Lexicon(["ab"])
        _, report = transfer_one(parse_bracketed("(s (n a) (n c) (n b))"), lex)
        assert report.misaligned == [(0, 0, "ac")]
        assert report.unmatched_logged == [(0, "c"), (0, "b")]

    def test_fixpoint_idempotence(self, toy_lexicon):
        tree = parse_bracketed("(s (n 圣诞) (n 节) (n 武侠))")
        once, _ = transfer_one(tree, toy_lexicon)
        twice, second = transfer_one(once, toy_lexicon)
        assert twice == once
        assert second.merged == 0

    def test_rejects_non_standard_form(self, toy_lexicon):
        tree = ParseTree("s", ("a", ParseTree("n", ("b",))))
        with pytest.raises(ValueError, match="one token per preterminal"):
            transfer_one(tree, toy_lexicon)


class TestWordFirstResolve:
    def test_prefix_and_word_ambiguity_is_surfaced(self):
        # The greedy pass merges 中国人; word-first precedence keeps 中国
        # standalone and flags the conflict.
        lex = Lexicon(["中国", "中国人", "人"])
        tree = parse_bracketed("(s (n 中国) (n 人))")
        final, report = transfer_one(tree, lex)
        assert serialize(final) == "(s (n 中国) (n 人))"
        assert report.misaligned == [(0, 0, "中国人")]
        assert report.merged == 1
        assert report.split == 1

    def test_unambiguous_merge_is_kept(self, toy_lexicon):
        tree = parse_bracketed("(s (n 圣诞) (n 节))")
        final, report = transfer_one(tree, toy_lexicon)
        assert serialize(final) == "(s (n 圣诞节))"
        assert report.misaligned == []
        assert [r.parts for r in report.merges] == [("圣诞", "节")]

    def test_no_flags_no_entries(self, toy_lexicon):
        tree = parse_bracketed("(s (n 武侠) (n 小说))")
        out, report = transfer_one(tree, toy_lexicon)
        assert out == tree
        assert report.misaligned == []
        assert report.unmatched_logged == []
        assert report.merged == 0 and report.split == 0

    def test_word_first_clears_first_pass_flags(self):
        # 中国 is a word AND a prefix with no viable continuation: the greedy
        # reading would flag the attempt 中国是, the word-first one accepts 中国.
        lex = Lexicon(["中国", "中国人", "是"])
        tree = parse_bracketed("(s (n 中国) (v 是))")
        final, report = transfer_one(tree, lex)
        assert final == tree
        assert report.misaligned == []

    def test_split_back_residue_logged_exactly_once(self):
        # 人 is neither a word nor a prefix here, so the split-back leaves it
        # verbatim and it appears once in the unmatched log.
        lex = Lexicon(["中国", "中国人"])
        tree = parse_bracketed("(s (n 中国) (n 人))")
        final, report = transfer_one(tree, lex)
        assert serialize(final) == "(s (n 中国) (n 人))"
        assert report.unmatched_logged == [(0, "人")]

    def test_merges_are_undone_last_leaf_first(self):
        lex = Lexicon(["中国", "中国人", "人"])
        tree = parse_bracketed("(s (n 中国) (n 人) (n 中国) (n 人))")
        final, report = transfer_one(tree, lex)
        assert final == tree
        assert report.misaligned == [(0, 1, "中国人"), (0, 0, "中国人")]

    def test_three_token_chain_matches_exhaustive_oracle(self):
        lex = Lexicon(["ab", "abc", "c"])
        tree = parse_bracketed("(s (n a) (n b) (n c))")
        out, _ = transfer_corpus([tree], lex)

        def segmentations(chars):
            if not chars:
                return [[]]
            options = []
            for end in range(1, len(chars) + 1):
                head = chars[:end]
                if head in lex:
                    options.extend([head] + rest for rest in segmentations(chars[end:]))
            return options

        candidates = segmentations("abc")
        oracle = min(candidates, key=lambda seg: (len(seg), seg))
        assert out[0].leaves() == oracle == ["abc"]


class TestTransferCorpus:
    def test_table_3_full_pipeline(self, toy_lexicon):
        split_table = SplitTable(
            {"武侠小说": ["武侠", "小说"], "惹火": ["惹", "火"], "儿了": ["儿", "了"]}
        )
        trees = [
            parse_bracketed("(s (n 圣诞) (n 节))"),
            parse_bracketed("(s (n 武侠小说))"),
            parse_bracketed("(vp (v 惹火) (u 儿了))"),
        ]
        out, report = transfer_corpus(trees, toy_lexicon, split_table=split_table)
        assert serialize(out[0]) == "(s (n 圣诞节))"
        assert serialize(out[1]) == "(s (n 武侠) (n 小说))"
        assert out[2].leaves() == ["惹", "火儿", "了"]
        assert report.merged == 2  # 圣诞+节 and 火+儿
        assert report.split == 3  # one split entry plus the two decompositions

    def test_report_entries_carry_tree_indices(self, toy_lexicon):
        trees = [
            parse_bracketed("(s (n 武侠))"),
            parse_bracketed("(s (n qq))"),
        ]
        _, report = transfer_corpus(trees, toy_lexicon)
        assert report.unmatched_logged == [(1, "qq")]

    def test_report_json_round_trip(self, toy_lexicon):
        trees = [parse_bracketed("(s (n 圣诞) (n 节))")]
        _, report = transfer_corpus(trees, toy_lexicon)
        data = json.loads(json.dumps(dataclasses.asdict(report)))
        assert data["merged"] == 1
        assert data["merges"][0]["parts"] == ["圣诞", "节"]

    @pytest.mark.parametrize("lookahead", [0, -2])
    def test_lookahead_below_one_is_rejected(self, lookahead):
        # A lookahead of 0 would silently merge nothing: 圣诞+节 needs one.
        lex = Lexicon(["圣诞节", "到"])
        tree = parse_bracketed("(s (n 圣诞) (n 节) (v 到))")
        assert transfer_corpus([tree], lex, lookahead=1)[1].merged == 1
        for trees in ([tree], []):
            with pytest.raises(ValueError, match="lookahead must be >= 1"):
                transfer_corpus(trees, lex, lookahead=lookahead)

    @pytest.mark.parametrize("lookahead", [2.5, 2.0, True, "2", None])
    def test_lookahead_that_is_no_int_is_rejected(self, lookahead):
        # A bool is no int here: True would run as a lookahead of 1.
        tree = parse_bracketed("(s (n 圣诞) (n 节))")
        for trees in ([tree], []):
            with pytest.raises(ValueError, match="lookahead must be >= 1") as err:
                transfer_corpus(trees, Lexicon(["圣诞节"]), lookahead=lookahead)
            assert repr(lookahead) in str(err.value)

    @settings(deadline=None)
    @given(
        st.lists(
            st.lists(st.text(alphabet="ab", min_size=1, max_size=2), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        ),
        st.sets(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=6),
    )
    def test_characters_preserved(self, sentences, words):
        from spskit.treebank import ParseTree

        lex = Lexicon(words)
        trees = [
            ParseTree("s", tuple(ParseTree("n", (tok,)) for tok in sent))
            for sent in sentences
        ]
        out, _ = transfer_corpus(trees, lex)
        for before, after in zip(trees, out):
            assert "".join(before.leaves()) == "".join(after.leaves())

    @given(
        st.lists(st.text(alphabet="ab", min_size=1, max_size=2), min_size=1, max_size=6),
        st.sets(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=6),
    )
    def test_every_merge_commits_a_lexicon_word(self, sentence, words):
        from spskit.treebank import ParseTree

        lex = Lexicon(words)
        tree = ParseTree("s", tuple(ParseTree("n", (tok,)) for tok in sentence))
        out, report = transfer_corpus([tree], lex)
        for record in report.merges:
            assert record.surface in lex
        leaves = out[0].leaves()
        for record in report.merges:
            assert leaves[record.leaf_index] == record.surface


GOLDEN_SYLLABLES = ("ba", "ku", "to", "mi", "re", "sa", "no", "li")


def golden_corpus():
    """A fixed corpus on which every transfer outcome occurs.

    Two- and three-syllable words make the merges; the first four syllables
    are words too, so some merges are undone word-first; two-syllable source
    tokens are split; ``zz`` is no word and no prefix.
    """
    rng = random.Random(13)

    def syllables(n):
        return "".join(rng.choice(GOLDEN_SYLLABLES) for _ in range(n))

    words = set(GOLDEN_SYLLABLES[:4])
    words.update(syllables(2) for _ in range(24))
    words.update(syllables(3) for _ in range(12))
    coarse = [syllables(2) for _ in range(10)]
    split_table = SplitTable({w: (w[:2], w[2:]) for w in coarse})
    tokens = GOLDEN_SYLLABLES + tuple(split_table.entries) + ("zz",)

    def node(depth):
        if depth == 0 or rng.random() < 0.4:
            return ParseTree(rng.choice("nvm"), (rng.choice(tokens),))
        label = rng.choice(("np", "vp", "ip"))
        return ParseTree(label, tuple(node(depth - 1) for _ in range(rng.randint(1, 5))))

    trees = [
        ParseTree("s", tuple(node(2) for _ in range(rng.randint(1, 4))))
        for _ in range(300)
    ]
    return trees, Lexicon(sorted(words)), split_table


class TestTransferGolden:
    def test_transfer_output_is_pinned(self):
        # Speed-ups to segmentation transfer must leave every tree and every
        # report entry of this corpus unchanged.
        trees, lex, split_table = golden_corpus()
        out, report = transfer_corpus(trees, lex, split_table=split_table)
        table_splits = sum(
            leaf in split_table.entries for tree in trees for leaf in tree.leaves()
        )
        assert table_splits > 0
        assert report.split - table_splits > 0  # merges undone word-first
        assert report.merged > 0
        assert report.merges
        assert report.misaligned
        assert report.unmatched_logged
        summary = json.dumps([[serialize(t) for t in out], dataclasses.asdict(report)])
        assert hashlib.sha256(summary.encode("utf-8")).hexdigest() == (
            "b6d9b49106f9f7c95c2181905927a56ece8abff5e54b99f55e456b22bedce1fd"
        )

TOKENS = st.text(alphabet="ab", min_size=1, max_size=3)


def nested_trees(depth):
    """Standard-form trees up to ``depth`` levels above the preterminals."""
    preterminal = st.builds(
        lambda label, token: ParseTree(label, (token,)), st.sampled_from("nv"), TOKENS
    )
    if depth == 0:
        return preterminal
    branch = st.builds(
        lambda label, children: ParseTree(label, tuple(children)),
        st.sampled_from("sx"),
        st.lists(nested_trees(depth - 1), min_size=1, max_size=4),
    )
    return st.one_of(preterminal, branch)


def split_tables(data, trees):
    """A drawn split table over the trees' leaves, or None."""
    if not data.draw(st.booleans()):
        return None
    leaves = sorted({leaf for tree in trees for leaf in tree.leaves()})
    entries = {}
    for key in data.draw(st.lists(st.sampled_from(leaves), unique=True)):
        cuts = data.draw(st.sets(st.integers(1, max(len(key) - 1, 1))))
        bounds = [0, *sorted(cuts - {len(key)}), len(key)]
        entries[key] = [key[a:b] for a, b in zip(bounds, bounds[1:])]
    return SplitTable(entries)


def outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return f"ValueError: {e}"


def rebuilt_tree(node):
    """Reference for ``_to_tree``: every working node rebuilt, nothing shared."""
    if isinstance(node, segmentation._Unit):
        return ParseTree(node.label, (node.token,))
    return ParseTree(node.label, tuple(rebuilt_tree(c) for c in node.children))


def rebuilt_normalization(tree, inventory):
    """Reference for ``normalize_pos_nodes``: every node rebuilt, nothing shared."""

    def deletable(node):
        return node.label in inventory.pos_labels and not any(
            isinstance(c, str) for c in node.children
        )

    def walk(node):
        new_children = []
        for child in node.children:
            if isinstance(child, str):
                new_children.append(child)
                continue
            child = walk(child)
            if deletable(child):
                new_children.extend(child.children)
            else:
                new_children.append(child)
        return ParseTree(node.label, tuple(new_children))

    root = walk(tree)
    while deletable(root):
        if len(root.children) > 1:
            raise RootPromotionError("multi-child deletable root")
        root = root.children[0]
    return root


def every_transfer(trees, lex, split_table, lookahead):
    """Serialized trees and report of transfer_corpus."""
    out, report = transfer_corpus(
        trees, lex, split_table=split_table, lookahead=lookahead
    )
    return [[serialize(t) for t in out], dataclasses.asdict(report)]


class TestTransformsShareUnchangedNodes:
    """Sharing the input's unchanged nodes never changes an output byte."""

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(nested_trees(3), min_size=1, max_size=3),
        st.sets(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_transfer_matches_a_full_rebuild(self, trees, words, lookahead, data):
        lex = Lexicon(words)
        split_table = split_tables(data, trees)
        before = [serialize(t) for t in trees]
        shared = outcome(lambda: every_transfer(trees, lex, split_table, lookahead))
        with mock.patch.object(segmentation, "_to_tree", rebuilt_tree):
            rebuilt = outcome(lambda: every_transfer(trees, lex, split_table, lookahead))
        assert shared == rebuilt
        assert [serialize(t) for t in trees] == before

    @settings(max_examples=200)
    @given(nested_trees(4))
    def test_normalization_matches_a_full_rebuild(self, tree):
        # "x" branches are POS nodes over internal nodes: spliced out.
        inventory = LabelInventory(sps_labels={"s"}, pos_labels={"n", "v", "x"})

        def result(normalize):
            try:
                return serialize(normalize(tree, inventory))
            except RootPromotionError as e:
                return type(e).__name__

        before = serialize(tree)
        assert result(normalize_pos_nodes) == result(rebuilt_normalization)
        assert serialize(tree) == before

    def test_untouched_subtrees_are_the_inputs_own(self, toy_lexicon):
        tree = parse_bracketed("(s (x (n 武侠) (v 惹)) (x (n 圣诞) (n 节)) (v 到))")
        untouched, merged_in, verb = tree.children
        (out,), report = transfer_corpus([tree], toy_lexicon)
        assert report.merged == 1
        assert serialize(out) == "(s (x (n 武侠) (v 惹)) (x (n 圣诞节)) (v 到))"
        assert out.children[0] is untouched
        assert out.children[2] is verb
        # The merge's path to the root is new; the input is left as it was.
        assert out is not tree
        assert out.children[1] is not merged_in
        assert serialize(tree) == "(s (x (n 武侠) (v 惹)) (x (n 圣诞) (n 节)) (v 到))"

    def test_a_split_rebuilds_its_path_and_nothing_else(self, toy_lexicon):
        tree = parse_bracketed("(s (x (n 武侠小说)) (x (v 惹)))")
        split_in, untouched = tree.children
        table = SplitTable({"武侠小说": ["武侠", "小说"]})
        (out,), _ = transfer_corpus([tree], toy_lexicon, split_table=table)
        assert serialize(out) == "(s (x (n 武侠) (n 小说)) (x (v 惹)))"
        assert out.children[1] is untouched
        assert out is not tree and out.children[0] is not split_in

    def test_one_node_at_two_positions_changes_at_one(self, toy_lexicon):
        # A read tree holds one node per distinct preterminal.
        tree = parse_bracketed("(s (n 节) (n 圣诞) (n 节))")
        assert tree.children[0] is tree.children[2]
        out, _ = transfer_corpus([tree], toy_lexicon)
        assert serialize(out[0]) == "(s (n 节) (n 圣诞节))"
        assert out[0].children[0] is tree.children[0]
        assert serialize(tree) == "(s (n 节) (n 圣诞) (n 节))"

    def test_a_tree_no_stage_changes_is_returned_as_it_is(self, toy_lexicon):
        tree = parse_bracketed("(s (x (n 武侠) (v 惹)) (n 到))")
        assert transfer_corpus([tree], toy_lexicon)[0][0] is tree
        table = SplitTable({})
        assert transfer_corpus([tree], toy_lexicon, split_table=table)[0][0] is tree
