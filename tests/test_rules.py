import math
from collections import Counter

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

from spskit.errors import EmptyFeaturesError
from spskit.rules import (
    RuleDistribution,
    SyntacticRule,
    export_rules,
    extract_corpus_rules,
    extract_rules,
    format_rule,
    instance_distance,
    js_divergence,
    token_counts,
)
from spskit.synthetic import sample_corpus, source_grammar, target_grammar
from spskit.treebank import ParseTree, parse_bracketed


def dist(**counts):
    return RuleDistribution(counts)


def js_oracle_scipy(p, q):
    """Independent JS via scipy over the union support (scipy returns sqrt)."""
    support = sorted(set(p.support) | set(q.support))
    pv = [p.support.get(i, 0.0) for i in support]
    qv = [q.support.get(i, 0.0) for i in support]
    return jensenshannon(pv, qv, base=2) ** 2


def js_oracle_mpmath(p, q, dps=50):
    """Arbitrary-precision JS divergence in base 2."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for item in set(p.support) | set(q.support):
            pi = mpmath.mpf(p.counts.get(item, 0)) / p.total_count
            qi = mpmath.mpf(q.counts.get(item, 0)) / q.total_count
            m = (pi + qi) / 2
            if pi > 0:
                total += pi * mpmath.log(pi / m, 2) / 2
            if qi > 0:
                total += qi * mpmath.log(qi / m, 2) / 2
        return float(total)


counts_strategy = st.dictionaries(
    st.sampled_from("abcdefgh"), st.integers(min_value=1, max_value=50),
    min_size=1, max_size=8,
)


def merged_tree_counts(trees, exclude_labels):
    """Reference rule counts: one Counter per tree over ``subtrees()``,
    merged into the corpus Counter tree by tree."""
    exclude = frozenset(exclude_labels)
    counts = Counter()
    for tree in trees:
        tree_counts = Counter()
        for node in tree.subtrees():
            if node.is_preterminal:
                continue
            children = tuple(
                label
                for label in (
                    "<tok>" if isinstance(c, str) else c.label for c in node.children
                )
                if label not in exclude
            )
            if children:
                tree_counts[SyntacticRule(node.label, children)] += 1
        counts.update(tree_counts)
    return counts


class TestExtractRules:
    def test_fig_tree_yields_one_rule(self, flat_time_tree):
        assert extract_rules(flat_time_tree) == Counter(
            {SyntacticRule("adv", ("t", "t", "w")): 1}
        )

    def test_preterminal_only_tree_yields_nothing(self):
        assert extract_rules(parse_bracketed("(x a)")) == Counter()

    def test_two_tree_corpus_matches_hand_enumeration(self):
        t1 = parse_bracketed("(s (subj (n a)) (pred (v b)))")
        t2 = parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))")
        expected = Counter(
            {
                SyntacticRule("s", ("subj", "pred")): 2,
                SyntacticRule("subj", ("n",)): 2,
                SyntacticRule("pred", ("v",)): 1,
                SyntacticRule("pred", ("v", "obj")): 1,
                SyntacticRule("obj", ("n",)): 1,
            }
        )
        assert extract_corpus_rules([t1, t2]) == expected

    def test_rule_count_equals_nodes_with_internal_children(self):
        tree = parse_bracketed("(s (subj (n a) (n b)) (pred (v c)) (w ，))")
        internal = sum(
            1
            for node in tree.subtrees()
            if any(not isinstance(c, str) for c in node.children)
        )
        assert sum(extract_rules(tree).values()) == internal

    def test_punctuation_exclusion(self, flat_time_tree):
        counts = extract_rules(flat_time_tree, exclude_labels={"w"})
        assert counts == Counter({SyntacticRule("adv", ("t", "t")): 1})

    def test_bare_token_children_use_marker(self):
        tree = ParseTree("a", ("b", ParseTree("c", ("d",))))
        (rule,) = extract_rules(tree)
        assert rule == SyntacticRule("a", ("<tok>", "c"))

    @pytest.mark.parametrize("exclude_labels", [(), ("w", "n"), ("subj", "v")])
    def test_corpus_count_matches_a_per_tree_merge_in_order(self, exclude_labels):
        trees = (
            sample_corpus(source_grammar(), 40, 5, "rules-src")
            + sample_corpus(target_grammar(), 40, 5, "rules-tgt")
            + [
                parse_bracketed("(s (subj (n a) (w ，)) (pred (v b)))"),
                ParseTree("a", ("b", ParseTree("c", ("d",)))),
                parse_bracketed("(x a)"),
            ]
        )
        expected = merged_tree_counts(trees, exclude_labels)
        assert list(extract_corpus_rules(trees, exclude_labels).items()) == list(
            expected.items()
        )
        for tree in trees:
            assert list(extract_rules(tree, exclude_labels).items()) == list(
                merged_tree_counts([tree], exclude_labels).items()
            )

    def test_export_sorted_text(self):
        counts = extract_corpus_rules(
            [parse_bracketed("(s (subj (n a)) (pred (v b)))")]
        )
        text = export_rules(counts)
        assert text.splitlines() == sorted(text.splitlines())
        assert "s -> subj pred" in text


class TestRuleDistribution:
    def test_probabilities_sum_to_one(self):
        d = dist(a=3, b=1)
        assert d.support["a"] == 0.75
        assert abs(sum(d.support.values()) - 1.0) < 1e-9
        assert d.total_count == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RuleDistribution({})

    def test_extended_adds_counts(self):
        d = dist(a=1).extended(Counter({"a": 1, "b": 2}))
        assert d.counts == {"a": 2, "b": 2}


class TestJsDivergence:
    def test_identical_distributions_give_zero(self):
        assert js_divergence(dist(a=2, b=2), dist(a=5, b=5)) == 0.0

    def test_disjoint_supports_give_one(self):
        assert js_divergence(dist(a=1, b=1), dist(c=3, d=9)) == 1.0

    def test_hand_derived_case(self):
        # P = {a: .5, b: .5}, Q = {a: .75, b: .25}: the two KL terms evaluate
        # to 0.046555 and 0.051035, so JS is their mean, about 0.0488.
        p, q = dist(a=2, b=2), dist(a=3, b=1)
        value = js_divergence(p, q)
        assert abs(value - 0.0488) < 1e-4
        assert abs(value - js_oracle_mpmath(p, q)) < 1e-12

    @given(counts_strategy, counts_strategy)
    def test_symmetry(self, c1, c2):
        p, q = RuleDistribution(c1), RuleDistribution(c2)
        assert abs(js_divergence(p, q) - js_divergence(q, p)) < 1e-12

    @given(counts_strategy, counts_strategy)
    def test_range_and_identity(self, c1, c2):
        p, q = RuleDistribution(c1), RuleDistribution(c2)
        value = js_divergence(p, q)
        assert 0.0 <= value <= 1.0
        if value < 1e-9:
            assert p.support.keys() == q.support.keys()
            assert all(
                abs(p.support.get(i, 0.0) - q.support.get(i, 0.0)) < 1e-6
                for i in p.support
            )

    @given(counts_strategy, counts_strategy)
    def test_matches_scipy_oracle(self, c1, c2):
        p, q = RuleDistribution(c1), RuleDistribution(c2)
        assert js_divergence(p, q) == pytest.approx(js_oracle_scipy(p, q), abs=1e-10)


class TestInstanceDistance:
    def test_same_single_rule_gives_zero(self):
        # S holds one rule; a candidate contributing only that rule leaves
        # the extended distribution identical.
        single = RuleDistribution({SyntacticRule("x", ("y",)): 1})
        candidate = ParseTree("x", (ParseTree("y", ("tok",)),))
        assert instance_distance(extract_rules(candidate), single) <= 1e-12

    def test_proportional_candidate_beats_novel_one(self):
        r1 = SyntacticRule("s", ("subj", "pred"))
        r2 = SyntacticRule("subj", ("n",))
        r3 = SyntacticRule("pred", ("v",))
        reference = RuleDistribution({r1: 4, r2: 4, r3: 4})
        matching = parse_bracketed("(s (subj (n a)) (pred (v b)))")
        novel = parse_bracketed("(s (zz (n a)) (pred (v b)))")
        d_match = instance_distance(extract_rules(matching), reference)
        d_novel = instance_distance(extract_rules(novel), reference)
        # brute-force check of both values against the high-precision oracle
        for candidate, value in ((matching, d_match), (novel, d_novel)):
            extended = reference.extended(extract_rules(candidate))
            assert value == pytest.approx(js_oracle_mpmath(reference, extended), abs=1e-12)
        assert d_match < d_novel

    def test_token_counts_compare_like_rule_counts(self):
        corpus = [parse_bracketed("(s (x a) (x b))"), parse_bracketed("(s (x a))")]
        reference = RuleDistribution(token_counts(corpus))
        assert reference.counts == {"a": 2, "b": 1}
        near = Counter(("a", "b"))
        far = Counter(("zz", "zz"))
        assert instance_distance(near, reference) < instance_distance(far, reference)

    def test_empty_features_is_an_error(self):
        reference = dist(a=1)
        with pytest.raises(EmptyFeaturesError):
            instance_distance(extract_rules(parse_bracketed("(x a)")), reference)

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from("abcdef"),
                st.integers(min_value=1, max_value=3),
                min_size=1,
                max_size=5,
            ),
            min_size=2,
            max_size=6,
        ),
        st.sampled_from([8, 16, 32]),
    )
    def test_dilution_preserves_candidate_ranking(self, candidate_counts, base):
        # Duplicating the reference counts rescales every candidate's
        # distance; rankings are stable once finite-size corrections are
        # small relative to the gaps, hence the large base scale and the
        # near-tie guard.  At small scales the correction terms genuinely
        # reorder near candidates; that is arithmetic, not noise.
        from hypothesis import assume
        import itertools

        def scaled(d, factor):
            return RuleDistribution({i: c * factor for i, c in d.counts.items()})

        reference = scaled(RuleDistribution({"a": 6, "b": 3, "c": 1}), base)

        def distances(ref):
            return [js_divergence(ref, ref.extended(c)) for c in candidate_counts]

        base_distances = distances(reference)
        assume(
            all(
                abs(a - b) > 0.05 * max(a, b)
                for a, b in itertools.combinations(base_distances, 2)
            )
        )

        def ranking(values):
            return sorted(range(len(values)), key=lambda i: (values[i], i))

        assert ranking(base_distances) == ranking(distances(scaled(reference, 2)))

    def test_format_rule(self):
        assert format_rule(SyntacticRule("s", ("subj", "pred"))) == "s -> subj pred"
