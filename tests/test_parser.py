import json
import math
import re

import pytest

from spskit import parser as parser_module
from spskit.errors import ModelFormatError, SpsError
from spskit.evaluation import score_corpus
from spskit.generator import Pcfg
from spskit.parser import (
    BIN_CLOSE,
    BIN_OPEN,
    RESERVED,
    UNK,
    ParserModel,
    PcfgBackend,
    PseudoTree,
    TrainConfig,
    _smooth,
    parse,
    train,
)
from spskit.rules import SyntacticRule
from spskit.synthetic import demo_inventory, sample_corpus, source_grammar, target_grammar
from spskit.treebank import ParseTree, Sentence, parse_bracketed, serialize, validate_tree

ALPHA = 0.01


def skewed_treebank():
    """Two competing expansions of the same surface string, 3:2."""
    t1 = parse_bracketed("(s (x a) (y b))")
    t2 = parse_bracketed("(s (z a) (y b))")
    return [t1, t1, t1, t2, t2]


class TestTrain:
    def test_hand_computed_probabilities(self):
        # counts: root s: 5; s->(x,y): 3, s->(z,y): 2; each preterminal sees
        # its token 3 or 2 times plus an UNK slot with count 0.
        model = train(skewed_treebank())
        assert model.roots == {"s": 1.0}
        denom = 1 + 2 * ALPHA
        assert model.rules[SyntacticRule("s", ("x", "y"))] == pytest.approx(
            (0.6 + ALPHA) / denom
        )
        assert model.rules[SyntacticRule("s", ("z", "y"))] == pytest.approx(
            (0.4 + ALPHA) / denom
        )
        assert model.lexical[("x", "a")] == pytest.approx((1 + ALPHA) / denom)
        assert model.lexical[("x", UNK)] == pytest.approx(ALPHA / denom)
        model.validate()

    def test_families_sum_to_one(self):
        model = train(sample_corpus(source_grammar(), 60, seed=3, name="sum"))
        families = {}
        for rule, prob in model.rules.items():
            families.setdefault(rule.parent, 0.0)
            families[rule.parent] += prob
        for label, total in families.items():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_duplicated_treebank_gives_identical_model(self):
        # Exact count-proportional invariance needs no token near the UNK
        # threshold; skewed_treebank has none (all counts >= 2).
        base = skewed_treebank()
        m1 = train(base)
        m2 = train(base + base)
        assert m1.rules == m2.rules
        assert m1.lexical == m2.lexical
        assert m1.roots == m2.roots

    def test_self_consistency_on_synthetic_treebank(self):
        trees = sample_corpus(source_grammar(), 50, seed=7, name="selfcheck")
        model = train(trees)
        preds = [parse(model, t.sentence()).tree for t in trees]
        assert score_corpus(preds, trees).f1 >= 95.0

    def test_empty_treebank_is_an_error(self):
        with pytest.raises(ValueError):
            train([])

    def test_reserved_label_characters_rejected(self):
        with pytest.raises(ValueError):
            train([parse_bracketed("(s (x|y a))")])

    def test_mixed_nodes_rejected(self):
        with pytest.raises(ValueError):
            train([ParseTree("s", ("a", ParseTree("x", ("b",))))])

    def test_unk_folding_is_per_tag(self):
        trees = [
            parse_bracketed("(s (x hello) (y b))"),
            parse_bracketed("(s (z hello) (y b))"),
            parse_bracketed("(s (z hello) (y b))"),
        ]
        model = train(trees)
        # hello occurs once under x (folds to UNK) and twice under z (kept)
        assert ("x", "hello") not in model.lexical
        assert ("z", "hello") in model.lexical
        options = dict(ref_lexical_options(model, "hello"))
        assert "z" in options and "x" in options and "y" in options


class TestParse:
    def test_unambiguous_grammar_returns_unique_derivation(self):
        tree = parse_bracketed("(s (x a) (y b))")
        model = train([tree, tree])
        result = parse(model, Sentence(("a", "b")))
        assert result.tree == tree
        assert result.confidence > 0.9

    def test_skewed_ambiguity_resolved_by_probability_with_exact_confidence(self):
        model = train(skewed_treebank())
        result = parse(model, Sentence(("a", "b")))
        assert serialize(result.tree) == "(s (x a) (y b))"
        denom = 1 + 2 * ALPHA
        logp = (
            math.log(1.0)                           # root
            + math.log((0.6 + ALPHA) / denom)       # s -> x y
            + math.log((1 + ALPHA) / denom)         # x -> a
            + math.log((1 + ALPHA) / denom)         # y -> b
        )
        assert result.confidence == pytest.approx(math.exp(logp / 2), abs=1e-12)

    def test_exact_tie_broken_lexicographically(self):
        t1 = parse_bracketed("(s (x a) (y b))")
        t2 = parse_bracketed("(s (z a) (y b))")
        model = train([t1, t1, t2, t2])
        result = parse(model, Sentence(("a", "b")))
        assert serialize(result.tree) == "(s (x a) (y b))"  # x < z

    def test_out_of_coverage_length_falls_back(self):
        tree = parse_bracketed("(s (x a) (y b))")
        model = train([tree, tree])
        result = parse(model, Sentence(("a", "b", "a")))
        assert result.confidence == 0.0
        assert result.tree.label == model.fallback_root
        assert result.tree.leaves() == ["a", "b", "a"]

    def test_unknown_tokens_are_parseable(self):
        model = train(sample_corpus(source_grammar(), 80, seed=9, name="unkcheck"))
        result = parse(model, Sentence(("zzz", "qqq")))
        assert result.tree.leaves() == ["zzz", "qqq"]

    def test_single_token_sentences_use_unary_chains(self):
        trees = [parse_bracketed("(s (subj (n a)))")] * 2
        model = train(trees)
        result = parse(model, Sentence(("a",)))
        assert serialize(result.tree) == "(s (subj (n a)))"

    def test_debinarization_removes_intermediates_and_validates(self):
        inventory = demo_inventory()
        trees = sample_corpus(source_grammar(), 60, seed=5, name="debin")
        model = train(trees)

        for gold in sample_corpus(source_grammar(), 20, seed=6, name="debin-dev"):
            result = parse(model, gold.sentence())
            assert all("|<" not in node.label for node in result.tree.subtrees())
            validate_tree(result.tree, inventory)

    def test_argmax_invariant_under_root_family_scaling(self):
        model = train(skewed_treebank())
        scaled = ParserModel(
            roots={k: v * 0.25 for k, v in model.roots.items()},
            rules=dict(model.rules),
            lexical=dict(model.lexical),
            unk_threshold=model.unk_threshold,
            alpha=model.alpha,
            fallback_root=model.fallback_root,
            fallback_pos=model.fallback_pos,
        )
        sentence = Sentence(("a", "b"))
        assert parse(model, sentence).tree == parse(scaled, sentence).tree

    def test_argmax_invariant_under_lhs_family_scaling(self):
        # Every parse of "a b" uses exactly one s-rule, so scaling the whole
        # s family cannot change the argmax.
        model = train(skewed_treebank())
        scaled_rules = {
            rule: (prob * 0.5 if rule.parent == "s" else prob)
            for rule, prob in model.rules.items()
        }
        scaled = ParserModel(
            roots=dict(model.roots),
            rules=scaled_rules,
            lexical=dict(model.lexical),
            unk_threshold=model.unk_threshold,
            alpha=model.alpha,
            fallback_root=model.fallback_root,
            fallback_pos=model.fallback_pos,
        )
        sentence = Sentence(("a", "b"))
        assert parse(model, sentence).tree == parse(scaled, sentence).tree

    def test_determinism_across_runs(self):
        trees = sample_corpus(source_grammar(), 40, seed=8, name="det")
        m1, m2 = train(trees), train(trees)
        assert m1.rules == m2.rules and m1.lexical == m2.lexical
        dev = sample_corpus(source_grammar(), 10, seed=9, name="det-dev")
        for gold in dev:
            assert parse(m1, gold.sentence()) == parse(m2, gold.sentence())


def ref_lexical_options(model, token):
    """(preterminal, logprob) choices for one token, read off ``model.lexical``:
    the token's own class under each tag that kept it, then UNK under the
    rest, each part sorted."""
    own = sorted(
        (label, math.log(p)) for (label, cls), p in model.lexical.items() if cls == token
    )
    kept = {label for label, _ in own}
    unk = sorted(
        (label, math.log(p))
        for (label, cls), p in model.lexical.items()
        if cls == UNK and label not in kept
    )
    return own + unk


def enumerate_derivations(model, tokens, max_unary_chain=3):
    """All derivations of the token span, as (logprob, serialized tree) pairs.

    Exhaustive oracle for the chart: binary rules by every split point and
    unary rules stacked up to a fixed chain bound (the Viterbi optimum never
    uses a unary cycle, probabilities being < 1).
    """
    from functools import lru_cache

    unary_rules = [
        (r.parent, r.children[0], math.log(p))
        for r, p in model.rules.items()
        if len(r.children) == 1
    ]
    binary_rules = [
        (r.parent, r.children, math.log(p))
        for r, p in model.rules.items()
        if len(r.children) == 2
    ]

    def close(options):
        # options: dict label -> list of (logp, tree-text)
        for _ in range(max_unary_chain):
            extended = {label: list(entries) for label, entries in options.items()}
            for parent, child, logp in unary_rules:
                for score, text in options.get(child, ()):
                    extended.setdefault(parent, []).append(
                        (score + logp, f"({parent} {text})")
                    )
            options = extended
        return options

    @lru_cache(maxsize=None)
    def span(i, j):
        if j - i == 1:
            base = {}
            for label, logp in ref_lexical_options(model, tokens[i]):
                base.setdefault(label, []).append((logp, f"({label} {tokens[i]})"))
            return close(base)
        combined = {}
        for split in range(i + 1, j):
            left, right = span(i, split), span(split, j)
            for parent, (lc, rc), logp in binary_rules:
                for lscore, ltext in left.get(lc, ()):
                    for rscore, rtext in right.get(rc, ()):
                        combined.setdefault(parent, []).append(
                            (lscore + rscore + logp, f"({parent} {ltext} {rtext})")
                        )
        return close(combined)

    derivations = []
    for label, entries in span(0, len(tokens)).items():
        root_prob = model.roots.get(label)
        if root_prob is None:
            continue
        for score, text in entries:
            derivations.append((score + math.log(root_prob), text))
    return derivations


# Reference implementations: the straightforward chart and trainer the
# optimized ones in spskit.parser must match bit for bit.  The chart builds
# the binarized Viterbi tree, then debinarizes it; the trainer binarizes each
# tree, then counts its productions.


def ref_debinarize(node):
    if node.is_preterminal:
        return node
    children = []
    for child in node.children:
        child = ref_debinarize(child)
        if BIN_OPEN in child.label:
            children.extend(child.children)
        else:
            children.append(child)
    return ParseTree(node.label, tuple(children))


def ref_binarize(node):
    if node.is_preterminal:
        return node
    children = [ref_binarize(c) for c in node.children]

    def tail(rest):
        label = node.label + BIN_OPEN + ",".join(c.label for c in rest) + BIN_CLOSE
        if len(rest) == 2:
            return ParseTree(label, tuple(rest))
        return ParseTree(label, (rest[0], tail(rest[1:])))

    if len(children) <= 2:
        return ParseTree(node.label, tuple(children))
    return ParseTree(node.label, (children[0], tail(children[1:])))


def ref_check_standard_form(tree):
    for node in tree.subtrees():
        has_token = any(isinstance(c, str) for c in node.children)
        if has_token and (len(node.children) != 1):
            raise ValueError(
                f"node {node.label!r} mixes tokens and subtrees or holds several "
                "tokens; the parser requires one token per preterminal"
            )
        if any(marker in node.label for marker in RESERVED):
            raise ValueError(
                f"label {node.label!r} uses a reserved character ({RESERVED})"
            )


def ref_train(treebank, config=TrainConfig()):
    """(roots, rules, lexical, fallback_root, fallback_pos) of a treebank."""
    root_counts, rule_counts, tag_token_counts = {}, {}, {}
    for tree in treebank:
        ref_check_standard_form(tree)
        prepared = ref_binarize(tree)
        root_counts[prepared.label] = root_counts.get(prepared.label, 0) + 1
        for node in prepared.subtrees():
            if node.is_preterminal:
                counts = tag_token_counts.setdefault(node.label, {})
                token = node.children[0]
                counts[token] = counts.get(token, 0) + 1
            else:
                rule = SyntacticRule(node.label, tuple(c.label for c in node.children))
                rule_counts[rule] = rule_counts.get(rule, 0) + 1
    rules, by_parent = {}, {}
    for rule, count in rule_counts.items():
        by_parent.setdefault(rule.parent, {})[rule] = count
    for counts in by_parent.values():
        rules.update(_smooth(counts, config.alpha))
    lexical = {}
    fallback_pos, best_pos_count = "", -1
    for label, counts in tag_token_counts.items():
        total = sum(counts.values())
        if (total, label) > (best_pos_count, fallback_pos):
            best_pos_count, fallback_pos = total, label
        folded = {UNK: 0}
        for token, count in counts.items():
            if count > config.unk_threshold:
                folded[token] = count
            else:
                folded[UNK] += count
        for cls, prob in _smooth(folded, config.alpha).items():
            lexical[(label, cls)] = prob
    roots = _smooth(root_counts, config.alpha)
    fallback_root = max(root_counts, key=lambda lab: (root_counts[lab], lab))
    return roots, rules, lexical, fallback_root, fallback_pos


def ref_indexes(model):
    """(children pair -> options, unary child -> options), options sorted."""
    by_children, by_unary_child = {}, {}
    for rule, prob in model.rules.items():
        option = (rule.parent, math.log(prob))
        if len(rule.children) == 1:
            by_unary_child.setdefault(rule.children[0], []).append(option)
        else:
            by_children.setdefault(rule.children, []).append(option)
    for options in list(by_children.values()) + list(by_unary_child.values()):
        options.sort()
    return by_children, by_unary_child


def ref_close_unaries(by_unary_child, cell):
    while True:
        improved = False
        for child_label, entry in list(cell.items()):
            score, _, _ = entry
            for parent, logp in by_unary_child.get(child_label, ()):
                candidate = score + logp
                incumbent = cell.get(parent)
                if incumbent is None or candidate > incumbent[0]:
                    cell[parent] = (candidate, (-1, child_label, ""), ("un", child_label))
                    improved = True
        if not improved:
            return


def ref_parse(model, tokens):
    """(tree, confidence) of the Viterbi parse, or None for the fallback."""
    by_children, by_unary_child = ref_indexes(model)
    n = len(tokens)
    chart = {}
    for i, token in enumerate(tokens):
        cell = {}
        for label, logp in ref_lexical_options(model, token):
            cell[label] = (logp, (0, "", ""), ("lex",))
        ref_close_unaries(by_unary_child, cell)
        chart[(i, i + 1)] = cell
    for width in range(2, n + 1):
        for start in range(0, n - width + 1):
            end = start + width
            cell = {}
            for split in range(start + 1, end):
                left_cell, right_cell = chart[(start, split)], chart[(split, end)]
                if not left_cell or not right_cell:
                    continue
                for left_label, (lscore, _, _) in left_cell.items():
                    for right_label, (rscore, _, _) in right_cell.items():
                        options = by_children.get((left_label, right_label))
                        if not options:
                            continue
                        base = lscore + rscore
                        tiebreak = (split, left_label, right_label)
                        for parent, logp in options:
                            score = base + logp
                            incumbent = cell.get(parent)
                            if (
                                incumbent is None
                                or score > incumbent[0]
                                or (score == incumbent[0] and tiebreak < incumbent[1])
                            ):
                                cell[parent] = (
                                    score, tiebreak, ("bin", split, left_label, right_label)
                                )
            ref_close_unaries(by_unary_child, cell)
            chart[(start, end)] = cell
    best = None
    for label, (score, _, _) in chart[(0, n)].items():
        root_prob = model.roots.get(label)
        if root_prob is None:
            continue
        total = score + math.log(root_prob)
        if best is None or total > best[0] or (total == best[0] and label < best[1]):
            best = (total, label)
    if best is None:
        return None

    def build(label, start, end):
        _, _, back = chart[(start, end)][label]
        if back[0] == "lex":
            return ParseTree(label, (tokens[start],))
        if back[0] == "un":
            return ParseTree(label, (build(back[1], start, end),))
        _, split, left_label, right_label = back
        return ParseTree(
            label, (build(left_label, start, split), build(right_label, split, end))
        )

    return ref_debinarize(build(best[1], 0, n)), math.exp(best[0] / n)


class TestAgainstEnumerationOracle:
    def test_viterbi_matches_exhaustive_argmax(self):
        trees = sample_corpus(source_grammar(), 30, seed=12, name="enum")
        model = train(trees)
        checked = 0
        for gold in sample_corpus(source_grammar(), 30, seed=13, name="enum-dev"):
            tokens = gold.leaves()
            if len(tokens) > 4:
                continue
            derivations = enumerate_derivations(model, tuple(tokens))
            if not derivations:
                continue
            checked += 1
            best_logp = max(score for score, _ in derivations)
            result = parse(model, Sentence(tuple(tokens)))
            # the de-binarized output must correspond to a derivation whose
            # probability equals the enumerated optimum
            assert result.confidence == pytest.approx(
                math.exp(best_logp / len(tokens)), abs=1e-12
            )
            best_texts = {
                text for score, text in derivations if score == best_logp
            }
            assert serialize(result.tree) in {
                serialize(ref_debinarize(parse_bracketed(t))) for t in best_texts
            }
        assert checked >= 10


class TestModelPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = train(skewed_treebank())
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ParserModel.load(path)
        assert loaded.rules == model.rules
        assert loaded.lexical == model.lexical
        assert loaded.roots == model.roots
        sentence = Sentence(("a", "b"))
        assert parse(loaded, sentence) == parse(model, sentence)

    def test_save_writes_indented_json_with_sorted_keys(self, tmp_path):
        path = tmp_path / "model.json"
        train(skewed_treebank()).save(path)
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n"

    def test_a_model_in_the_earlier_layout_loads(self, tmp_path):
        # Models were written with indent=1 and the keys in this order.
        model = train(skewed_treebank())
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        keys = ("version", "alpha", "unk_threshold", "fallback_root", "fallback_pos",
                "roots", "rules", "lexical")
        old = json.dumps({key: data[key] for key in keys}, ensure_ascii=False, indent=1)
        path.write_text(old + "\n", encoding="utf-8")
        assert ParserModel.load(path) == model

    @pytest.mark.parametrize(
        "content, reason",
        [(None, "input file not found"), (b"{\xff}", "input file not UTF-8")],
        ids=["missing", "not-utf-8"],
    )
    def test_a_file_that_cannot_be_read_is_not_called_malformed(
        self, tmp_path, content, reason
    ):
        path = tmp_path / "model.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(SpsError) as err:
            ParserModel.load(path)
        assert not isinstance(err.value, ModelFormatError)
        assert str(err.value).startswith(f"{reason}: {path}")

    @staticmethod
    def saved_with(tmp_path, keys, value):
        """The path of a saved model whose JSON has ``value`` at ``keys``."""
        path = tmp_path / "model.json"
        train(skewed_treebank()).save(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("rules", 0, -1), 0.9999),
            (("rules", 0, -1), float("nan")),
            (("lexical", 0, -1), float("inf")),
            (("roots", "s"), True),
            (("rules", 0, -1), "0.5"),
        ],
        ids=["family-sum", "nan", "inf", "bool", "string"],
    )
    def test_load_validates_probabilities(self, tmp_path, keys, value):
        path = self.saved_with(tmp_path, keys, value)
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            ParserModel.load(path)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("rules", 0, 0), 5),
            (("rules", 0, 1), ["x", ""]),
            (("lexical", 0, 1), None),
            (("roots",), {"": 1.0}),
            (("fallback_root",), 5),
            (("fallback_pos",), ""),
            (("rules", 0, 1), ["x", "y", "y"]),
            (("rules", 0, 1), "xy"),
        ],
        ids=["int-parent", "empty-child", "null-token", "empty-root", "int-fallback-root",
             "empty-fallback-pos", "three-children", "string-children"],
    )
    def test_load_rejects_a_label_that_is_no_string(self, tmp_path, keys, value):
        path = self.saved_with(tmp_path, keys, value)
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            ParserModel.load(path)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("rules", 0, 0), "su bj"),
            (("roots",), {"su bj": 1.0}),
            (("lexical", 0, 1), "a(b"),
            (("fallback_pos",), "x)"),
        ],
        ids=["space-parent", "space-root", "paren-token", "paren-fallback-pos"],
    )
    def test_load_rejects_a_label_a_tree_could_not_re_read(self, tmp_path, keys, value):
        # Caught at load, naming the file, not at the first parse.
        path = self.saved_with(tmp_path, keys, value)
        with pytest.raises(ModelFormatError, match=re.escape(str(path))) as err:
            ParserModel.load(path)
        assert "whitespace and ASCII parentheses" in str(err.value)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("alpha",), "x"),
            (("alpha",), -0.5),
            (("unk_threshold",), None),
            (("unk_threshold",), 1.5),
        ],
        ids=["string-alpha", "negative-alpha", "null-unk-threshold", "float-unk-threshold"],
    )
    def test_load_checks_the_training_config(self, tmp_path, keys, value):
        path = self.saved_with(tmp_path, keys, value)
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            ParserModel.load(path)

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            ParserModel.load(path)

    @pytest.mark.parametrize("text", ["[]", '"model"', "1", "{"])
    def test_load_rejects_a_file_that_is_no_object(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            ParserModel.load(path)


class TestPseudoTree:
    def test_leaf_mismatch_rejected(self):
        tree = parse_bracketed("(s (x a))")
        with pytest.raises(ValueError):
            PseudoTree(Sentence(("b",)), tree, 0.5)

    def test_confidence_bounds(self):
        tree = parse_bracketed("(s (x a))")
        with pytest.raises(ValueError):
            PseudoTree(Sentence(("a",)), tree, 1.5)
        with pytest.raises(ValueError):
            PseudoTree(Sentence(("a",)), tree, float("nan"))


class TestBackend:
    def test_parse_pool_is_parse_per_sentence(self):
        trees = sample_corpus(source_grammar(), 40, seed=4, name="pool")
        model = train(trees)
        sentences = [t.sentence() for t in sample_corpus(target_grammar(), 12, seed=5, name="pool-dev")]
        expected = [parse(model, s) for s in sentences]
        results = PcfgBackend().parse_pool(model, sentences)
        assert [r.tree for r in results] == [r.tree for r in expected]
        assert [r.confidence.hex() for r in results] == [r.confidence.hex() for r in expected]
        with pytest.raises(ValueError, match="jobs"):
            PcfgBackend().parse_pool(model, sentences, jobs=2)

    def test_backend_protocol(self):
        backend = PcfgBackend(TrainConfig())
        trees = sample_corpus(source_grammar(), 30, seed=2, name="proto")
        model = backend.train(trees)
        result = backend.parse(model, trees[0].sentence())
        assert isinstance(result, PseudoTree)
        assert backend.name == "pcfg"


# Recursive, with words shared between tags: long, ambiguous sentences.
RECURSIVE_GRAMMAR = Pcfg(
    "s",
    {
        "s": [(("np", "vp"), 0.45), (("np", "vp", "pp"), 0.25), (("s", "c", "s"), 0.3)],
        "np": [(("n",), 0.45), (("a", "n"), 0.2), (("np", "pp"), 0.2), (("n", "n"), 0.15)],
        "vp": [(("v",), 0.35), (("v", "np"), 0.45), (("vp", "pp"), 0.2)],
        "pp": [(("p", "np"), 0.8), (("p", "n", "np"), 0.2)],
    },
    {
        "n": [("na", 0.3), ("nb", 0.3), ("nc", 0.2), ("vn", 0.2)],
        "v": [("va", 0.5), ("vb", 0.3), ("vn", 0.2)],
        "a": [("aa", 0.6), ("ab", 0.4)],
        "p": [("pa", 0.7), ("pb", 0.3)],
        "c": [("ca", 1.0)],
    },
)


def assert_parses_match_reference(model, sentences):
    """Returns how many sentences the grammar covers."""
    covered = 0
    # Two passes: the second reads every lexical cell from the model's cache.
    for _ in range(2):
        for tokens in sentences:
            result = parse(model, Sentence(tuple(tokens)))
            expected = ref_parse(model, tuple(tokens))
            if expected is None:
                assert result.confidence == 0.0
                assert result.tree.label == model.fallback_root
                continue
            tree, confidence = expected
            assert result.tree == tree, " ".join(tokens)
            assert result.confidence.hex() == confidence.hex(), " ".join(tokens)
            covered += 1
    return covered // 2


def assert_model_matches_reference(model, expected):
    roots, rules, lexical, fallback_root, fallback_pos = expected
    assert list(model.roots.items()) == list(roots.items())
    assert list(model.rules.items()) == list(rules.items())
    assert list(model.lexical.items()) == list(lexical.items())
    assert (model.fallback_root, model.fallback_pos) == (fallback_root, fallback_pos)


class TestReferenceParity:
    @pytest.mark.parametrize("config", [TrainConfig(), TrainConfig(alpha=0.3, unk_threshold=3)])
    def test_train_matches_reference(self, config):
        corpora = [
            skewed_treebank(),
            sample_corpus(source_grammar(), 200, seed=21, name="parity-src"),
            sample_corpus(target_grammar(), 200, seed=21, name="parity-tgt"),
            sample_corpus(RECURSIVE_GRAMMAR, 200, seed=21, name="parity-rec"),
        ]
        for trees in corpora:
            assert_model_matches_reference(train(trees, config), ref_train(trees, config))

    @pytest.mark.parametrize(
        "bad",
        [
            # the first offending node in preorder decides the message
            ParseTree("s", (ParseTree("x|y", ("a",)), ParseTree("z", ("a", "b")))),
            ParseTree(
                "s",
                (ParseTree("x", ("a",)), ParseTree("z", ("a", "b")), ParseTree("q|r", ("c",))),
            ),
            ParseTree("s<", ("a", ParseTree("x", ("b",)))),
            parse_bracketed("(s (x a) (y (z b) (w<v c)))"),
        ],
    )
    def test_train_rejects_like_reference(self, bad):
        good = parse_bracketed("(s (x a) (y b))")
        with pytest.raises(ValueError) as expected:
            ref_train([good, bad])
        with pytest.raises(ValueError) as got:
            train([good, bad])
        assert str(got.value) == str(expected.value)

    def test_short_sentences_with_unknown_tokens(self):
        model = train(sample_corpus(source_grammar(), 150, seed=22, name="parity-short"))
        sentences = [
            t.leaves() for t in sample_corpus(source_grammar(), 40, seed=23, name="p-dev")
        ]
        # the target domain brings tokens the source model never saw
        sentences += [
            t.leaves() for t in sample_corpus(target_grammar(), 40, seed=23, name="p-tgt")
        ]
        sentences += [["zzz"], ["zzz", "qqq"], ["na", "zzz", "va", "qqq", "nb"]]
        assert assert_parses_match_reference(model, sentences) == len(sentences)

    def test_long_sentences(self):
        model = train(sample_corpus(RECURSIVE_GRAMMAR, 300, seed=24, name="parity-long"))
        held_out = sample_corpus(RECURSIVE_GRAMMAR, 400, seed=25, name="parity-long-dev")
        sentences = [t.leaves() for t in held_out if 10 <= len(t.leaves()) <= 18][:12]
        assert len(sentences) == 12
        sentences += [s[:5] + ["zzz"] + s[6:] for s in sentences[:4]]
        assert assert_parses_match_reference(model, sentences) == len(sentences)

    def test_probability_one_unary_pair(self):
        # x -> y and y -> x both have probability 1, so closing a cell meets
        # equal scores that must not replace each other.
        model = ParserModel(
            roots={"s": 0.5, "x": 0.5},
            rules={
                SyntacticRule("x", ("y",)): 1.0,
                SyntacticRule("y", ("x",)): 1.0,
                SyntacticRule("s", ("x", "y")): 1.0,
            },
            lexical={("x", "a"): 0.5, ("x", UNK): 0.5, ("y", "b"): 0.5, ("y", UNK): 0.5},
            unk_threshold=1,
            alpha=ALPHA,
            fallback_root="s",
            fallback_pos="x",
        )
        sentences = [["a"], ["b"], ["a", "b"], ["b", "a"], ["a", "zzz", "b"], ["zzz"]]
        assert assert_parses_match_reference(model, sentences) == 5  # not "a zzz b"

    def test_equal_score_unary_ties(self):
        # p -> a and p -> b score the same wherever a and b do, so the unary
        # closure keeps whichever child comes first in the cell.
        model = ParserModel(
            roots={"p": 1.0},
            rules={
                SyntacticRule("p", ("a",)): 0.4,
                SyntacticRule("p", ("b",)): 0.4,
                SyntacticRule("p", ("p", "p")): 0.2,
                SyntacticRule("a", ("t", "t")): 0.5,
                SyntacticRule("b", ("t", "t")): 0.5,
            },
            lexical={("a", UNK): 1.0, ("b", UNK): 1.0, ("t", UNK): 1.0},
            unk_threshold=1,
            alpha=ALPHA,
            fallback_root="p",
            fallback_pos="t",
        )
        sentences = [["w"] * n for n in range(1, 6)]
        assert assert_parses_match_reference(model, sentences) == len(sentences)

    def test_equal_score_splits(self):
        # Every bracketing of "a a .. a" has the same rules, so only float
        # rounding and the split tie-break separate them.
        model = ParserModel(
            roots={"s": 1.0},
            rules={SyntacticRule("s", ("s", "s")): 0.3, SyntacticRule("s", ("t",)): 0.7},
            lexical={("t", "a"): 0.9, ("t", UNK): 0.1},
            unk_threshold=1,
            alpha=ALPHA,
            fallback_root="s",
            fallback_pos="t",
        )
        sentences = [["a"] * n for n in range(1, 12)] + [["a", "zzz"] * 4]
        assert assert_parses_match_reference(model, sentences) == len(sentences)


class TestLexicalCellCache:
    def test_cache_is_bounded_by_the_lexicon(self):
        model = train(sample_corpus(source_grammar(), 80, seed=26, name="cache"))
        bound = len(model._exact) + 1
        sentences = [t.sentence() for t in sample_corpus(target_grammar(), 60, seed=27, name="c")]
        sentences += [Sentence((f"unseen{i}", "na")) for i in range(30)]
        for sentence in sentences:
            parse(model, sentence)
            assert len(model._lex_cells) <= bound
        classes = {t if t in model._exact else UNK for s in sentences for t in s.tokens}
        assert len(model._lex_cells) == len(classes)


class TestIncrementalTraining:
    """``PcfgBackend.train`` folds only a grown list's new trees into the
    counts of its last call, and gets the model of a fresh ``train``."""

    CONFIG = TrainConfig(alpha=0.3, unk_threshold=2)

    @pytest.fixture
    def counted(self, monkeypatch):
        """How many trees each count walk took, in call order."""
        sizes = []
        add = parser_module._TrainCounts.add

        def counting(self, trees):
            trees = list(trees)
            sizes.append(len(trees))
            return add(self, trees)

        monkeypatch.setattr(parser_module._TrainCounts, "add", counting)
        return sizes

    @staticmethod
    def trees():
        return sample_corpus(source_grammar(), 60, seed=41, name="grow-src") + sample_corpus(
            target_grammar(), 60, seed=41, name="grow-tgt"
        )

    def assert_fresh(self, model, trees, tmp_path):
        fresh = train(trees, self.CONFIG)
        model.save(tmp_path / "folded.json")
        fresh.save(tmp_path / "fresh.json")
        assert (tmp_path / "folded.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
        for table in ("roots", "rules", "lexical"):
            assert list(getattr(model, table).items()) == list(getattr(fresh, table).items())

    def test_a_growing_list_folds_in_only_its_new_trees(self, tmp_path, counted):
        trees = self.trees()
        backend = PcfgBackend(self.CONFIG)
        ends = (30, 31, 75, 75, 120)
        models = [backend.train(trees[:end]) for end in ends]
        assert counted == [30, 1, 44, 0, 45]
        for model, end in zip(models, ends):
            self.assert_fresh(model, trees[:end], tmp_path)

    @pytest.mark.parametrize("change", ["shorter", "same-length-other-trees", "other-run"])
    def test_other_lists_are_counted_from_scratch(self, tmp_path, counted, change):
        trees = self.trees()
        backend = PcfgBackend(self.CONFIG)
        backend.train(trees[:60])
        if change == "shorter":
            second = trees[:50]
        elif change == "same-length-other-trees":
            second = trees[60:]
        else:
            second = self.trees()[:90]      # equal trees, other objects
            assert second[:60] == trees[:60]
        model = backend.train(second)
        assert counted == [60, len(second)]
        self.assert_fresh(model, second, tmp_path)

    @pytest.mark.parametrize(
        "bad", [ParseTree("s", (ParseTree("n", ("a", "b")),))], ids=["several-tokens"]
    )
    def test_a_failing_call_drops_the_cache(self, tmp_path, counted, bad):
        trees = self.trees()
        backend = PcfgBackend(self.CONFIG)
        backend.train(trees[:40])
        with pytest.raises(ValueError):
            backend.train(trees[:50] + [bad] + trees[50:60])
        model = backend.train(trees[:70])
        assert counted == [40, 21, 70]
        self.assert_fresh(model, trees[:70], tmp_path)
