import json
import random
from collections import Counter

import pytest

from spskit.errors import TokenMismatchError
from spskit.evaluation import ScoreOptions, score_corpus, spans
from spskit.treebank import ParseTree, parse_bracketed, write_json


def random_bracketing(tokens, rng, labels=("A", "B", "C")):
    """A random binary-ish bracketing over a fixed token sequence."""
    nodes = [ParseTree(rng.choice(("n", "v")), (tok,)) for tok in tokens]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        merged = ParseTree(rng.choice(labels), (nodes[i], nodes[i + 1]))
        nodes[i : i + 2] = [merged]
    return ParseTree("TOP", tuple(nodes))


class TestSpans:
    def test_defaults_exclude_root_and_pos(self, flat_time_tree):
        assert spans(flat_time_tree) == {}

    def test_include_pos_counts_preterminals(self, flat_time_tree):
        got = spans(flat_time_tree, ScoreOptions(include_pos=True))
        assert got == {("t", 0, 1): 1, ("t", 1, 2): 1, ("w", 2, 3): 1}

    def test_w_exclusion_changes_exactly_the_w_spans(self, flat_time_tree):
        with_w = spans(flat_time_tree, ScoreOptions(include_pos=True))
        without = spans(
            flat_time_tree,
            ScoreOptions(include_pos=True, exclude_labels={"w"}),
        )
        assert with_w - without == {("w", 2, 3): 1}

    def test_include_root(self, flat_time_tree):
        got = spans(flat_time_tree, ScoreOptions(include_root=True))
        assert got == {("adv", 0, 3): 1}


class TestScorePair:
    def test_identity(self):
        gold = parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))")
        report = score_corpus([gold], [gold])
        assert report.matched == report.predicted == report.gold == 3

    def test_flat_vs_structured_hand_counts(self):
        # gold spans (root and POS excluded): subj(0,1), pred(1,3), obj(2,3),
        # att... none; predicted flat single constituent: x(0,3) -> no match.
        gold = parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))")
        pred = parse_bracketed("(s (x (n a) (v b) (n c)))")
        report = score_corpus([pred], [gold])
        assert (report.matched, report.predicted, report.gold) == (0, 1, 3)

    def test_partial_overlap_hand_counts(self):
        gold = parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))")
        pred = parse_bracketed("(s (subj (n a)) (x (v b) (n c)))")
        report = score_corpus([pred], [gold])
        assert (report.matched, report.predicted, report.gold) == (1, 2, 3)

    def test_token_mismatch(self):
        with pytest.raises(TokenMismatchError):
            score_corpus([parse_bracketed("(s (n a))")], [parse_bracketed("(s (n b))")])


class TestScoreCorpus:
    def test_all_identical_gives_100(self):
        trees = [
            parse_bracketed("(s (subj (n a)) (pred (v b)))"),
            parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))"),
        ]
        report = score_corpus(trees, trees)
        assert report.f1 == 100.0
        assert report.precision == report.recall == 100.0

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(ValueError):
            score_corpus([], [])

    def test_length_mismatch(self):
        tree = parse_bracketed("(s (n a))")
        with pytest.raises(ValueError):
            score_corpus([tree], [tree, tree])

    def test_three_pair_totals_equal_hand_sums(self):
        golds = [
            parse_bracketed("(s (subj (n a)) (pred (v b)))"),
            parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))"),
            parse_bracketed("(s (subj (att (a x)) (n a)) (pred (v b)))"),
        ]
        preds = [
            golds[0],                                                  # 2/2/2
            parse_bracketed("(s (subj (n a)) (x (v b) (n c)))"),        # 1/2/3
            parse_bracketed("(s (subj (n x) (n a)) (pred (v b)))"),    # 2/2/3
        ]
        report = score_corpus(preds, golds)
        assert (report.matched, report.predicted, report.gold) == (5, 6, 8)
        precision = 100 * 5 / 6
        recall = 100 * 5 / 8
        f1 = 2 * precision * recall / (precision + recall)
        assert report.precision == pytest.approx(precision)
        assert report.recall == pytest.approx(recall)
        assert report.f1 == pytest.approx(f1)

    def test_per_label_breakdown(self):
        gold = parse_bracketed("(s (subj (n a)) (pred (v b)))")
        pred = parse_bracketed("(s (subj (n a)) (x (v b)))")
        report = score_corpus([pred], [gold])
        perfect = {"precision": 100.0, "recall": 100.0, "f1": 100.0}
        assert report.per_label["subj"] == perfect
        pred = report.per_label["pred"]
        assert (pred["precision"], pred["recall"]) == (0.0, 0.0)

    def test_swap_swaps_precision_and_recall(self):
        rng = random.Random(5)
        preds, golds = [], []
        for _ in range(100):
            tokens = ["t%d" % i for i in range(rng.randint(2, 7))]
            preds.append(random_bracketing(tokens, rng))
            golds.append(random_bracketing(tokens, rng))
        forward = score_corpus(preds, golds)
        backward = score_corpus(golds, preds)
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)
        assert forward.f1 == pytest.approx(backward.f1)

    def test_reordering_is_invariant(self):
        rng = random.Random(6)
        pairs = []
        for _ in range(20):
            tokens = ["t%d" % i for i in range(rng.randint(2, 6))]
            pairs.append(
                (random_bracketing(tokens, rng), random_bracketing(tokens, rng))
            )
        report = score_corpus(*zip(*pairs))
        rng.shuffle(pairs)
        shuffled = score_corpus(*zip(*pairs))
        assert report.f1 == pytest.approx(shuffled.f1)

    def test_adding_perfect_pair_never_lowers_f1(self):
        gold = parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))")
        pred = parse_bracketed("(s (subj (n a)) (x (v b) (n c)))")
        base = score_corpus([pred], [gold])
        extended = score_corpus([pred, gold], [gold, gold])
        assert extended.f1 >= base.f1

    @pytest.mark.parametrize(
        "opts",
        [ScoreOptions(), ScoreOptions(include_root=True, include_pos=True, exclude_labels={"A"})],
    )
    def test_per_label_scores_match_counts_made_here(self, opts):
        # P is only ever predicted and G only ever gold.
        rng = random.Random(8)
        preds, golds = [], []
        for _ in range(40):
            tokens = ["t%d" % i for i in range(rng.randint(1, 7))]
            preds.append(random_bracketing(tokens, rng, labels=("A", "B", "P")))
            golds.append(random_bracketing(tokens, rng, labels=("A", "B", "G")))
        matched, predicted, gold = Counter(), Counter(), Counter()
        for pred_tree, gold_tree in zip(preds, golds):
            p, g = spans(pred_tree, opts), spans(gold_tree, opts)
            for span in p.keys() | g.keys():
                predicted[span[0]] += p[span]
                gold[span[0]] += g[span]
                matched[span[0]] += min(p[span], g[span])
        assert predicted["P"] and not gold["P"]
        assert gold["G"] and not predicted["G"]

        report = score_corpus(preds, golds, opts)
        assert report.per_label.keys() == predicted.keys() | gold.keys()
        for label, scores in report.per_label.items():
            m, p, g = matched[label], predicted[label], gold[label]
            precision = 100 * m / p if p else 0.0
            recall = 100 * m / g if g else 0.0
            f1 = 2 * precision * recall / (precision + recall) if m else 0.0
            assert scores == pytest.approx(
                {"precision": precision, "recall": recall, "f1": f1}
            ), label
        totals = (sum(matched.values()), sum(predicted.values()), sum(gold.values()))
        assert (report.matched, report.predicted, report.gold) == totals

    def test_report_serialization(self, tmp_path):
        gold = parse_bracketed("(s (subj (n a)) (pred (v b)))")
        report = score_corpus([gold], [gold])
        path = tmp_path / "report.json"
        write_json(path, report)
        assert json.loads(path.read_text(encoding="utf-8"))["f1"] == 100.0
        assert "ALL" in report.table()
