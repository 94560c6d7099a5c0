"""Labeled bracketed-span precision/recall/F1 against gold trees.

Spans are (label, start, end) over token positions, micro-averaged across the
corpus in the evalb convention.  By default the root span and preterminal
(POS-level) spans are not counted; punctuation spans are counted unless their
labels are listed in ``exclude_labels``.  Scores are on a 0..100 scale.
``score_corpus`` counts matched, predicted and gold spans per label; the
corpus totals are their sums.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, TokenMismatchError, boolean

__all__ = ["ScoreOptions", "ScoreReport", "spans", "score_corpus"]


@dataclass(frozen=True)
class ScoreOptions:
    include_root: bool = False
    include_pos: bool = False
    exclude_labels: frozenset = frozenset()

    def __post_init__(self):
        boolean("include_root", self.include_root)
        boolean("include_pos", self.include_pos)
        labels = self.exclude_labels
        # A bare string would be read as its characters, one label each.
        if not isinstance(labels, (list, tuple, set, frozenset)) or not all(
            isinstance(label, str) for label in labels
        ):
            raise ConfigError(
                f"'exclude_labels' must be a list of strings, got {labels!r}"
            )
        object.__setattr__(self, "exclude_labels", frozenset(labels))


def spans(tree, opts=ScoreOptions()):
    """Multiset of counted (label, start, end) spans of one tree."""
    out = Counter()
    _count_spans(tree, 0, True, opts, out)
    return out


def _count_spans(node, start, is_root, opts, out):
    """Count the spans of ``node``'s subtree, from ``start``, into ``out`` in
    postorder; returns the node's end."""
    end = start
    preterminal = True
    for child in node.children:
        if isinstance(child, str):
            end += 1
        else:
            preterminal = False
            end = _count_spans(child, end, False, opts, out)
    if not (
        (is_root and not opts.include_root)
        or (preterminal and not opts.include_pos)
        or node.label in opts.exclude_labels
    ):
        out[(node.label, start, end)] += 1
    return end


def _prf(matched, predicted, gold):
    precision = 100.0 * matched / predicted if predicted else 0.0
    recall = 100.0 * matched / gold if gold else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


@dataclass
class ScoreReport:
    precision: float
    recall: float
    f1: float
    matched: int
    predicted: int
    gold: int
    per_label: dict = field(default_factory=dict)  # label -> {precision, recall, f1}

    def table(self):
        lines = [f"{'label':<12} {'P':>7} {'R':>7} {'F1':>7}"]
        overall = {"precision": self.precision, "recall": self.recall, "f1": self.f1}
        for label, scores in [("ALL", overall), *sorted(self.per_label.items())]:
            p, r, f = scores["precision"], scores["recall"], scores["f1"]
            lines.append(f"{label:<12} {p:7.2f} {r:7.2f} {f:7.2f}")
        return "\n".join(lines)


def score_corpus(preds, golds, opts=ScoreOptions()):
    """Micro-averaged report over aligned prediction/gold corpora."""
    preds = list(preds)
    golds = list(golds)
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} vs {len(golds)}")
    if not preds:
        raise ValueError("cannot score an empty corpus")

    matched, predicted, gold = Counter(), Counter(), Counter()  # spans per label
    for index, (pred_tree, gold_tree) in enumerate(zip(preds, golds)):
        if pred_tree.leaves() != gold_tree.leaves():
            raise TokenMismatchError(
                f"pair {index}: token sequences differ: "
                f"{pred_tree.leaves()!r} vs {gold_tree.leaves()!r}"
            )
        pred_spans = spans(pred_tree, opts)
        gold_spans = spans(gold_tree, opts)
        for (label, _, _), c in pred_spans.items():
            predicted[label] += c
        for (label, _, _), c in gold_spans.items():
            gold[label] += c
        for (label, _, _), c in (pred_spans & gold_spans).items():
            matched[label] += c

    m, p, g = matched.total(), predicted.total(), gold.total()
    return ScoreReport(
        **_prf(m, p, g), matched=m, predicted=p, gold=g,
        per_label={
            label: _prf(matched[label], predicted[label], gold[label])
            for label in predicted | gold
        },
    )
