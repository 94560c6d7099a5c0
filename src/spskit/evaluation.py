"""Labeled bracketed-span precision/recall/F1 against gold trees.

Spans are (label, start, end) over token positions, micro-averaged across the
corpus in the evalb convention.  By default the root span and preterminal
(POS-level) spans are not counted; punctuation spans are counted unless their
labels are listed in ``exclude_labels``.  Scores are on a 0..100 scale.
``score_corpus`` accepts the gold trees' spans precomputed, for a caller that
scores many predictions against the same gold trees.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, TokenMismatchError, boolean
from .treebank import write_text_atomic

__all__ = ["ScoreOptions", "ScoreReport", "spans", "score_pair", "score_corpus"]


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

    def walk(node, start, is_root):
        end = start
        for child in node.children:
            if isinstance(child, str):
                end += 1
            else:
                end = walk(child, end, False)
        counted = True
        if is_root and not opts.include_root:
            counted = False
        if node.is_preterminal and not opts.include_pos:
            counted = False
        if node.label in opts.exclude_labels:
            counted = False
        if counted:
            out[(node.label, start, end)] += 1
        return end

    walk(tree, 0, True)
    return out


def score_pair(pred, gold, opts=ScoreOptions()):
    """(matched, predicted, gold) span counts for one tree pair."""
    report = score_corpus([pred], [gold], opts)
    return report.matched, report.predicted, report.gold


def _prf(matched, predicted, gold):
    precision = 100.0 * matched / predicted if predicted else 0.0
    recall = 100.0 * matched / gold if gold else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


@dataclass
class ScoreReport:
    precision: float
    recall: float
    f1: float
    matched: int
    predicted: int
    gold: int
    per_label: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "matched": self.matched,
            "predicted": self.predicted,
            "gold": self.gold,
            "per_label": {
                label: {"precision": p, "recall": r, "f1": f}
                for label, (p, r, f) in sorted(self.per_label.items())
            },
        }

    def to_json(self, path):
        text = json.dumps(self.to_dict(), ensure_ascii=False, indent=2)
        write_text_atomic(path, text + "\n")

    def table(self):
        lines = [
            f"{'label':<12} {'P':>7} {'R':>7} {'F1':>7}",
            f"{'ALL':<12} {self.precision:7.2f} {self.recall:7.2f} {self.f1:7.2f}",
        ]
        for label, (p, r, f) in sorted(self.per_label.items()):
            lines.append(f"{label:<12} {p:7.2f} {r:7.2f} {f:7.2f}")
        return "\n".join(lines)


def score_corpus(preds, golds, opts=ScoreOptions(), *, gold_spans=None):
    """Micro-averaged report over aligned prediction/gold corpora.

    ``gold_spans``, when given, holds ``spans(gold, opts)`` for every gold
    tree, so a caller scoring the same golds again and again builds them
    once.  The leaves of every pair are still checked.
    """
    preds = list(preds)
    golds = list(golds)
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} vs {len(golds)}")
    if not preds:
        raise ValueError("cannot score an empty corpus")
    if gold_spans is not None and len(gold_spans) != len(golds):
        raise ValueError(
            f"length mismatch: {len(gold_spans)} gold span sets for {len(golds)} trees"
        )

    matched = predicted = gold_total = 0
    by_label = {}
    for index, (pred, gold) in enumerate(zip(preds, golds)):
        if pred.leaves() != gold.leaves():
            raise TokenMismatchError(
                f"pair {index}: token sequences differ: "
                f"{pred.leaves()!r} vs {gold.leaves()!r}"
            )
        pred_spans = spans(pred, opts)
        gold_counted = spans(gold, opts) if gold_spans is None else gold_spans[index]
        hit = pred_spans & gold_counted
        matched += sum(hit.values())
        predicted += sum(pred_spans.values())
        gold_total += sum(gold_counted.values())
        for (label, _, _), c in pred_spans.items():
            m, p, g = by_label.get(label, (0, 0, 0))
            by_label[label] = (m, p + c, g)
        for (label, _, _), c in gold_counted.items():
            m, p, g = by_label.get(label, (0, 0, 0))
            by_label[label] = (m, p, g + c)
        for (label, _, _), c in hit.items():
            m, p, g = by_label[label]
            by_label[label] = (m + c, p, g)

    precision, recall, f1 = _prf(matched, predicted, gold_total)
    per_label = {label: _prf(m, p, g) for label, (m, p, g) in by_label.items()}
    return ScoreReport(
        precision=precision,
        recall=recall,
        f1=f1,
        matched=matched,
        predicted=predicted,
        gold=gold_total,
        per_label=per_label,
    )
