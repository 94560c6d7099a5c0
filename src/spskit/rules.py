"""Syntactic-rule extraction, empirical distributions, and the JS instance distance.

A syntactic rule is a one-level production: a parent label plus the ordered
labels of its children.  Lexical productions (a POS tag over its token) are
excluded by default, so a rule exists for every internal node that has at
least one non-leaf child.  This module counts rules and tokens and compares
counts; how a candidate is featurized is ``selection``'s job.  The instance
distance JS(S, S + {c}) is the Jensen-Shannon divergence, in base 2, between
the reference distribution and the same distribution with the candidate's
feature counts folded in.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyFeaturesError

__all__ = [
    "SyntacticRule",
    "RuleDistribution",
    "extract_rules",
    "extract_corpus_rules",
    "token_counts",
    "js_divergence",
    "instance_distance",
    "format_rule",
    "export_rules",
]

# Marker standing in for a bare token child (one not wrapped in a POS node).
TOKEN_MARKER = "<tok>"


@dataclass(frozen=True, order=True)
class SyntacticRule:
    __slots__ = ("parent", "children")

    parent: str
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("rule must have at least one child label")


def format_rule(rule):
    return f"{rule.parent} -> " + " ".join(rule.children)


def extract_rules(tree, exclude_labels=()):
    """Count the syntactic rules of one tree.

    One rule per internal node with at least one non-leaf child; preterminal
    (lexical) productions contribute nothing.  A child node contributes its
    label, a bare token child contributes TOKEN_MARKER.  Children whose label
    is in ``exclude_labels`` (e.g. punctuation ``w``) are omitted; a rule whose
    children are all omitted is dropped.  Rules are counted in first-seen
    order, nodes in preorder.
    """
    return extract_corpus_rules((tree,), exclude_labels)


def extract_corpus_rules(trees, exclude_labels=()):
    """Aggregate rule counts over a corpus, in first-seen order across it.

    One preorder walk with one stack counts (parent, child labels) keys and
    builds each SyntacticRule once per distinct key.
    """
    exclude = frozenset(exclude_labels)
    keys = {}
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            children = node.children
            labels = []
            preterminal = True
            for child in children:
                if isinstance(child, str):
                    label = TOKEN_MARKER
                else:
                    label = child.label
                    preterminal = False
                if label not in exclude:
                    labels.append(label)
            if preterminal:
                continue
            if labels:
                key = (node.label, tuple(labels))
                keys[key] = keys.get(key, 0) + 1
            stack.extend(c for c in reversed(children) if not isinstance(c, str))
    return Counter(
        {SyntacticRule(parent, labels): n for (parent, labels), n in keys.items()}
    )


def token_counts(trees):
    """Aggregate token counts over a corpus of trees."""
    counts = Counter()
    for tree in trees:
        counts.update(tree.leaves())
    return counts


class RuleDistribution:
    """An empirical probability distribution over hashable items.

    Built from counts, which are retained so a candidate's features can be
    folded in without losing the original totals.
    """

    def __init__(self, counts):
        counts = {item: int(c) for item, c in counts.items() if c > 0}
        if not counts:
            raise ValueError("distribution needs at least one observation")
        self._counts = counts
        self.total_count = sum(counts.values())

    @property
    def counts(self):
        return dict(self._counts)

    @property
    def support(self):
        total = self.total_count
        return {item: c / total for item, c in self._counts.items()}

    def extended(self, extra_counts):
        """A new distribution with ``extra_counts`` folded into this one."""
        merged = Counter(self._counts)
        merged.update(extra_counts)
        return RuleDistribution(merged)

    def __len__(self):
        return len(self._counts)

    def __repr__(self):
        return (
            f"RuleDistribution({len(self._counts)} items, "
            f"total_count={self.total_count})"
        )


def js_divergence(p, q):
    """Jensen-Shannon divergence in base 2, bounded in [0, 1].

    JS(P, Q) = (KL(P||M) + KL(Q||M)) / 2 with M = (P + Q) / 2.  Disjoint
    supports are legal and give exactly 1; identical distributions give 0.
    The union support is accumulated in sorted order so equal distributions
    always produce bit-identical values, however their counts were built.
    """
    ps = p.support
    qs = q.support
    total = 0.0
    for item in sorted(ps.keys() | qs.keys()):
        pi = ps.get(item, 0.0)
        qi = qs.get(item, 0.0)
        m = 0.5 * (pi + qi)
        if pi > 0.0:
            total += 0.5 * pi * math.log2(pi / m)
        if qi > 0.0:
            total += 0.5 * qi * math.log2(qi / m)
    # Clip the float noise so the documented range holds exactly.
    return min(1.0, max(0.0, total))


def instance_distance(features, reference):
    """D(c, S) = JS(S, S + {c}) for a candidate's feature counts ``features``.

    ``reference`` is the empirical distribution of the reference corpus S;
    the candidate's counts are added to S's counts and the result is
    compared against S.  Lower means the candidate disturbs the reference
    distribution less.
    """
    if not features:
        raise EmptyFeaturesError("candidate has no features")
    return js_divergence(reference, reference.extended(features))


def export_rules(counts):
    """Render rule counts as sorted text, one ``parent -> children`` per line.

    Useful for prompt construction and diffing rule inventories.
    """
    lines = [format_rule(rule) for rule in sorted(counts)]
    return "\n".join(lines) + ("\n" if lines else "")
