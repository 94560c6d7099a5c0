"""Ranking and Top-K selection of pseudo-trees under the six criteria.

Three signal levels: token distribution, parser confidence, and syntactic
rules.  Distribution-based kinds score a candidate as its instance distance
D(c, S) = JS(S, S + {c}) to a reference corpus: the source treebank for
``token`` and ``srs``, the rule-converted target treebank for ``csrs``.  The
kind alone fixes the reference and how a candidate is featurized (``KINDS``).
``conf`` scores negated confidence so that lower is always better.  The
combined kinds (``srs_conf``, ``csrs_conf``) first keep the
``prefilter_multiplier * k`` best candidates by rule score, then pick the k
most confident among them.  ``score`` featurizes each candidate once (token
counts for ``token``, rule counts otherwise) and computes one distance per
distinct feature multiset.  It drops fallback parses (confidence 0) and
candidates with no features (every rule child excluded).

All orderings are total and deterministic: ties break by confidence (higher
first), then the token sequence, then the serialized tree.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError, int_at_least
from .rules import extract_rules, instance_distance
from .treebank import serialize

__all__ = ["CriterionConfig", "SelectionRefs", "score", "select_top_k", "select"]

log = logging.getLogger(__name__)

# Each kind's reference (a ``SelectionRefs`` field) and the featurization its
# candidates and that reference share; ``conf`` reads neither.
KINDS = {
    "token": ("source_tokens", "tokens"),
    "conf": (None, None),
    "srs": ("source_rules", "rules"),
    "srs_conf": ("source_rules", "rules"),
    "csrs": ("converted_target_rules", "rules"),
    "csrs_conf": ("converted_target_rules", "rules"),
}


@dataclass(frozen=True)
class CriterionConfig:
    kind: str
    k: int = 2000
    prefilter_multiplier: int = 2
    exclude_labels: tuple = ()  # rule child labels the whole run leaves out

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(
                f"'kind' must be one of {', '.join(KINDS)}, got {self.kind!r}"
            )
        int_at_least("k", self.k, 1)
        int_at_least("prefilter_multiplier", self.prefilter_multiplier, 1)
        labels = self.exclude_labels
        if not isinstance(labels, (list, tuple)) or not all(
            isinstance(label, str) for label in labels
        ):
            raise ConfigError(
                f"'exclude_labels' must be a list of strings, got {labels!r}"
            )
        object.__setattr__(self, "exclude_labels", tuple(labels))

    @property
    def reference_name(self):
        """The ``SelectionRefs`` field this criterion scores against; None for conf."""
        return KINDS[self.kind][0]

    @property
    def mode(self):
        """How a candidate is featurized: "tokens" or "rules"; None for conf."""
        return KINDS[self.kind][1]


@dataclass
class SelectionRefs:
    """Reference distributions the criteria draw on."""

    source_tokens: object = None
    source_rules: object = None
    converted_target_rules: object = None

    def get(self, name):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"missing reference distribution {name!r}")
        return value


def _candidate_key(candidate):
    return (-candidate.confidence, candidate.sentence.tokens, serialize(candidate.tree))


def score(candidates, cfg, refs):
    """(candidate, score) pairs; lower scores are better under every kind.

    Fallback-parsed candidates and candidates without features are dropped
    here.  For the combined kinds the returned score is the rule-distance
    component; confidence enters during selection.
    """
    usable = [c for c in candidates if c.confidence > 0.0]
    mode = cfg.mode
    if mode is None:
        return [(c, -c.confidence) for c in usable]
    reference = refs.get(cfg.reference_name)
    # The distance depends only on the reference and the candidate's feature
    # multiset, so it is computed once per distinct multiset.
    distances = {}
    scored = []
    for c in usable:
        if mode == "tokens":
            features = Counter(c.sentence.tokens)
        else:
            features = extract_rules(c.tree, exclude_labels=cfg.exclude_labels)
        if not features:
            continue
        key = frozenset(features.items())
        distance = distances.get(key)
        if distance is None:
            distance = distances[key] = instance_distance(features, reference)
        scored.append((c, distance))
    return scored


def select_top_k(scored, cfg):
    """Top-K per the criterion; deterministic and permutation-invariant.

    Plain kinds take the k lowest scores.  Combined kinds keep
    ``prefilter_multiplier * k`` candidates by rule score and then the k
    highest confidences among them.  Asking for more than is available
    returns everything, with a warning.
    """
    scored = list(scored)
    if not scored:
        return []

    by_score = sorted(scored, key=lambda pair: (pair[1],) + _candidate_key(pair[0]))
    if len(scored) < cfg.k:
        log.warning(
            "requested top %d but only %d candidates are scorable", cfg.k, len(scored)
        )
    if not cfg.kind.endswith("_conf"):
        return [c for c, _ in by_score[: cfg.k]]

    shortlist = by_score[: cfg.prefilter_multiplier * cfg.k]
    by_confidence = sorted(
        shortlist, key=lambda pair: (-pair[0].confidence, pair[1]) + _candidate_key(pair[0])[1:]
    )
    return [c for c, _ in by_confidence[: cfg.k]]


def select(candidates, cfg, refs):
    """score + select_top_k in one call."""
    return select_top_k(score(candidates, cfg, refs), cfg)
