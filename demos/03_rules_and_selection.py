"""Syntactic rules, the JS instance distance, and Top-K candidate selection.

A candidate pseudo-tree is worth training on when folding it into the
reference corpus barely disturbs the corpus's rule distribution.  That is
the instance distance D(c, S) = JS(S, S + {c}).  A criterion is its kind:
``token`` measures it over tokens against the source treebank, ``srs`` over
rules against the source, ``csrs`` over rules against the converted target
treebank; ``conf`` ranks by parser confidence alone, and ``srs_conf`` and
``csrs_conf`` keep the rule-closest shortlist, then its most confident.
"""

from spskit import (
    CriterionConfig,
    RuleDistribution,
    SelectionRefs,
    extract_corpus_rules,
    extract_rules,
    instance_distance,
    js_divergence,
    parse_bracketed,
    select,
)
from spskit.parser import PseudoTree
from spskit.rules import export_rules, token_counts

# Rule extraction: one production per internal node with non-leaf children.
tree = parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))")
print(export_rules(extract_rules(tree)))

# JS divergence is symmetric, bounded, and 1 exactly on disjoint supports.
p = RuleDistribution({"x": 1, "y": 1})
q = RuleDistribution({"x": 3, "y": 1})
print("JS(p, q) =", round(js_divergence(p, q), 4))
print("JS on disjoint supports =", js_divergence(p, RuleDistribution({"z": 5})))

# Reference distributions from a toy "converted target" treebank.
target_trees = [
    parse_bracketed("(s (subj (n w1)) (pred (v w2)))"),
    parse_bracketed("(s (subj (att (a w0)) (n w1)) (pred (v w2)))"),
] * 3
refs = SelectionRefs(
    source_tokens=RuleDistribution(token_counts(target_trees)),
    source_rules=RuleDistribution(extract_corpus_rules(target_trees)),
    converted_target_rules=RuleDistribution(extract_corpus_rules(target_trees)),
)

def candidate(text, confidence):
    parsed = parse_bracketed(text)
    return PseudoTree(parsed.sentence(), parsed, confidence)

pool = [
    candidate("(s (subj (n w1)) (pred (v w2)))", 0.62),        # target-like
    candidate("(s (subj (n w1) (n w3)) (pred (v w2)))", 0.81), # less typical
    candidate("(s (zz (qq (n w9))) (yy (n w8)))", 0.97),       # alien structure
    candidate("(s (subj (n w4)) (pred (v w5)))", 0.0),         # parser fallback
]

for c in pool[:3]:
    d = instance_distance(extract_rules(c.tree), refs.converted_target_rules)
    print(f"distance {d:.4f}  conf {c.confidence:.2f}  {c.sentence.text()}")

# CSRs picks the structurally closest; the fallback candidate is dropped.
chosen = select(pool, CriterionConfig(kind="csrs", k=2), refs)
print("csrs top-2:", [c.sentence.text() for c in chosen])

# The combined criterion prefilters by structure, then keeps the most
# confident of the shortlist.
chosen = select(pool, CriterionConfig(kind="csrs_conf", k=1), refs)
print("csrs_conf pick:", chosen[0].sentence.text(), chosen[0].confidence)
