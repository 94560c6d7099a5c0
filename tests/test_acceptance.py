"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The end-to-end criteria use the synthetic two-domain setup from
spskit.synthetic (shared inventory, different rule probabilities and
vocabulary) with the documented defaults: 500 source trees, four iterations,
pool 250, K=50, CSRs criterion, three seeds.
"""

import random
import time

import pytest

from spskit.evaluation import score_corpus
from spskit.generator import MockPcfgGenerator, PromptConfig, corpus_stats, sample_prompt
from spskit.parser import PseudoTree
from spskit.rules import RuleDistribution, extract_corpus_rules, js_divergence, token_counts
from spskit.seeding import substream
from spskit.segmentation import Lexicon, SplitTable, transfer_corpus
from spskit.selection import CriterionConfig, SelectionRefs, score, select_top_k
from spskit.selftrain import run_multiseed
from spskit.synthetic import (
    cross_domain_experiment,
    demo_inventory,
    target_grammar,
)
from spskit.treebank import normalize_pos_nodes, parse_bracketed, serialize

from test_selection import make_refs, oracle_select, random_pool


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_js_divergence_exactness():
    started = time.monotonic()
    p = RuleDistribution({"a": 2, "b": 2})
    q = RuleDistribution({"a": 3, "b": 1})
    assert js_divergence(p, p) == 0.0
    assert js_divergence(RuleDistribution({"a": 1}), RuleDistribution({"b": 1})) == 1.0
    assert abs(js_divergence(p, q) - 0.0488) < 1e-4
    rng = random.Random(0)
    for _ in range(300):
        c1 = {k: rng.randint(1, 30) for k in rng.sample("abcdefgh", rng.randint(1, 8))}
        c2 = {k: rng.randint(1, 30) for k in rng.sample("abcdefgh", rng.randint(1, 8))}
        d1, d2 = RuleDistribution(c1), RuleDistribution(c2)
        assert abs(js_divergence(d1, d2) - js_divergence(d2, d1)) < 1e-12
        assert 0.0 <= js_divergence(d1, d2) <= 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"JS suite exact (identity, disjoint=1, 0.0488, symmetry) in {elapsed:.3f}s")


def test_criterion_2_selection_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(2024)
    source = [
        parse_bracketed("(s (subj (n a)) (pred (v b)))"),
        parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))"),
        parse_bracketed("(s (adv (d x)) (subj (n a)) (pred (v b)))"),
    ] * 2
    target = [
        parse_bracketed("(s (subj (att (a x)) (n a)) (pred (v b)))"),
        parse_bracketed("(s (subj (n a)) (pred (v b)))"),
    ] * 3
    refs = make_refs(source, target)
    kinds = ("token", "conf", "srs", "srs_conf", "csrs", "csrs_conf")
    pools = 0
    for _ in range(200):
        pool = random_pool(rng, rng.randint(1, 50))
        k = rng.randint(1, 10)
        pools += 1
        for kind in kinds:
            cfg = CriterionConfig(kind=kind, k=k)
            got = select_top_k(score(pool, cfg, refs), cfg)
            expected = oracle_select(pool, cfg, refs)
            assert [id(c) for c in got] == [id(c) for c in expected]
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(2, f"{pools} random pools x {len(kinds)} criteria equal the oracle in {elapsed:.1f}s")


def test_criterion_3_criteria_distinguishing_pair():
    # identical token multisets, different structure
    flat = parse_bracketed("(s (subj (n w1) (n w2)))")
    nested = parse_bracketed("(s (subj (n w1)) (pred (n w2)))")
    assert flat.leaves() == nested.leaves()
    candidates = [
        PseudoTree(flat.sentence(), flat, 0.5),
        PseudoTree(nested.sentence(), nested, 0.5),
    ]
    target = [parse_bracketed("(s (subj (n w1)) (pred (v w2)))")] * 4
    refs = SelectionRefs(
        source_tokens=RuleDistribution(token_counts(target)),
        converted_target_rules=RuleDistribution(extract_corpus_rules(target)),
    )
    token_scores = [s for _, s in score(candidates, CriterionConfig(kind="token", k=1), refs)]
    csrs_scores = [s for _, s in score(candidates, CriterionConfig(kind="csrs", k=1), refs)]
    assert token_scores[0] == token_scores[1]
    assert csrs_scores[0] != csrs_scores[1]
    report(3, "same-token pair ties under Token and is strictly ordered under CSRs")


def test_criterion_4_golden_conversions():
    # Normalization golden: the nested POS chain flattens exactly.
    inventory = demo_inventory().__class__(sps_labels={"adv"}, pos_labels={"t", "w"})
    nested = parse_bracketed("(adv (t (t 昨天) (t 晚上)) (w ，))")
    assert serialize(normalize_pos_nodes(nested, inventory)) == "(adv (t 昨天) (t 晚上) (w ，))"

    lexicon = Lexicon(["圣诞节", "武侠", "小说", "火儿"])
    # merge row
    (merged,), _ = transfer_corpus([parse_bracketed("(s (n 圣诞) (n 节))")], lexicon)
    assert serialize(merged) == "(s (n 圣诞节))"
    # split row
    (split,), _ = transfer_corpus(
        [parse_bracketed("(obj (n 武侠小说))")],
        lexicon,
        split_table=SplitTable({"武侠小说": ["武侠", "小说"]}),
    )
    assert serialize(split) == "(obj (n 武侠) (n 小说))"
    # misalignment row: split to finest parts then re-merge by the lexicon
    table = SplitTable({"惹火": ["惹", "火"], "儿了": ["儿", "了"]})
    (resolved,), _ = transfer_corpus(
        [parse_bracketed("(vp (v 惹火) (u 儿了))")], lexicon, split_table=table
    )
    assert serialize(resolved) == "(vp (v 惹) (v 火儿) (u 了))"
    report(4, "normalization figure and all three segmentation rows reproduce byte-exactly")


def test_criterion_5_scorer_validation():
    gold = parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))")
    identity = score_corpus([gold], [gold])
    assert identity.f1 == 100.0

    golds = [
        parse_bracketed("(s (subj (n a)) (pred (v b)))"),
        parse_bracketed("(s (subj (n a)) (pred (v b) (obj (n c))))"),
        parse_bracketed("(s (subj (att (a x)) (n a)) (pred (v b)))"),
    ]
    preds = [
        golds[0],
        parse_bracketed("(s (subj (n a)) (x (v b) (n c)))"),
        parse_bracketed("(s (subj (n x) (n a)) (pred (v b)))"),
    ]
    suite = score_corpus(preds, golds)
    # hand counts: matched 5, predicted 6, gold 8
    assert abs(suite.precision - 100 * 5 / 6) < 0.01
    assert abs(suite.recall - 100 * 5 / 8) < 0.01
    expected_f1 = 2 * (100 * 5 / 6) * (100 * 5 / 8) / ((100 * 5 / 6) + (100 * 5 / 8))
    assert abs(suite.f1 - expected_f1) < 0.01

    rng = random.Random(9)
    from test_evaluation import random_bracketing

    for _ in range(100):
        tokens = [f"t{i}" for i in range(rng.randint(2, 8))]
        a, b = random_bracketing(tokens, rng), random_bracketing(tokens, rng)
        forward = score_corpus([a], [b])
        backward = score_corpus([b], [a])
        assert forward.precision == pytest.approx(backward.recall, abs=1e-9)
        assert forward.recall == pytest.approx(backward.precision, abs=1e-9)
    report(5, "identity F1=100.00, 3-pair golden to 0.01, symmetry on 100 random pairs")


@pytest.fixture(scope="module")
def end_to_end_report(tmp_path_factory):
    started = time.monotonic()
    out_dir = tmp_path_factory.mktemp("selftrain")
    experiment = cross_domain_experiment(out_dir=str(out_dir))
    aggregate = run_multiseed(experiment, seeds=[1, 2, 3])
    aggregate["elapsed"] = time.monotonic() - started
    return aggregate


def test_criterion_6_end_to_end_cross_domain_gain(end_to_end_report):
    aggregate = end_to_end_report
    target = aggregate["mean_target_f1"]
    source = aggregate["mean_source_f1"]
    gain = target[-1] - target[0]
    degradation = source[0] - source[-1]
    assert gain >= 1.0, f"target gain {gain:.2f} < 1.0"
    assert degradation <= 1.0, f"source degradation {degradation:.2f} > 1.0"
    assert aggregate["elapsed"] < 300.0
    report(
        6,
        f"target dev F1 {target[0]:.2f} -> {target[-1]:.2f} (gain {gain:+.2f}), "
        f"source {source[0]:.2f} -> {source[-1]:.2f} "
        f"({-degradation:+.2f}), {aggregate['elapsed']:.0f}s for 3 seeds",
    )


def test_criterion_7_reproducibility(tmp_path):
    manifests = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        experiment = cross_domain_experiment(seed=1, out_dir=str(out_dir))
        from spskit.selftrain import run

        run(experiment)
        manifests.append((out_dir / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    report(7, "two executions produced byte-identical manifests")


def test_criterion_8_mock_generator_adherence():
    corpus_seed = 21
    from spskit.synthetic import sample_corpus

    corpus = sample_corpus(target_grammar(), 150, corpus_seed, "adherence")
    stats = corpus_stats(corpus)
    examples = [t.sentence() for t in corpus[:25]]
    generator = MockPcfgGenerator(target_grammar(), seed=5, batch_size=25)
    rng = substream(6, "acceptance-adherence")
    config = PromptConfig(length_sigma=0.0, min_length=4)
    hits = total = 0
    while total < 1000:
        spec = sample_prompt(stats, examples, rng, config)
        batch = generator.generate(spec)
        prompted = set(spec.rules)
        for used in batch.derivations:
            total += 1
            if used & prompted:
                hits += 1
    rate = hits / total
    assert rate >= 0.55  # the 60% config target with the stated 5% slack
    report(8, f"adherence {100 * rate:.1f}% of {total} sentences (target 60%, slack 5%)")
