"""Synthetic two-domain grammars for offline experiments and demos.

The pair shares one label inventory and one rule shape set but differs in
rule probabilities and vocabulary, the way a textbook corpus differs from
news text.  Three properties make it a useful cross-domain testbed:

* A set of "flip" words belongs to both the noun and the verb lexicon, noun-
  heavy in the source domain and verb-heavy in the target domain.  A parser
  trained on source data therefore mis-reads short target sentences that use
  a flip word as a verb (the nominal-compound reading wins), while longer
  target sentences force the verb reading and can teach it.
* Around half of the target vocabulary never occurs in source data.
* The target domain prefers structures the source uses rarely (nested
  verb-object predicates, double attributives), so rule distributions differ
  too.

Sampling is depth-guarded and fully seeded.
"""

from __future__ import annotations

from .generator import Pcfg, _choose
from .seeding import substream
from .treebank import LabelInventory, ParseTree

__all__ = [
    "demo_inventory",
    "source_grammar",
    "target_grammar",
    "sample_tree",
    "sample_corpus",
]


def demo_inventory():
    return LabelInventory(
        sps_labels=frozenset({"s", "subj", "pred", "obj", "att", "adv"}),
        pos_labels=frozenset({"n", "v", "a", "d"}),
    )


_STRUCTURE_SOURCE = {
    "s": [
        (("subj", "pred"), 0.20),
        (("subj", "pred", "obj"), 0.45),
        (("adv", "subj", "pred", "obj"), 0.08),
        (("adv", "subj", "pred"), 0.10),
        (("subj", "adv", "pred"), 0.05),
        (("subj",), 0.12),
    ],
    "subj": [(("n",), 0.60), (("att", "n"), 0.25), (("n", "n"), 0.15)],
    "pred": [(("v",), 0.55), (("adv", "v"), 0.37), (("v", "obj"), 0.08)],
    "obj": [(("n",), 0.55), (("att", "n"), 0.30), (("n", "n"), 0.15)],
    "att": [(("a",), 1.0)],
    "adv": [(("d",), 1.0)],
}

_STRUCTURE_TARGET = {
    "s": [
        (("subj", "pred"), 0.34),
        (("subj", "pred", "obj"), 0.34),
        (("adv", "subj", "pred", "obj"), 0.08),
        (("adv", "subj", "pred"), 0.12),
        (("subj", "adv", "pred"), 0.07),
        (("subj",), 0.05),
    ],
    "subj": [(("n",), 0.55), (("att", "n"), 0.33), (("n", "n"), 0.12)],
    "pred": [(("v",), 0.54), (("adv", "v"), 0.34), (("v", "obj"), 0.12)],
    "obj": [(("n",), 0.47), (("att", "n"), 0.35), (("n", "n"), 0.18)],
    "att": [(("a",), 1.0)],
    "adv": [(("d",), 1.0)],
}

# Words present in both lexica of one POS ("commons") and words private to a
# domain.  Source words are all comfortably frequent so source-domain parses
# stay lexically anchored when pseudo-data dilutes the tables; the target
# keeps a thin rare tail to exercise residual-OOV handling.
_LEX_SOURCE = {
    "n": [
        ("na", 0.15), ("nb", 0.14), ("nc", 0.13), ("nd", 0.12), ("ne", 0.11),
        ("ns1", 0.12), ("ns2", 0.12), ("ns3", 0.11),
    ],
    "v": [
        ("va", 0.25), ("vb", 0.22), ("vc", 0.18),
        ("vs1", 0.18), ("vs2", 0.17),
    ],
    "a": [("aa", 0.40), ("ab", 0.30), ("as1", 0.30)],
    "d": [("da", 0.50), ("db", 0.30), ("ds1", 0.20)],
}

_LEX_TARGET = {
    "n": [
        ("na", 0.08), ("nb", 0.08), ("nc", 0.07), ("nd", 0.07), ("ne", 0.06),
        ("nt1", 0.15), ("nt2", 0.13), ("nt3", 0.12), ("nt4", 0.12), ("nt5", 0.07),
        ("ntr1", 0.01), ("ntr2", 0.01), ("ntr3", 0.01), ("ntr4", 0.01),
        ("ntr5", 0.01),
    ],
    "v": [
        ("va", 0.12), ("vb", 0.10), ("vc", 0.08),
        ("vt1", 0.24), ("vt2", 0.22), ("vt3", 0.18),
        ("vtr1", 0.02), ("vtr2", 0.02), ("vtr3", 0.02),
    ],
    "a": [("aa", 0.20), ("ab", 0.15), ("at1", 0.35), ("at2", 0.30)],
    "d": [("da", 0.35), ("db", 0.25), ("dt1", 0.40)],
}


def source_grammar():
    return Pcfg("s", _STRUCTURE_SOURCE, _LEX_SOURCE)


def target_grammar():
    return Pcfg("s", _STRUCTURE_TARGET, _LEX_TARGET)


MAX_DEPTH = 30  # past which a derivation is abandoned and drawn again


def sample_tree(grammar, rng):
    return _expand(grammar, rng, grammar.start, 0)


def _expand(grammar, rng, symbol, depth):
    """A tree drawn top-down from ``symbol``, children left to right."""
    if depth > MAX_DEPTH:
        raise RecursionError("derivation exceeded MAX_DEPTH")
    if symbol in grammar.lexicon:
        return ParseTree(symbol, (_choose(rng, grammar.lexicon[symbol]),))
    rhs = _choose(rng, grammar.rules[symbol])
    return ParseTree(symbol, tuple(_expand(grammar, rng, s, depth + 1) for s in rhs))


def sample_corpus(grammar, n, seed, name="corpus"):
    """n independent trees from a named substream of the seed."""
    rng = substream(seed, "synthetic", name)
    trees = []
    while len(trees) < n:
        try:
            trees.append(sample_tree(grammar, rng))
        except RecursionError:
            continue
    return trees


def cross_domain_data(data_seed=11):
    """The corpora of the standard cross-domain experiment.

    Returns (source_train, source_dev, target_dev, target_reference) of 500,
    80, 80 and 150 trees; the reference trees stand in for a rule-converted
    target treebank and double as the prompt example pool.
    """
    return (
        sample_corpus(source_grammar(), 500, data_seed, "src-train"),
        sample_corpus(source_grammar(), 80, data_seed, "src-dev"),
        sample_corpus(target_grammar(), 80, data_seed, "tgt-dev"),
        sample_corpus(target_grammar(), 150, data_seed, "tgt-ref"),
    )


def cross_domain_experiment(
    seed=0,
    iterations=4,
    pool_size=250,
    k=50,
    criterion_kind="csrs",
    data_seed=11,
    out_dir=None,
    jobs=1,
):
    """A ready-to-run self-training experiment over the two demo domains.

    Candidate pools are held at the source mean length (prompt sigma 0, exact
    mock length matching): the corpus-extension distance otherwise favors the
    shortest candidates, which starves the selection of structural variety.
    ``jobs`` stays for existing callers; parsing runs in one process, so it
    must be 1.
    """
    if jobs != 1:
        raise ValueError(
            f"jobs must be 1 (parsing runs in one process), got {jobs!r}"
        )
    from .generator import MockPcfgGenerator, PromptConfig
    from .parser import PcfgBackend, TrainConfig
    from .selection import CriterionConfig
    from .selftrain import Experiment

    src_train, src_dev, tgt_dev, tgt_ref = cross_domain_data(data_seed=data_seed)
    return Experiment(
        source_trees=src_train,
        target_examples=[t.sentence() for t in tgt_ref],
        parser_backend=PcfgBackend(TrainConfig()),
        generator_backend=MockPcfgGenerator(
            target_grammar(), seed=0, batch_size=10, length_tolerance=0.0
        ),
        criterion=CriterionConfig(kind=criterion_kind, k=k),
        iterations=iterations,
        pool_size=pool_size,
        seed=seed,
        converted_target_trees=tgt_ref,
        source_dev=src_dev,
        target_dev=tgt_dev,
        prompt_config=PromptConfig(length_sigma=0.0),
        out_dir=out_dir,
    )
