"""Benchmark-owned input generators.

The grammars, mapping table and lexicon here belong to the benchmark, not to
spskit, so a change to spskit's own samplers (``spskit.synthetic``,
``spskit.generator``) cannot change the inputs of ``parse_long``,
``select_wide`` or ``prepare_treebank``.  Every generator takes the workload
seed and a name, and the same pair always gives the same inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random

from spskit.mapping import MappingRule, MappingTable
from spskit.segmentation import Lexicon, SplitTable
from spskit.treebank import LabelInventory, ParseTree


# A derivation longer than this many nodes is dropped and sampled again.
MAX_NODES = 400
# Draws that sample_lengths may make before it gives up.
MAX_LENGTH_TRIES = 200_000
# The wide grammar's shape: WIDE_NONTERMINALS x WIDE_EXPANSIONS distinct
# rules over WIDE_TAGS preterminals of WIDE_WORDS words each.
WIDE_NONTERMINALS = 40
WIDE_EXPANSIONS = 60
WIDE_TAGS = 10
WIDE_WORDS = 20


def rng_for(seed, name):
    # String seeds hash through SHA-512, which is stable across processes.
    return random.Random(f"perfbench:{seed}:{name}")


class Pcfg:
    """A sampling-only PCFG: ``rules`` maps a nonterminal to [(rhs, weight)],
    ``lexicon`` maps a preterminal to [(token, weight)]."""

    def __init__(self, start, rules, lexicon):
        self.start = start
        self.lexicon = lexicon
        self._choices = {}
        for symbol, options in list(rules.items()) + list(lexicon.items()):
            cumulative = list(itertools.accumulate(w for _, w in options))
            self._choices[symbol] = ([item for item, _ in options], cumulative)

    def _pick(self, rng, symbol):
        items, cumulative = self._choices[symbol]
        return items[bisect.bisect_right(cumulative, rng.random() * cumulative[-1])]

    def sample(self, rng):
        """One tree, or None when the derivation grows past MAX_NODES."""
        budget = [MAX_NODES]

        def expand(symbol):
            budget[0] -= 1
            if budget[0] < 0:
                raise OverflowError
            if symbol in self.lexicon:
                return ParseTree(symbol, (self._pick(rng, symbol),))
            return ParseTree(symbol, tuple(expand(s) for s in self._pick(rng, symbol)))

        try:
            return expand(self.start)
        except OverflowError:
            return None

    def sample_corpus(self, rng, n):
        trees = []
        while len(trees) < n:
            tree = self.sample(rng)
            if tree is not None:
                trees.append(tree)
        return trees

    def sample_lengths(self, rng, lengths):
        """One tree per requested length, by rejection on the yield length."""
        wanted = {}
        for length in lengths:
            wanted[length] = wanted.get(length, 0) + 1
        found = {length: [] for length in wanted}
        for _ in range(MAX_LENGTH_TRIES):
            tree = self.sample(rng)
            if tree is None:
                continue
            n = len(tree.leaves())
            if len(found.get(n, ())) < wanted.get(n, 0):
                found[n].append(tree)
                if all(len(found[k]) == wanted[k] for k in wanted):
                    break
        else:
            raise RuntimeError(f"could not sample the lengths {sorted(wanted)}")
        iters = {length: iter(trees) for length, trees in found.items()}
        return [next(iters[length]) for length in lengths]


# parse_long: 8 nonterminals x 5 expansions.  Recursion through S, NP, VP and
# CP yields 10-18 token sentences often enough for rejection sampling, and
# words shared between tags keep the chart ambiguous.
LONG_RULES = {
    "S": [(("NP", "VP"), 4), (("NP", "VP", "PP"), 2), (("DP", "NP", "VP"), 2),
          (("S", "c", "S"), 1), (("NP", "d", "VP"), 2)],
    "NP": [(("n",), 5), (("AP", "n"), 3), (("NP", "PP"), 1), (("QP", "NP"), 1),
           (("n", "n"), 2)],
    "VP": [(("v",), 3), (("v", "NP"), 4), (("d", "VP"), 2), (("VP", "PP"), 1),
           (("v", "CP"), 1)],
    "PP": [(("p", "NP"), 5), (("p", "n"), 2), (("p", "NP", "DP"), 1),
           (("p", "QP", "n"), 1), (("p", "DP"), 1)],
    "AP": [(("a",), 5), (("a", "a"), 1), (("d", "a"), 2), (("AP", "u"), 1),
           (("QP", "a"), 1)],
    "DP": [(("d",), 4), (("d", "d"), 1), (("DP", "u"), 1), (("d", "p", "n"), 1),
           (("d", "a"), 1)],
    "CP": [(("u", "S"), 2), (("NP", "VP", "u"), 2), (("u", "NP", "VP"), 1),
           (("c", "VP"), 2), (("u", "VP"), 1)],
    "QP": [(("m",), 3), (("m", "u"), 1), (("m", "m"), 1), (("QP", "u"), 1),
           (("d", "m"), 1)],
}
LONG_LEXICON = {
    "n": [(w, 1) for w in ("na", "nb", "nc", "nd", "ne", "nf", "nv", "nm")],
    "v": [(w, 1) for w in ("va", "vb", "vc", "vd", "nv", "vu")],
    "a": [(w, 1) for w in ("aa", "ab", "ac", "ad", "da")],
    "d": [(w, 1) for w in ("da", "db", "dc", "dd")],
    "p": [(w, 1) for w in ("pa", "pb", "pc", "vu")],
    "c": [(w, 1) for w in ("ca", "cb")],
    "u": [(w, 1) for w in ("ua", "ub", "vu")],
    "m": [(w, 1) for w in ("ma", "mb", "nm")],
}


def long_grammar():
    return Pcfg("S", LONG_RULES, LONG_LEXICON)


def wide_grammar(shift=False):
    """A flat, acyclic grammar of WIDE_NONTERMINALS x WIDE_EXPANSIONS rules.

    The rule set is fixed (it does not depend on the workload seed) so every
    seed scores against a reference of the same width.  ``shift`` keeps the
    rules but reverses their weights, giving a candidate domain whose rule
    distribution differs from the reference.
    """
    shape = random.Random("perfbench:wide-grammar")
    pos = [f"t{i}" for i in range(WIDE_TAGS)]
    labels = [f"X{i}" for i in range(WIDE_NONTERMINALS)]
    rules = {"ROOT": [((label,), 1) for label in labels[:10]]}
    for i, label in enumerate(labels):
        deeper = labels[i + 1:]
        options = set()
        while len(options) < WIDE_EXPANSIONS:
            rhs = []
            for _ in range(shape.choice((2, 2, 3))):
                if deeper and shape.random() < 0.3:
                    rhs.append(shape.choice(deeper))
                else:
                    rhs.append(shape.choice(pos))
            options.add(tuple(rhs))
        ordered = sorted(options)
        weights = [1.0 / (rank + 1) for rank in range(WIDE_EXPANSIONS)]
        if shift:
            weights.reverse()
        rules[label] = list(zip(ordered, weights))
    lexicon = {
        tag: [(f"{tag}w{j}", 1.0 / (j + 1)) for j in range(WIDE_WORDS)] for tag in pos
    }
    return Pcfg("ROOT", rules, lexicon)


# prepare_treebank: constituency trees in a Penn-like scheme, with syllable
# tokens that the target lexicon re-segments.
TREEBANK_RULES = {
    "IP": [(("NP", "VP"), 5), (("ADVP", "NP", "VP"), 2), (("NP", "VP", "PU"), 3),
           (("NP", "ADVP", "VP", "PU"), 1), (("IP", "PU", "IP"), 1)],
    "NP": [(("NN",), 4), (("JJ", "NN"), 2), (("NN", "NN"), 3), (("QP", "NN"), 2),
           (("NP", "X"), 1)],
    "VP": [(("VV",), 3), (("VV", "NP"), 5), (("ADVP", "VV", "NP"), 2),
           (("VV", "VV"), 1)],
    "QP": [(("CD", "M"), 3), (("CD",), 1), (("CD", "CD", "M"), 1)],
    "ADVP": [(("AD",), 3), (("AD", "AD"), 1)],
    "X": [(("NN", "NN"), 1), (("JJ",), 1)],
}
_SYLLABLES = ("ba", "ku", "to", "mi", "re", "sa", "no", "li", "de", "fu")


def _syllable_lexicon(tag_seed, count, length):
    shape = random.Random(f"perfbench:syllables:{tag_seed}")
    return sorted({
        "".join(shape.choice(_SYLLABLES) for _ in range(length)) for _ in range(count)
    })


def treebank_grammar():
    def weighted(tokens):
        return [(t, 1.0 / (i + 1) ** 0.5) for i, t in enumerate(tokens)]

    one = list(_SYLLABLES)
    lexicon = {
        "NN": weighted(one + _syllable_lexicon("NN", 12, 2)),
        "VV": weighted(one[:6] + _syllable_lexicon("VV", 6, 2)),
        "JJ": weighted(one[3:8] + _syllable_lexicon("JJ", 4, 2)),
        "AD": weighted(one[5:] + _syllable_lexicon("AD", 3, 2)),
        "CD": weighted(["yi", "er", "san", "yier"]),
        "M": weighted(["ge", "zhi", "ben"]),
        "PU": weighted(["，", "。"]),
    }
    return Pcfg("IP", TREEBANK_RULES, lexicon)


def target_lexicon():
    """Target-convention words: syllable pairs and triples, plus the unsplit
    syllables that are words on their own."""
    words = set(_SYLLABLES[:7])
    words.update(_syllable_lexicon("target2", 40, 2))
    words.update(_syllable_lexicon("target3", 25, 3))
    words.update(["yi", "er", "san", "ge", "zhi", "ben", "，", "。"])
    return Lexicon(sorted(words))


def split_table():
    """Decompositions of the two-syllable source words into syllables."""
    entries = {}
    for tag in ("NN", "VV", "JJ", "AD"):
        for word in _syllable_lexicon(tag, 12, 2):
            entries[word] = (word[:2], word[2:])
    entries["yier"] = ("yi", "er")
    return SplitTable(entries)


def sps_inventory():
    return LabelInventory(
        sps_labels=frozenset({"s", "subj", "pred", "obj", "att", "adv"}),
        pos_labels=frozenset({"n", "v", "a", "d", "m", "w"}),
    )


def mapping_table():
    """Penn-like labels to SPS labels.  QP maps to the POS label ``m`` over
    internal nodes, so POS normalization has nodes to splice; ``X`` has no
    rule of its own and takes the default label."""

    def rule(priority, parent, children=None, rewrite=None, child_rewrites=None):
        return MappingRule(
            parent_pattern=parent,
            child_pattern=None if children is None else tuple(children),
            parent_rewrite=rewrite,
            child_rewrites=None if child_rewrites is None else tuple(child_rewrites),
            priority=priority,
        )

    rules = [
        rule(100, "IP", ("NP", "VP"), "s", ("subj", "pred")),
        rule(99, "IP", ("NP", "VP", "PU"), "s", ("subj", "pred", None)),
        rule(98, "IP", ("ADVP", "NP", "VP"), "s", ("adv", "subj", "pred")),
        rule(97, "IP", ("NP", "ADVP", "VP", "PU"), "s", ("subj", "adv", "pred", None)),
        rule(96, "IP", ("IP", "PU", "IP"), "s", ("s", None, "s")),
        rule(90, "VP", ("VV", "NP"), "pred", (None, "obj")),
        rule(89, "VP", ("ADVP", "VV", "NP"), "pred", ("adv", None, "obj")),
        rule(70, "IP", None, "s"),
        rule(60, "NP", None, "obj"),
        rule(59, "VP", None, "pred"),
        rule(58, "ADVP", None, "adv"),
        rule(57, "QP", None, "m"),
        rule(50, "NN", None, "n"),
        rule(49, "VV", None, "v"),
        rule(48, "JJ", None, "a"),
        rule(47, "AD", None, "d"),
        rule(46, "CD", None, "m"),
        rule(45, "M", None, "m"),
        rule(44, "PU", None, "w"),
    ]
    return MappingTable(rules=rules, default_label="att")
