"""Trainable PCFG-CKY parsing backend with confidence scores.

Training builds a maximum-likelihood grammar from trees in standard form
(every token alone under a preterminal).  Productions with three or more
children are right-binarized with reversible "|<...>" intermediate labels;
unary productions are kept as-is and handled by a Viterbi unary-closure step
in the chart, so grammar families stay compact.  Smoothing adds ``alpha`` to
each observed shape's relative frequency before renormalizing, which keeps
the model invariant under count-proportional duplication of the treebank.
Within each preterminal's family, tokens seen no more than ``unk_threshold``
times fold into an UNK class, and every preterminal keeps an UNK slot, so a
word frequent under one tag is still reachable under every other tag.
Training folds trees into integer counts in one walk; ``PcfgBackend.train``
keeps the counts of its last call and, given a list that extends that call's
list, folds in only the new trees, estimating the same model as a fresh count.

Parsing returns the Viterbi tree with a length-normalized confidence,
``exp(logprob / n_tokens)``, in (0, 1]; a sentence outside the grammar's
coverage gets a designated flat fallback tree with confidence 0.  The chart
looks binary rules up by left child, then by right child, so a left label
that starts no rule is skipped before the right cell is read.  A token's
closed width-1 cell depends only on its lexical class (the token itself when
some tag keeps it, else UNK), so each model caches those cells, at most one
per kept token plus one for UNK.  The winning derivation is read back from
the backpointers straight into the debinarized tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ModelFormatError, int_at_least, non_negative_number
from .rules import SyntacticRule
from .treebank import ParseTree, Sentence, _is_token, read_json, write_json

__all__ = [
    "TrainConfig",
    "ParserModel",
    "PseudoTree",
    "PcfgBackend",
    "train",
    "parse",
]

UNK = "<unk>"
BIN_OPEN = "|<"
BIN_CLOSE = ">"
RESERVED = ("|", "<", ">")

MODEL_VERSION = 1
PROB_TOL = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.01
    unk_threshold: int = 1

    def __post_init__(self):
        non_negative_number("alpha", self.alpha)
        int_at_least("unk_threshold", self.unk_threshold, 0)


@dataclass(frozen=True)
class PseudoTree:
    """A candidate sentence with its predicted tree and parser confidence."""

    __slots__ = ("sentence", "tree", "confidence")

    sentence: Sentence
    tree: ParseTree
    confidence: float

    def __post_init__(self):
        if tuple(self.tree.leaves()) != self.sentence.tokens:
            raise ValueError("tree leaves do not match the sentence tokens")
        if not math.isfinite(self.confidence) or not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence!r} outside [0, 1]")


@dataclass
class ParserModel:
    """A smoothed PCFG, not edited after construction.  The chart's lookup
    tables are derived from it as plain attributes, which ``==`` and
    ``repr`` leave out."""

    roots: dict                 # label -> probability
    rules: dict                 # SyntacticRule (unary or binary) -> probability
    lexical: dict               # (preterminal label, token class) -> probability
    unk_threshold: int
    alpha: float
    fallback_root: str = ""
    fallback_pos: str = ""

    def __post_init__(self):
        by_left = {}            # left child -> right child -> [(parent, logp)]
        by_unary_child = {}
        for rule, prob in self.rules.items():
            option = (rule.parent, math.log(prob))
            if len(rule.children) == 1:
                by_unary_child.setdefault(rule.children[0], []).append(option)
            elif len(rule.children) == 2:
                left, right = rule.children
                by_left.setdefault(left, {}).setdefault(right, []).append(option)
        for by_right in by_left.values():
            for options in by_right.values():
                options.sort()
        for options in by_unary_child.values():
            options.sort()
        self._by_left = by_left
        self._by_unary_child = by_unary_child

        exact = {}
        unk = []
        for (label, cls), prob in self.lexical.items():
            if cls == UNK:
                unk.append((label, math.log(prob)))
            else:
                exact.setdefault(cls, []).append((label, math.log(prob)))
        for options in exact.values():
            options.sort()
        unk.sort()
        self._exact = exact
        self._unk = unk
        self._lex_cells = {}

    def validate(self):
        """Check probability invariants; raises ModelFormatError on failure.

        Rule families and lexical families are separate conditional tables
        (the label inventory keeps constituent and POS labels disjoint).
        """
        families = {}
        for rule, prob in self.rules.items():
            families.setdefault(("rule", rule.parent), []).append(prob)
        for (label, _), prob in self.lexical.items():
            families.setdefault(("lex", label), []).append(prob)
        families[("root", "")] = list(self.roots.values())
        for family, probs in families.items():
            if not all(0.0 < p < math.inf for p in probs):  # NaN fails too
                raise ModelFormatError(f"family {family!r} has a prob outside (0, inf)")
            if abs(sum(probs) - 1.0) > PROB_TOL:
                raise ModelFormatError(
                    f"family {family!r} sums to {sum(probs)!r}, not 1"
                )

    def save(self, path):
        data = {
            "version": MODEL_VERSION,
            "alpha": self.alpha,
            "unk_threshold": self.unk_threshold,
            "fallback_root": self.fallback_root,
            "fallback_pos": self.fallback_pos,
            "roots": self.roots,
            "rules": [
                [r.parent, list(r.children), p] for r, p in sorted(self.rules.items())
            ],
            "lexical": [
                [label, cls, p] for (label, cls), p in sorted(self.lexical.items())
            ],
        }
        write_json(path, data)

    @classmethod
    def load(cls, path):
        """Read a model saved by ``save``; ModelFormatError names the path of
        a file that is not one."""
        data = read_json(path, ModelFormatError)
        try:
            if not isinstance(data, dict):
                raise TypeError("not a JSON object")
            if data.get("version") != MODEL_VERSION:
                raise ValueError(f"unsupported model version {data.get('version')!r}")
            config = TrainConfig(alpha=data["alpha"], unk_threshold=data["unk_threshold"])
            model = cls(
                roots={_string(k): _prob(p) for k, p in data["roots"].items()},
                rules={
                    SyntacticRule(_string(p), _children(kids)): _prob(prob)
                    for p, kids, prob in data["rules"]
                },
                lexical={
                    (_string(label), _string(cls)): _prob(p)
                    for label, cls, p in data["lexical"]
                },
                unk_threshold=config.unk_threshold,
                alpha=config.alpha,
                fallback_root=_string(data["fallback_root"]),
                fallback_pos=_string(data["fallback_pos"]),
            )
            model.validate()
        except (
            AttributeError, ConfigError, KeyError, TypeError, ValueError, ModelFormatError
        ) as e:
            raise ModelFormatError(f"malformed model file {path}: {e}") from e
        return model


def _string(value):
    """``value`` if it can be a label or token of a tree: every string a model
    holds is one or the other."""
    if not (isinstance(value, str) and _is_token(value)):
        raise ValueError(
            f"{value!r} is not a non-empty string free of whitespace and ASCII "
            "parentheses"
        )
    return value


def _children(value):
    """A rule's children: the chart reads only unary and binary rules."""
    if not isinstance(value, list) or not 1 <= len(value) <= 2:
        raise ValueError(f"rule children {value!r} are not a list of one or two labels")
    return tuple(map(_string, value))


def _prob(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"probability {value!r} is not a number")
    return value


def _smooth(counts, alpha):
    """Additive smoothing on relative frequencies over the observed shapes."""
    total = sum(counts.values())
    denom = 1.0 + alpha * len(counts)
    return {item: (c / total + alpha) / denom for item, c in counts.items()}


def _count_node(node, rule_counts, tag_token_counts):
    """Check a node, then count its right-binarized productions in preorder:
    A -> c1 c2 .. ck (k > 2) counts as A -> c1 A|<c2,..,ck>,
    A|<c2,..,ck> -> c2 A|<c3,..,ck>, .., A|<c(k-1),ck> -> c(k-1) ck."""
    label = node.label
    children = node.children
    if len(children) > 1 and any(isinstance(c, str) for c in children):
        raise ValueError(
            f"node {label!r} mixes tokens and subtrees or holds several "
            "tokens; the parser requires one token per preterminal"
        )
    if any(marker in label for marker in RESERVED):
        raise ValueError(
            f"label {label!r} uses a reserved character ({RESERVED})"
        )
    if isinstance(children[0], str):
        counts = tag_token_counts.setdefault(label, {})
        counts[children[0]] = counts.get(children[0], 0) + 1
        return
    labels = [c.label for c in children]
    parent = label
    for i in range(len(children) - 2):
        tail = label + BIN_OPEN + ",".join(labels[i + 1:]) + BIN_CLOSE
        key = (parent, (labels[i], tail))
        rule_counts[key] = rule_counts.get(key, 0) + 1
        _count_node(children[i], rule_counts, tag_token_counts)
        parent = tail
    key = (parent, tuple(labels[-2:]))
    rule_counts[key] = rule_counts.get(key, 0) + 1
    for child in children[-2:]:
        _count_node(child, rule_counts, tag_token_counts)


class _TrainCounts:
    """The integer counts a model is estimated from, keys in first-seen order.

    Folding trees in one call or over several in sequence gives the same
    counts in the same order, so the estimated model is the same bit for bit.
    """

    def __init__(self):
        self.roots = {}
        self.rules = {}         # (parent, child labels) -> count
        self.tags = {}          # preterminal label -> token -> count

    def add(self, trees):
        """Fold ``trees`` in.

        Raises ValueError at the first tree the parser cannot train on,
        leaving the counts partly updated.
        """
        for tree in trees:
            _count_node(tree, self.rules, self.tags)
            self.roots[tree.label] = self.roots.get(tree.label, 0) + 1

    def model(self, config):
        """The smoothed PCFG of these counts."""
        root_counts = self.roots
        if not root_counts:
            raise ValueError("cannot train on an empty treebank")

        by_parent = {}
        for (parent, children), n in self.rules.items():
            by_parent.setdefault(parent, {})[SyntacticRule(parent, children)] = n
        rules = {}
        for counts in by_parent.values():
            rules.update(_smooth(counts, config.alpha))

        # Tokens rare under a tag fold into that tag's UNK class, and every tag
        # keeps an UNK slot regardless, so no token is ever untaggable.
        lexical = {}
        fallback_pos = ""
        best_pos_count = -1
        for label, counts in self.tags.items():
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

        model = ParserModel(
            roots=roots,
            rules=rules,
            lexical=lexical,
            unk_threshold=config.unk_threshold,
            alpha=config.alpha,
            fallback_root=fallback_root,
            fallback_pos=fallback_pos,
        )
        model.validate()
        return model


def train(treebank, config=None):
    """Estimate a smoothed PCFG from trees; deterministic for a given input."""
    return PcfgBackend(config).train(treebank)


def _fallback_tree(model, sentence):
    leaves = tuple(
        ParseTree(model.fallback_pos, (token,)) for token in sentence.tokens
    )
    return ParseTree(model.fallback_root, leaves)


def _close_unaries(model, cell):
    """Viterbi unary closure of one chart cell, in place.

    Only strict score improvements replace an entry: a probability-1 unary
    pair could otherwise swap backpointers into a cycle on equal scores.
    Following a cycle multiplies probabilities <= 1, so the loop terminates.
    Ties go to the child inserted first, so cell insertion order matters.
    """
    by_unary_child = model._by_unary_child
    while True:
        improved = False
        for child_label, (score, _) in list(cell.items()):
            for parent, logp in by_unary_child.get(child_label, ()):
                candidate = score + logp
                incumbent = cell.get(parent)
                if incumbent is None or candidate > incumbent[0]:
                    cell[parent] = (candidate, (child_label,))
                    improved = True
        if not improved:
            return


def _lexical_cell(model, token):
    """The closed width-1 cell of a token, shared with its lexical class.

    The cached cell goes into charts as it is, so nothing may mutate it.
    """
    key = token if token in model._exact else UNK
    cell = model._lex_cells.get(key)
    if cell is None:
        # Tags that kept the token use its own class; every other tag stays
        # reachable through its UNK slot.
        cell = {label: (logp, ()) for label, logp in model._exact.get(key, ())}
        for label, logp in model._unk:
            cell.setdefault(label, (logp, ()))
        _close_unaries(model, cell)
        model._lex_cells[key] = cell
    return cell


def _read_back(chart, tokens, label, start, end):
    """The children of ``label``'s node over the span, with the children of
    every binarization node spliced in its place."""
    back = chart[start][end][label][1]
    if not back:
        return (tokens[start],)
    if len(back) == 1:
        spans = ((back[0], start, end),)
    else:
        split, left, right = back
        spans = ((left, start, split), (right, split, end))
    out = []
    for child, lo, hi in spans:
        if BIN_OPEN in child:
            out.extend(_read_back(chart, tokens, child, lo, hi))
        else:
            out.append(ParseTree(child, _read_back(chart, tokens, child, lo, hi)))
    return tuple(out)


def parse(model, sentence):
    """Viterbi-parse one sentence; never raises on coverage gaps.

    Ties are broken deterministically: the lexicographically smallest
    backpointer among equal-probability derivations.
    """
    tokens = sentence.tokens
    n = len(tokens)
    by_left = model._by_left

    # chart[start][end] maps label -> (logprob, backpointer); a backpointer
    # is () for a token, (child,) for a unary step and (split, left, right)
    # for a binary one, which doubles as the tie-break key.
    chart = [[None] * (n + 1) for _ in range(n)]
    for i, token in enumerate(tokens):
        chart[i][i + 1] = _lexical_cell(model, token)

    for width in range(2, n + 1):
        for start in range(0, n - width + 1):
            end = start + width
            row = chart[start]
            cell = {}
            for split in range(start + 1, end):
                right_cell = chart[split][end]
                if not right_cell:
                    continue
                for left_label, (lscore, _) in row[split].items():
                    by_right = by_left.get(left_label)
                    if by_right is None:
                        continue
                    for right_label, (rscore, _) in right_cell.items():
                        options = by_right.get(right_label)
                        if options is None:
                            continue
                        base = lscore + rscore
                        back = (split, left_label, right_label)
                        for parent, logp in options:
                            score = base + logp
                            incumbent = cell.get(parent)
                            if (
                                incumbent is None
                                or score > incumbent[0]
                                or (score == incumbent[0] and back < incumbent[1])
                            ):
                                cell[parent] = (score, back)
            _close_unaries(model, cell)
            row[end] = cell

    best = None
    for label, (score, _) in chart[0][n].items():
        root_prob = model.roots.get(label)
        if root_prob is None:
            continue
        total = score + math.log(root_prob)
        if best is None or total > best[0] or (total == best[0] and label < best[1]):
            best = (total, label)
    if best is None:
        return PseudoTree(sentence, _fallback_tree(model, sentence), 0.0)

    tree = ParseTree(best[1], _read_back(chart, tokens, best[1], 0, n))
    confidence = math.exp(best[0] / n)
    return PseudoTree(sentence, tree, confidence)


class PcfgBackend:
    """The pluggable parsing interface: train(trees) and parse(model, sentence).

    These two are all a self-training backend needs; parsing runs in one
    process, one sentence at a time.

    ``train`` keeps the tree list and counts of its last successful call.  A
    list that extends that one (the same tree objects first) folds in only
    its new trees, as the self-training loop's growing training set does;
    any other list, or any list after a failing call, is counted from
    scratch.  Either way the model equals a fresh count of the whole list.
    """

    name = "pcfg"

    def __init__(self, config=None):
        self.config = config or TrainConfig()
        self._last = None       # (trees, counts) of the last train

    def train(self, treebank):
        trees = list(treebank)
        counts, new = _TrainCounts(), trees
        last, self._last = self._last, None     # a failing call leaves no cache
        if last is not None:
            last_trees, last_counts = last
            if len(last_trees) <= len(trees) and all(
                a is b for a, b in zip(last_trees, trees)
            ):
                counts, new = last_counts, trees[len(last_trees):]
        counts.add(new)
        model = counts.model(self.config)
        self._last = (trees, counts)
        return model

    def parse(self, model, sentence):
        return parse(model, sentence)

    def parse_pool(self, model, sentences, jobs=1):
        """Parse many sentences in order; ``jobs`` stays for existing callers
        and must be 1."""
        if jobs != 1:
            raise ValueError(
                f"jobs must be 1 (parsing runs in one process), got {jobs!r}"
            )
        return [parse(model, s) for s in sentences]
