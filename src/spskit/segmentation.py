"""Word-segmentation granularity transfer between treebank conventions.

``transfer_corpus`` brings a treebank to a target lexicon's word granularity
in three steps over each tree:

1. Split: coarse tokens listed in a user-supplied decomposition table (the
   treebank's dynamic-word annotations) are broken into their finest parts.
2. Greedy merge: adjacent leaves are re-merged into target-lexicon words,
   prefix status checked before word status, in sweeps repeated until no
   merge commits.
3. Word-first resolve: merges whose first part is itself a lexicon word,
   where word-first precedence disagrees with the greedy pass, are undone
   into the word-first segmentation of their parts and surfaced as
   misaligned for human review.  Word-first sweeps then run to fixpoint; a
   leaf that still cannot be placed is flagged, a failed merge attempt as
   misaligned and a token that is neither word nor prefix as unmatched.
   Nothing is repaired silently.

All three steps edit one mutable working tree in place, and merged leaves
carry their provenance on it.  One walk over the input yields both the
working tree and its leaf list, each leaf paired with its parent; every step
keeps that list in step with the tree as it splits, merges and undoes leaves,
so no step walks the tree again.  Each tree is converted to that form once
and back once; converting back returns the input's own node for every
subtree the steps left unchanged.  An input may hold one node at several
positions (``treebank`` shares equal preterminals); the working form has one
unit per position, so a step changes only the position it edits.

All operations require standard treebank form: every token sits alone under a
preterminal node.  Merges only join leaves whose preterminals share a parent,
and a merged leaf inherits the POS label of its first constituent.  Character
content is preserved exactly by every operation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .treebank import ParseTree, read_lines

__all__ = [
    "Lexicon",
    "SplitTable",
    "TransferReport",
    "MergeRecord",
    "transfer_corpus",
]

DEFAULT_LOOKAHEAD = 3


class Lexicon:
    """A word list answering membership and strict-prefix queries.

    Both queries are hash lookups.  Strict prefixes are looked up in a set
    holding every ``w[:i]`` with ``1 <= i < len(w)``: one entry per distinct
    strict prefix, so at most the words' total character count.
    """

    def __init__(self, words):
        words = list(words)
        if not words or not all(words):
            raise ValueError("lexicon words must be non-empty")
        self.words = frozenset(words)
        self._prefixes = frozenset(
            w[:i] for w in self.words for i in range(1, len(w))
        )

    def __contains__(self, s):
        return s in self.words

    def __len__(self):
        return len(self.words)

    def is_strict_prefix(self, s):
        """True when some lexicon word extends ``s`` (s itself not counted)."""
        return s in self._prefixes

    @classmethod
    def from_file(cls, path):
        words = read_lines(path, lambda _, word: word)
        try:
            return cls(words)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


class SplitTable:
    """Decomposition table: coarse word -> ordered finest-granularity parts."""

    def __init__(self, entries):
        self.entries = {
            word: _checked_parts(word, parts) for word, parts in entries.items()
        }

    @classmethod
    def from_file(cls, path):
        """Two-column TSV: word TAB space-joined parts, one line per word."""
        first_lines = {}

        def entry(lineno, line):
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError("expected 'word<TAB>parts'")
            word, parts = fields
            parts = _checked_parts(word, parts.split())
            if word in first_lines:
                raise ValueError(
                    f"duplicate entry {word!r} (first on line {first_lines[word]})"
                )
            first_lines[word] = lineno
            return word, parts

        return cls(dict(read_lines(path, entry)))


def _checked_parts(word, parts):
    """``parts`` as a tuple, if non-empty parts that concatenate to ``word``."""
    parts = tuple(parts)
    if not parts or any(not p for p in parts):
        raise ValueError(f"entry {word!r} has empty parts")
    if "".join(parts) != word:
        raise ValueError(
            f"entry {word!r}: parts {parts!r} do not concatenate to the key"
        )
    return parts


@dataclass(frozen=True)
class MergeRecord:
    """One merged leaf of the output: its parts and their POS labels."""

    tree_index: int
    leaf_index: int
    parts: tuple
    pos_labels: tuple

    @property
    def surface(self):
        return "".join(self.parts)


@dataclass
class TransferReport:
    merged: int = 0
    split: int = 0
    misaligned: list = field(default_factory=list)
    unmatched_logged: list = field(default_factory=list)
    merges: list = field(default_factory=list)

# Mutable working form: _Unit is a preterminal (POS label over one token) and
# carries merge provenance; _Branch mirrors internal structure.  Both keep the
# ParseTree they were read from (``source``; None for units a split or the
# word-first undo made), so that _to_tree can hand back unchanged subtrees
# instead of rebuilding them.


class _Unit:
    __slots__ = ("label", "token", "parts", "part_pos", "source")

    def __init__(self, label, token, parts=None, part_pos=None, source=None):
        self.label = label
        self.token = token
        self.parts = parts        # tuple of constituent tokens when merged
        self.part_pos = part_pos  # their POS labels, aligned with parts
        self.source = source


class _Branch:
    __slots__ = ("label", "children", "source")

    def __init__(self, label, children, source):
        self.label = label
        self.children = children
        self.source = source


def _to_mutable(tree, units, container=None):
    """The working form of ``tree``.

    Appends each of its units to ``units`` in leaf order, paired with its
    container: the parent branch, None for a single-unit tree.
    """
    children = tree.children
    if len(children) == 1 and isinstance(children[0], str):
        unit = _Unit(tree.label, children[0], source=tree)
        units.append((unit, container))
        return unit
    branch = _Branch(tree.label, [], tree)
    for child in children:
        if isinstance(child, str):
            if tree.is_preterminal:
                raise ValueError(
                    f"node {tree.label!r} holds {len(children)} tokens; "
                    "segmentation requires one token per preterminal"
                )
            raise ValueError(
                f"node {tree.label!r} mixes tokens and subtrees; "
                "segmentation requires one token per preterminal"
            )
        branch.children.append(_to_mutable(child, units, branch))
    return branch


def _to_tree(node):
    """The ParseTree of a working node, reusing every unchanged source node.

    No stage edits a label, so a unit is unchanged when its token is, and a
    branch when its rebuilt children are exactly its source's children.
    """
    source = node.source
    if isinstance(node, _Unit):
        if source is not None and source.children[0] == node.token:
            return source
        return ParseTree(node.label, (node.token,))
    children = tuple(_to_tree(c) for c in node.children)
    if len(children) == len(source.children) and all(
        map(operator.is_, children, source.children)
    ):
        return source
    return ParseTree(node.label, children)


def _unit_parts(unit):
    if unit.parts is not None:
        return unit.parts, unit.part_pos
    return (unit.token,), (unit.label,)


def _longest_match(tokens, lex, lookahead):
    """Greedy longest concatenation of tokens[0..lookahead] that is a word.

    Returns (extra_tokens_merged, attempted_surface).  Zero extras means no
    word was reached; ``attempted`` can still be longer than the first token
    when extension went on without ever reaching a word.  Extension stops at
    the first concatenation that is no strict prefix of a lexicon word.
    """
    attempted = tokens[0]
    extra = 0
    for j in range(1, min(len(tokens), lookahead + 1)):
        attempted += tokens[j]
        if attempted in lex:
            extra = j
        if not lex.is_strict_prefix(attempted):
            break
    return extra, attempted


def _attempt_merge(units, i, lex, lookahead):
    """Longest match over units[i..] that share the parent of units[i]."""
    container = units[i][1]
    run = [units[i][0].token]
    if container is not None:
        for unit, parent in units[i + 1:i + 1 + lookahead]:
            if parent is not container:
                break
            run.append(unit.token)
    return _longest_match(run, lex, lookahead)


def _commit_merge(units, i, extra):
    """Fold units[i+1..i+extra] into units[i] and drop them from ``units``."""
    unit, container = units[i]
    parts, part_pos = _unit_parts(unit)
    for nxt, _ in units[i + 1:i + 1 + extra]:
        nparts, npos = _unit_parts(nxt)
        parts += nparts
        part_pos += npos
        container.children.remove(nxt)
    del units[i + 1:i + 1 + extra]
    unit.token = "".join(parts)
    unit.parts = parts
    unit.part_pos = part_pos


def _edit_sweeps(units, lex, lookahead, word_first):
    """Run merge sweeps over ``units`` (from _to_mutable) to fixpoint.

    _commit_merge keeps ``units`` in step with the tree, so one leaf walk
    serves every sweep and the caller's flag sweep.  Returns the number of
    commits.
    """
    merged = 0
    while True:
        before = merged
        i = 0
        while i < len(units):
            token = units[i][0].token
            if lex.is_strict_prefix(token) and not (word_first and token in lex):
                extra, _ = _attempt_merge(units, i, lex, lookahead)
                if extra:
                    _commit_merge(units, i, extra)
                    merged += 1
            i += 1
        if merged == before:
            return merged


def _flag_sweep(units, lex, lookahead, tree_index, report):
    """Collect flags and merge records at merge fixpoint; words are never flagged."""
    for i, (unit, _) in enumerate(units):
        token = unit.token
        if unit.parts is not None:
            report.merges.append(MergeRecord(tree_index, i, unit.parts, unit.part_pos))
        if token in lex:
            continue
        if lex.is_strict_prefix(token):
            extra, attempted = _attempt_merge(units, i, lex, lookahead)
            if extra == 0 and attempted != token:
                # A same-parent neighbor allowed an attempt that never
                # reached a lexicon word.
                report.misaligned.append((tree_index, i, attempted))
            continue
        report.unmatched_logged.append((tree_index, token))


def _split(units, table):
    """Split every unit listed in the table in place; returns how many.

    A one-part entry splits nothing, so its unit is left alone and not
    counted.  ``units`` (from _to_mutable) is kept in step with the tree.
    """
    out = []
    split = 0
    for unit, container in units:
        parts = table.entries.get(unit.token)
        if parts is None or len(parts) == 1:
            out.append((unit, container))
            continue
        if container is None:
            raise ValueError(
                "cannot split a single-node tree: the parts would need a parent"
            )
        pieces = [_Unit(unit.label, part) for part in parts]
        pos = container.children.index(unit)
        container.children[pos:pos + 1] = pieces
        out.extend((piece, container) for piece in pieces)
        split += 1
    units[:] = out
    return split


def _word_first_segment(parts, part_pos, lex, lookahead):
    """Segment merged parts under word-first precedence into new units.

    Pieces that are neither words nor prefixes are kept verbatim; the
    caller's final flag sweep is the single place such leaves get logged.
    """
    pieces = []
    i = 0
    while i < len(parts):
        extra = 0
        if parts[i] not in lex and lex.is_strict_prefix(parts[i]):
            extra, _ = _longest_match(parts[i:], lex, lookahead)
        if extra:
            end = i + extra + 1
            pieces.append(
                _Unit(part_pos[i], "".join(parts[i:end]), parts[i:end], part_pos[i:end])
            )
        else:
            pieces.append(_Unit(part_pos[i], parts[i]))
        i += extra + 1
    return pieces


def _resolve(units, lex, lookahead, tree_index, report):
    """The word-first pass on a tree whose merged units carry provenance.

    Undoes every merged unit whose first part is a lexicon word, last unit
    first so that leaf indices stay valid, then runs the word-first sweeps
    and the flag sweep.  ``units`` (from _to_mutable) is kept in step with the
    tree throughout.  Returns the number of merges the sweeps commit.
    """
    for i in range(len(units) - 1, -1, -1):
        unit, container = units[i]
        if unit.parts is None or unit.parts[0] not in lex:
            continue
        report.misaligned.append((tree_index, i, unit.token))
        # Merges join only leaves that share a parent: container is a branch.
        pieces = _word_first_segment(unit.parts, unit.part_pos, lex, lookahead)
        pos = container.children.index(unit)
        container.children[pos:pos + 1] = pieces
        units[i:i + 1] = [(piece, container) for piece in pieces]
        report.split += 1
    merged = _edit_sweeps(units, lex, lookahead, word_first=True)
    _flag_sweep(units, lex, lookahead, tree_index, report)
    return merged


def transfer_corpus(trees, lex, split_table=None, lookahead=DEFAULT_LOOKAHEAD):
    """Full granularity transfer over a corpus; reports are merged per tree.

    Per tree, on one working tree: split to the finest granularity, merge
    greedily, then resolve ambiguous merges word-first.  The aggregated report
    carries the final flags (post-resolution) and one merge record per
    surviving merged leaf.
    """
    if isinstance(lookahead, bool) or not isinstance(lookahead, int) or lookahead < 1:
        raise ValueError(f"lookahead must be >= 1 and an int, got {lookahead!r}")
    out = []
    report = TransferReport()
    for index, tree in enumerate(trees):
        units = []
        root = _to_mutable(tree, units)
        if split_table is not None:
            report.split += _split(units, split_table)
        report.merged += _edit_sweeps(units, lex, lookahead, word_first=False)
        report.merged += _resolve(units, lex, lookahead, index, report)
        out.append(_to_tree(root))
    return out, report
