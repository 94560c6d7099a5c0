"""Word-segmentation granularity transfer between treebank conventions.

The transfer runs in three stages over each tree:

1. ``split_finest`` breaks coarse tokens into their finest parts using a
   user-supplied decomposition table (the treebank's dynamic-word annotations).
2. ``merge_pass`` greedily re-merges adjacent leaves into target-lexicon words,
   prefix status checked before word status.  Failed merge attempts and
   unknown tokens are never repaired silently; they are flagged in the report.
3. ``resolve_ambiguous`` re-examines the flagged leaves and the committed
   merges with the reversed precedence (word status first).  Merges the two
   policies disagree on are undone and surfaced as misalignments for human
   review; flags that the word-first reading clears disappear.

All operations require standard treebank form: every token sits alone under a
preterminal node.  Merges only join leaves whose preterminals share a parent,
and a merged leaf inherits the POS label of its first constituent.  Character
content is preserved exactly by every operation.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field

from .treebank import ParseTree, write_text_atomic

__all__ = [
    "Lexicon",
    "SplitTable",
    "TransferReport",
    "MergeRecord",
    "split_finest",
    "merge_pass",
    "resolve_ambiguous",
    "transfer_corpus",
]

DEFAULT_LOOKAHEAD = 3


class Lexicon:
    """A word list answering membership and strict-prefix queries.

    Strict-prefix lookup is a bisect into the sorted word list: every word
    extending ``s`` sorts immediately after it, so one probe suffices.
    """

    def __init__(self, words):
        cleaned = {w for w in words if w}
        if len(cleaned) != len(set(words)) or not cleaned:
            raise ValueError("lexicon words must be non-empty and unique")
        self.words = frozenset(cleaned)
        self._sorted = sorted(cleaned)

    def __contains__(self, s):
        return s in self.words

    def __len__(self):
        return len(self.words)

    def is_strict_prefix(self, s):
        """True when some lexicon word extends ``s`` (s itself not counted)."""
        if not s:
            return False
        i = bisect.bisect_right(self._sorted, s)
        return i < len(self._sorted) and self._sorted[i].startswith(s)

    @classmethod
    def from_file(cls, path):
        words = []
        with open(path, encoding="utf-8") as f:
            for line in f:
                word = line.strip()
                if word:
                    words.append(word)
        return cls(words)


class SplitTable:
    """Decomposition table: coarse word -> ordered finest-granularity parts."""

    def __init__(self, entries):
        self.entries = {}
        for word, parts in entries.items():
            parts = tuple(parts)
            if not parts or any(not p for p in parts):
                raise ValueError(f"entry {word!r} has empty parts")
            if "".join(parts) != word:
                raise ValueError(
                    f"entry {word!r}: parts {parts!r} do not concatenate to the key"
                )
            self.entries[word] = parts

    def __contains__(self, word):
        return word in self.entries

    def __getitem__(self, word):
        return self.entries[word]

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_file(cls, path):
        """Two-column TSV: word TAB space-joined parts."""
        entries = {}
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                try:
                    word, parts = line.split("\t")
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'word<TAB>parts'"
                    ) from None
                entries[word] = tuple(parts.split())
        return cls(entries)


@dataclass(frozen=True)
class MergeRecord:
    """Provenance of one committed merge, enough to reverse it."""

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

    def merge_with(self, other):
        self.merged += other.merged
        self.split += other.split
        self.misaligned.extend(other.misaligned)
        self.unmatched_logged.extend(other.unmatched_logged)
        self.merges.extend(other.merges)

    def to_dict(self):
        return {
            "merged": self.merged,
            "split": self.split,
            "misaligned": [list(entry) for entry in self.misaligned],
            "unmatched_logged": [list(entry) for entry in self.unmatched_logged],
            "merges": [
                {
                    "tree_index": r.tree_index,
                    "leaf_index": r.leaf_index,
                    "parts": list(r.parts),
                    "pos_labels": list(r.pos_labels),
                }
                for r in self.merges
            ],
        }

    def to_json(self, path):
        text = json.dumps(self.to_dict(), ensure_ascii=False, indent=2)
        write_text_atomic(path, text + "\n")


# Mutable working form: _Unit is a preterminal (POS label over one token) and
# carries merge provenance; _Branch mirrors internal structure.


class _Unit:
    __slots__ = ("label", "token", "parts", "part_pos")

    def __init__(self, label, token, parts=None, part_pos=None):
        self.label = label
        self.token = token
        self.parts = parts        # tuple of constituent tokens when merged
        self.part_pos = part_pos  # their POS labels, aligned with parts


class _Branch:
    __slots__ = ("label", "children")

    def __init__(self, label, children):
        self.label = label
        self.children = children


def _to_mutable(tree):
    if tree.is_preterminal:
        if len(tree.children) != 1:
            raise ValueError(
                f"node {tree.label!r} holds {len(tree.children)} tokens; "
                "segmentation requires one token per preterminal"
            )
        return _Unit(tree.label, tree.children[0])
    children = []
    for child in tree.children:
        if isinstance(child, str):
            raise ValueError(
                f"node {tree.label!r} mixes tokens and subtrees; "
                "segmentation requires one token per preterminal"
            )
        children.append(_to_mutable(child))
    return _Branch(tree.label, children)


def _to_tree(node):
    if isinstance(node, _Unit):
        return ParseTree(node.label, (node.token,))
    return ParseTree(node.label, tuple(_to_tree(c) for c in node.children))


def _units(root):
    """(unit, container) pairs in leaf order; container is the parent branch."""
    out = []

    def walk(node):
        if isinstance(node, _Unit):  # single-unit tree
            out.append((node, None))
            return
        for child in node.children:
            if isinstance(child, _Unit):
                out.append((child, node))
            else:
                walk(child)

    walk(root)
    return out


def _unit_parts(unit):
    if unit.parts is not None:
        return unit.parts, unit.part_pos
    return (unit.token,), (unit.label,)


def _attempt_merge(units, i, lex, lookahead):
    """Greedy longest concatenation of units[i..] that is a lexicon word.

    Returns (extra_units_merged, attempted_surface).  Zero extras means the
    attempt failed; ``attempted can still be longer than the token when the
    neighbors allowed extension without ever reaching a word.
    """
    unit, container = units[i]
    concat = unit.token
    attempted = concat
    best = 0
    for j in range(1, lookahead + 1):
        if i + j >= len(units):
            break
        nxt, nxt_container = units[i + j]
        if nxt_container is not container or container is None:
            break
        concat += nxt.token
        attempted = concat
        if concat in lex:
            best = j
        if not lex.is_strict_prefix(concat):
            break
    return best, attempted


def _commit_merge(units, i, extra):
    """Fold units[i+1..i+extra] into units[i]; returns the merged unit."""
    unit, container = units[i]
    parts, part_pos = _unit_parts(unit)
    for j in range(1, extra + 1):
        nxt, _ = units[i + j]
        nparts, npos = _unit_parts(nxt)
        parts += nparts
        part_pos += npos
        container.children.remove(nxt)
    unit.token = "".join(parts)
    unit.parts = parts
    unit.part_pos = part_pos
    return unit


def _edit_sweeps(root, lex, lookahead, word_first):
    """Run merge sweeps to fixpoint; returns the number of commits."""
    merged = 0
    while True:
        edited = False
        units = _units(root)
        i = 0
        while i < len(units):
            unit, _ = units[i]
            token = unit.token
            is_word = token in lex
            is_prefix = lex.is_strict_prefix(token)
            try_merge = is_prefix and not (is_word and word_first)
            if try_merge:
                extra, _attempted = _attempt_merge(units, i, lex, lookahead)
                if extra:
                    _commit_merge(units, i, extra)
                    merged += 1
                    edited = True
                    units = _units(root)
                    i += 1
                    continue
            i += 1
        if not edited:
            break
    return merged


def _flag_sweep(root, lex, lookahead, word_first, tree_index, report):
    """Collect misalignment/unmatched flags from a tree at merge fixpoint."""
    units = _units(root)
    for i, (unit, _) in enumerate(units):
        token = unit.token
        is_word = token in lex
        is_prefix = lex.is_strict_prefix(token)
        if is_word and (word_first or not is_prefix):
            continue
        if is_prefix:
            extra, attempted = _attempt_merge(units, i, lex, lookahead)
            if extra == 0 and attempted != token:
                # A same-parent neighbor allowed an attempt that never
                # reached a lexicon word.
                report.misaligned.append((tree_index, i, attempted))
            continue
        report.unmatched_logged.append((tree_index, token))


def _collect_merge_records(root, tree_index):
    records = []
    for i, (unit, _) in enumerate(_units(root)):
        if unit.parts is not None:
            records.append(
                MergeRecord(tree_index, i, unit.parts, unit.part_pos)
            )
    return records


def split_finest(tree, table):
    """Replace every leaf listed in the table by one leaf per part.

    The preterminal is replicated for each part, so POS labels are kept.
    Leaves without a table entry are untouched.
    """
    root = _to_mutable(tree)
    if isinstance(root, _Unit):
        if root.token in table:
            raise ValueError(
                "cannot split a single-node tree: the parts would need a parent"
            )
        return _to_tree(root)
    for unit, container in _units(root):
        if unit.token in table:
            pieces = [_Unit(unit.label, part) for part in table[unit.token]]
            pos = container.children.index(unit)
            container.children[pos:pos + 1] = pieces
    return _to_tree(root)


def merge_pass(tree, lex, tree_index=0, lookahead=DEFAULT_LOOKAHEAD):
    """First merge pass: prefix status checked before word status.

    A leaf that is a strict prefix of some lexicon word and has a same-parent
    right neighbor is greedily extended (longest match within ``lookahead``
    extra leaves); the merge commits only when the concatenation is a lexicon
    word.  Attempts that never reach a word are reported as misaligned; leaves
    that are neither words nor prefixes are logged as unmatched.  Sweeps repeat
    until no merge commits.
    """
    root = _to_mutable(tree)
    report = TransferReport()
    report.merged = _edit_sweeps(root, lex, lookahead, word_first=False)
    _flag_sweep(root, lex, lookahead, False, tree_index, report)
    report.merges = _collect_merge_records(root, tree_index)
    return _to_tree(root), report


def _word_first_segment(parts, part_pos, lex, lookahead):
    """Segment merged parts under word-first precedence.

    Returns a list of (token, pos, parts, part_pos) pieces.  Pieces that are
    neither words nor prefixes are kept verbatim; the caller's final flag
    sweep is the single place such leaves get logged.
    """
    out = []
    i = 0
    while i < len(parts):
        token = parts[i]
        if token in lex:
            out.append((token, part_pos[i], None, None))
            i += 1
            continue
        if lex.is_strict_prefix(token):
            concat = token
            best = 0
            for j in range(1, lookahead + 1):
                if i + j >= len(parts):
                    break
                concat += parts[i + j]
                if concat in lex:
                    best = j
                if not lex.is_strict_prefix(concat):
                    break
            if best:
                seg = parts[i:i + best + 1]
                seg_pos = part_pos[i:i + best + 1]
                out.append(("".join(seg), part_pos[i], tuple(seg), tuple(seg_pos)))
                i += best + 1
                continue
        out.append((token, part_pos[i], None, None))
        i += 1
    return out


def resolve_ambiguous(
    tree, lex, merges=(), tree_index=0, lookahead=DEFAULT_LOOKAHEAD
):
    """Second pass with reversed precedence: word status before prefix status.

    Committed merges whose first constituent is itself a lexicon word are the
    ambiguous cases: the word-first reading disagrees with the greedy one.
    Such merges are undone in favor of the word-first segmentation of their
    parts and surfaced as misaligned for human annotation.  Remaining flagged
    leaves are then re-examined word-first; whatever still cannot be placed is
    a residual conflict (misaligned) or an unknown term (unmatched).
    """
    root = _to_mutable(tree)
    report = TransferReport()

    # Undo ambiguous merges, highest leaf index first so indices stay valid.
    for record in sorted(merges, key=lambda r: -r.leaf_index):
        units = _units(root)
        if record.leaf_index >= len(units):
            raise ValueError(f"merge record index {record.leaf_index} out of range")
        unit, container = units[record.leaf_index]
        if unit.token != record.surface:
            raise ValueError(
                f"merge record at leaf {record.leaf_index} does not match the "
                f"tree: {record.surface!r} vs {unit.token!r}"
            )
        if record.parts[0] not in lex:
            # Word-first precedence would commit the same merge; keep it and
            # restore its provenance on the rebuilt working tree.
            unit.parts = tuple(record.parts)
            unit.part_pos = tuple(record.pos_labels)
            continue
        report.misaligned.append((record.tree_index, record.leaf_index, unit.token))
        segments = _word_first_segment(
            record.parts, record.pos_labels, lex, lookahead
        )
        pieces = []
        for token, pos, seg_parts, seg_pos in segments:
            piece = _Unit(pos, token)
            piece.parts = seg_parts
            piece.part_pos = seg_pos
            pieces.append(piece)
        if container is None:
            raise ValueError("cannot split back a single-node tree")
        pos_in_parent = container.children.index(unit)
        container.children[pos_in_parent:pos_in_parent + 1] = pieces
        report.split += 1

    report.merged = _edit_sweeps(root, lex, lookahead, word_first=True)
    _flag_sweep(root, lex, lookahead, True, tree_index, report)
    report.merges = _collect_merge_records(root, tree_index)
    return _to_tree(root), report


def transfer_corpus(
    trees, lex, split_table=None, lookahead=DEFAULT_LOOKAHEAD
):
    """Full granularity transfer over a corpus; reports are merged per tree.

    Per tree: split to the finest granularity, merge greedily, then resolve
    ambiguous merges word-first.  The aggregated report carries the final
    flags (post-resolution) and one merge record per surviving merged leaf.
    """
    out = []
    total = TransferReport()
    for index, tree in enumerate(trees):
        report = TransferReport()
        if split_table is not None:
            report.split += sum(1 for leaf in tree.leaves() if leaf in split_table)
            tree = split_finest(tree, split_table)
        merged_tree, first = merge_pass(
            tree, lex, tree_index=index, lookahead=lookahead
        )
        final_tree, second = resolve_ambiguous(
            merged_tree,
            lex,
            merges=first.merges,
            tree_index=index,
            lookahead=lookahead,
        )
        report.merged = first.merged + second.merged
        report.split += second.split
        report.misaligned = second.misaligned
        report.unmatched_logged = second.unmatched_logged
        report.merges = second.merges
        out.append(final_tree)
        total.merge_with(report)
    return out, total
