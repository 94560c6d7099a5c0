"""Bracketed syntax trees with a partitioned SPS/POS label inventory.

Trees are immutable: a ParseTree is a labeled node whose children are either
ParseTree nodes or bare token strings (leaves).  Tree transforms therefore
return the input's own nodes wherever they change nothing
(``normalize_pos_nodes`` here, segmentation transfer in ``segmentation``), so
outputs share their unchanged subtrees with their inputs.  The interchange
format is Penn-style bracketing, one tree per line, UTF-8, single-space
separated.  Tokens and labels must not contain whitespace or ASCII
parentheses (CJK corpora use the full-width variants, so this costs nothing
in practice); ParseTree and Sentence reject such tokens, and ParseTree such
labels, so every tree re-reads from its bracketing.  Every input file is
opened by ``read_text`` here, and every output written by
``write_text_atomic``.

Because trees are immutable, equal nodes may be one object: within one pass
over a corpus, ``read_treebank`` and ``mapping.convert_corpus`` each build
one node per distinct one-token preterminal (``_preterminal``) and hand it
to every position that holds it.  A node therefore stands for its value, not
its position, and no caller may key anything on a node's identity; only
``PseudoTree`` candidates are keyed by ``id``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from importlib import resources

from .errors import LabelError, RootPromotionError, SpsError, TreeSyntaxError

__all__ = [
    "ParseTree",
    "LabelInventory",
    "Sentence",
    "parse_bracketed",
    "serialize",
    "normalize_pos_nodes",
    "validate_tree",
    "read_text",
    "read_json",
    "read_lines",
    "read_treebank",
    "write_treebank",
    "write_text_atomic",
    "write_json",
    "default_inventory",
]


_TOKEN_RULE = "tokens must be non-empty, whitespace-free and hold no ASCII parenthesis"
_LABEL_RULE = (
    "labels, like tokens, must be non-empty, whitespace-free and hold no ASCII "
    "parenthesis"
)


def _is_token(text):
    """Whether ``text`` can be a leaf or a label and still re-read from its
    bracketing."""
    # No letter or digit is whitespace or a parenthesis, so most labels and
    # tokens pass on isalnum() alone.  str.split() splits at exactly the
    # characters str.isspace() accepts.
    return text.isalnum() or (
        text.split() == [text] and "(" not in text and ")" not in text
    )


# ParseTree, Sentence, PseudoTree and SyntacticRule are slotted: a corpus holds
# one per node or item, and none needs a __dict__.  Each declares __slots__ in
# its body: ``dataclass(slots=True)`` would build a new class whose frozen
# __setattr__ still names the old one, so setting an attribute that is not a
# field would raise TypeError rather than FrozenInstanceError.  Unpickling sets
# each slot through the frozen __setattr__ and fails, so none may be pickled.
@dataclass(frozen=True)
class ParseTree:
    """A labeled ordered tree node; the root node stands for the whole tree.

    ``children`` holds sub-nodes and/or token strings.  A node whose children
    are all strings is a preterminal (typically a POS tag over one token).
    """

    __slots__ = ("label", "children")

    label: str
    children: tuple

    def __post_init__(self):
        if not (isinstance(self.label, str) and _is_token(self.label)):
            raise TreeSyntaxError(f"bad node label {self.label!r}: {_LABEL_RULE}")
        if not self.children:
            raise TreeSyntaxError(f"node {self.label!r} has no children")
        for child in self.children:
            if isinstance(child, str):
                if not _is_token(child):
                    raise TreeSyntaxError(
                        f"bad token {child!r} under {self.label!r}: {_TOKEN_RULE}"
                    )
            elif not isinstance(child, ParseTree):
                raise TreeSyntaxError(
                    f"child of {self.label!r} must be ParseTree or str, got "
                    f"{type(child).__name__}"
                )

    @property
    def is_preterminal(self):
        return all(isinstance(c, str) for c in self.children)

    def leaves(self):
        """Leaf tokens, left to right."""
        out = []
        for child in self.children:
            if isinstance(child, str):
                out.append(child)
            else:
                out.extend(child.leaves())
        return out

    def subtrees(self):
        """All internal nodes, preorder."""
        yield self
        for child in self.children:
            if isinstance(child, ParseTree):
                yield from child.subtrees()

    def sentence(self):
        return Sentence(tuple(self.leaves()))

    def __str__(self):
        return serialize(self)


@dataclass(frozen=True)
class Sentence:
    """An ordered, non-empty sequence of tokens."""

    __slots__ = ("tokens",)

    tokens: tuple

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must have at least one token")
        for tok in self.tokens:
            if not _is_token(tok):
                raise ValueError(f"bad token {tok!r}: {_TOKEN_RULE}")

    @classmethod
    def from_text(cls, text):
        """Split whitespace-separated text into a Sentence."""
        return cls(tuple(text.split()))

    def text(self):
        return " ".join(self.tokens)

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


@dataclass(frozen=True)
class LabelInventory:
    """Disjoint sets of SPS constituent labels and POS labels."""

    sps_labels: frozenset
    pos_labels: frozenset

    def __post_init__(self):
        object.__setattr__(self, "sps_labels", frozenset(self.sps_labels))
        object.__setattr__(self, "pos_labels", frozenset(self.pos_labels))
        overlap = self.sps_labels & self.pos_labels
        if overlap:
            raise LabelError(
                "sps_labels and pos_labels overlap: " + ", ".join(sorted(overlap))
            )
        if not self.sps_labels and not self.pos_labels:
            raise LabelError("inventory is empty")

    def __contains__(self, label):
        return label in self.sps_labels or label in self.pos_labels

    @classmethod
    def from_json(cls, path):
        return _inventory(read_json(path), f"inventory file {path}")


def _inventory(data, where):
    """The LabelInventory of parsed JSON ``data``: an object whose
    ``sps_labels`` and ``pos_labels`` are lists of non-empty strings.  Anything
    else is a LabelError naming ``where`` and the key."""
    if not isinstance(data, dict):
        raise LabelError(f"{where} must hold an object, got {type(data).__name__}")
    labels = []
    for key in ("sps_labels", "pos_labels"):
        if key not in data:
            raise LabelError(f"{where} missing key {key!r}")
        value = data[key]
        if not isinstance(value, list) or not all(
            isinstance(label, str) and label for label in value
        ):
            raise LabelError(
                f"{where}: {key!r} must be a list of non-empty strings, got {value!r}"
            )
        labels.append(frozenset(value))
    return LabelInventory(*labels)


def default_inventory():
    """Inventory shipped with the package: SPS roles plus a small POS tagset."""
    text = resources.files("spskit").joinpath("data/default_inventory.json").read_text(
        encoding="utf-8"
    )
    return _inventory(json.loads(text), "shipped inventory")


def _preterminal(table, label, token):
    """The preterminal ``(label token)`` held in ``table`` under (label,
    token), built and added on first use.

    One pass over a corpus keeps one table, so it builds each distinct
    preterminal once and hands that node to every position that holds it.
    """
    key = (label, token)
    node = table.get(key)
    if node is None:
        node = table[key] = ParseTree(label, (token,))
    return node


def parse_bracketed(text, inventory=None):
    """Parse one balanced bracketed expression into a ParseTree.

    When ``inventory`` is given, every node label must belong to it.
    """
    return _parse_bracketed(text, inventory, {})


def _parse_bracketed(text, inventory, strings):
    """parse_bracketed, keeping one copy of each label and token in ``strings``.

    ``strings`` maps a string to the copy already in use, and a (label, token)
    pair to the one-token preterminal already built, so equal labels, tokens
    and such preterminals across every tree parsed with the same dict are one
    object.
    """
    tokens = [
        strings.setdefault(token, token)
        for token in text.replace("(", " ( ").replace(")", " ) ").split()
    ]
    if not tokens:
        raise TreeSyntaxError("empty input")
    if tokens[0] != "(":
        raise TreeSyntaxError(f"expected '(' but found {tokens[0]!r}")
    end = len(tokens)
    enclosing = []      # (label, children) of the unclosed nodes around the current one
    children = None
    pos = 0
    while True:
        if pos >= end:
            raise TreeSyntaxError("unbalanced brackets: missing ')'")
        token = tokens[pos]
        pos += 1
        if token == "(":
            if pos >= end or tokens[pos] in "()":
                raise TreeSyntaxError("node is missing a label")
            if children is not None:
                enclosing.append((label, children))
            label = tokens[pos]
            children = []
            pos += 1
        elif token == ")":
            if not children:
                raise TreeSyntaxError(f"node {label!r} has no children")
            if len(children) == 1 and isinstance(children[0], str):
                tree = _preterminal(strings, label, children[0])
            else:
                tree = ParseTree(label, tuple(children))
            if not enclosing:
                break
            label, children = enclosing.pop()
            children.append(tree)
        else:
            children.append(token)
    if pos != end:
        raise TreeSyntaxError("unbalanced brackets: trailing input")
    if inventory is not None:
        validate_tree(tree, inventory)
    return tree


def serialize(tree):
    """Render a tree as single-spaced Penn-style bracketing.

    Round-trips through parse_bracketed for any valid tree.
    """
    parts = []
    for child in tree.children:
        parts.append(child if isinstance(child, str) else serialize(child))
    return "(" + tree.label + " " + " ".join(parts) + ")"


def validate_tree(tree, inventory):
    """Raise LabelError naming every node label absent from the inventory."""
    unknown = sorted(
        {node.label for node in tree.subtrees() if node.label not in inventory}
    )
    if unknown:
        raise LabelError("unknown labels: " + ", ".join(unknown))


def normalize_pos_nodes(tree, inventory):
    """Splice out POS-labeled nodes that dominate only internal nodes.

    Applied bottom-up until fixpoint: a node whose label is a POS tag and
    whose children are all internal nodes is deleted and its children take
    its place in the parent.  POS nodes directly above a token are kept.
    A deletable root with a single child is replaced by that child; with
    several children there is nowhere to promote them, which is an error.
    Subtrees with nothing to splice are returned as they are, not copied.
    """
    pos_labels = inventory.pos_labels
    root = _splice(tree, pos_labels)
    while _deletable(root, pos_labels):
        if len(root.children) > 1:
            raise RootPromotionError(
                f"root {root.label!r} is a deletable POS node with "
                f"{len(root.children)} children and no parent to receive them"
            )
        root = root.children[0]
    return root


def _deletable(node, pos_labels):
    return node.label in pos_labels and not any(
        isinstance(c, str) for c in node.children
    )


def _splice(node, pos_labels):
    """``node`` with every deletable POS node below it spliced out, bottom-up;
    ``node`` itself when nothing below it changes."""
    new_children = []
    changed = False
    for child in node.children:
        if isinstance(child, str):
            new_children.append(child)
            continue
        new = _splice(child, pos_labels)
        if _deletable(new, pos_labels):
            new_children.extend(new.children)
            changed = True
        else:
            new_children.append(new)
            changed = changed or new is not child
    return ParseTree(node.label, tuple(new_children)) if changed else node


def read_text(path):
    """The text of input file ``path``, every line ending read as ``\\n`` and
    a leading byte-order mark dropped.

    A path that is missing or a directory, a file that cannot be read, and
    one that is not UTF-8 are each an SpsError naming ``path``.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise SpsError(f"input file not found: {path}") from None
    except OSError:
        raise SpsError(f"input file not readable: {path}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SpsError(
            f"input file not UTF-8: {path} ({e.reason} at byte {e.start})"
        ) from None
    # The mark is dropped after decoding: "utf-8-sig" would count error
    # offsets from after it.  As in text mode, "\r\n" and a lone "\r" end a line.
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def read_json(path, error=SpsError):
    """The parsed JSON of input file ``path``; text that is no JSON is an
    ``error`` naming ``path``."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{path} is not JSON: {e}") from None


def read_lines(path, parse):
    """``parse(lineno, line)`` of each non-blank line of input file ``path``,
    stripped, in order; ``lineno`` is 1-based.

    Lines end at ``"\\n"`` only: ``str.splitlines`` would also end one at
    ``\\x1c`` or ``\\u2028``, say, which a tree line may hold as whitespace.
    An SpsError or ValueError that ``parse`` raises is raised again as the
    same type, reading ``path:lineno: message``.
    """
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if line:
            try:
                out.append(parse(lineno, line))
            except (SpsError, ValueError) as e:
                raise type(e)(f"{path}:{lineno}: {e}") from None
    return out


def read_treebank(path, inventory=None):
    """Read a one-tree-per-line file; blank lines are ignored.

    A syntax or label error reads ``path:line: message``.  Equal labels and
    tokens are one string object, and equal one-token preterminals one node,
    across the file's trees.
    """
    strings = {}
    return read_lines(path, lambda _, text: _parse_bracketed(text, inventory, strings))


def write_treebank(trees, path):
    write_text_atomic(path, "".join(serialize(tree) + "\n" for tree in trees))


# mkstemp creates files readable by their owner only; outputs get the mode a
# plain open() for writing would give them.  The umask can only be read by
# setting it, so it is read once, here.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def write_text_atomic(path, text):
    """Write UTF-8 ``text`` to ``path`` through a temporary file and a rename.

    Readers see the old contents or the new ones, never a partial file; on
    failure the temporary file is removed and ``path`` is left untouched.  An
    OSError about a file names ``path``, not the temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            os.fchmod(f.fileno(), 0o666 & ~_UMASK)
            f.write(text)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.errno is not None:
            raise type(e)(e.errno, e.strerror, os.fspath(path)) from None
        raise


def write_json(path, data):
    """Write ``data`` atomically as indented JSON with sorted keys; a dataclass
    anywhere in ``data`` is written as the object of its fields."""
    text = json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True, default=_fields)
    write_text_atomic(path, text + "\n")


def _fields(obj):
    # Not dataclasses.asdict, which rebuilds a Counter field from its items.
    if not is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return {f.name: getattr(obj, f.name) for f in fields(obj)}
