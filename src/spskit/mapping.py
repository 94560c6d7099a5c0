"""Rule-table conversion of constituency trees into SPS trees.

A mapping rule matches one local configuration: a parent label plus,
optionally, the ordered labels of its children ("*" matches any single
label; omitting the child sequence matches any children).  The rewrite
assigns an SPS label to the node itself and/or to each matched child
position.  Conversion is a top-down relabeling: node shape and leaf tokens
never change.  Labels assigned by the parent's rule win over the node's own
rewrite; nodes left with no assignment fall back to the table's default
label, or raise in strict mode.  Every label a table holds must re-read from
a tree's bracketing, as a token must.

``convert_corpus`` is the one entry point, for one tree as for a corpus.  A
one-token preterminal's conversion depends only on its label, its token and
the label its parent's rule assigned it, so it converts each distinct such
triple once per call and hands the same node to every repeat, counting the
repeat's fallback again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import MappingTableError, UnmappedNodeError
from .treebank import ParseTree, _is_token, read_json

__all__ = ["MappingRule", "MappingTable", "convert_corpus", "ConversionReport"]

WILDCARD = "*"


@dataclass(frozen=True)
class MappingRule:
    parent_pattern: str
    child_pattern: tuple | None  # None matches any child sequence
    parent_rewrite: str | None
    child_rewrites: tuple | None  # aligned with child_pattern; None entries keep
    priority: int

    def __post_init__(self):
        if self.child_pattern is not None and len(self.child_pattern) == 0:
            raise MappingTableError("child pattern must have at least one element")
        if self.child_rewrites is not None:
            if self.child_pattern is None:
                raise MappingTableError(
                    "child rewrites require an explicit child pattern"
                )
            if len(self.child_rewrites) != len(self.child_pattern):
                raise MappingTableError(
                    "child rewrites must align with the child pattern"
                )

    def matches(self, node):
        if self.parent_pattern != WILDCARD and self.parent_pattern != node.label:
            return False
        if self.child_pattern is None:
            return True
        if len(self.child_pattern) != len(node.children):
            return False
        for pat, child in zip(self.child_pattern, node.children):
            if pat == WILDCARD:
                continue
            label = child.label if isinstance(child, ParseTree) else child
            if pat != label:
                return False
        return True


@dataclass
class MappingTable:
    rules: list
    default_label: str
    strict: bool = False

    def __post_init__(self):
        if not self.rules:
            raise MappingTableError("mapping table has no rules")
        priorities = [r.priority for r in self.rules]
        seen = Counter(priorities)
        dupes = sorted(p for p, c in seen.items() if c > 1)
        if dupes:
            raise MappingTableError(
                "duplicate priorities: " + ", ".join(map(str, dupes))
            )
        # Highest priority first, so the first match wins.
        self.rules = sorted(self.rules, key=lambda r: -r.priority)

    def best_match(self, node):
        for rule in self.rules:
            if rule.matches(node):
                return rule
        return None

    @classmethod
    def from_json(cls, path):
        """Load a table file: {"default_label": ..., "strict"?: ..., "rules": [...]}

        Each rule entry: {"pattern": {"parent": L, "children"?: [...]},
        "rewrite": {"parent"?: L, "children"?: [...]}, "priority": N}.
        Child rewrite entries may be null to leave that child to its own rule.
        A value of the wrong type is a MappingTableError naming the key, and
        the rule's index for a rule's key.
        """
        data = read_json(path)
        table = f"mapping table {path}"
        _object(table, "the file", data)
        try:
            if not isinstance(data["rules"], list):
                raise MappingTableError(
                    f"{table}: 'rules' must be a list, got {data['rules']!r}"
                )
            rules = []
            for index, entry in enumerate(data["rules"]):
                where = f"{table} rule {index}"
                _object(where, "the entry", entry)
                pattern = _object(where, "'pattern'", entry["pattern"])
                rewrite = _object(where, "'rewrite'", entry.get("rewrite", {}))
                parent = _label(where, "pattern 'parent'", pattern["parent"])
                parent_rewrite = _label(
                    where, "rewrite 'parent'", rewrite.get("parent"), nullable=True
                )
                priority = entry["priority"]
                if not isinstance(priority, int) or isinstance(priority, bool):
                    raise MappingTableError(
                        f"{where}: 'priority' must be an integer, got {priority!r}"
                    )
                child_pattern = _child_labels(
                    where, "pattern 'children'", pattern.get("children")
                )
                child_rewrites = _child_labels(
                    where, "rewrite 'children'", rewrite.get("children"), nullable=True
                )
                rules.append(
                    MappingRule(
                        parent_pattern=parent,
                        child_pattern=child_pattern,
                        parent_rewrite=parent_rewrite,
                        child_rewrites=child_rewrites,
                        priority=priority,
                    )
                )
            strict = data.get("strict", False)
            if not isinstance(strict, bool):
                raise MappingTableError(
                    f"{table}: 'strict' must be true or false, got {strict!r}"
                )
            return cls(
                rules=rules,
                default_label=_label(table, "'default_label'", data["default_label"]),
                strict=strict,
            )
        except KeyError as e:
            raise MappingTableError(f"{table} missing key {e}") from e


def _object(where, key, value):
    """``value`` if a JSON object; else a MappingTableError naming ``where``
    and ``key``."""
    if isinstance(value, dict):
        return value
    raise MappingTableError(f"{where}: {key} must be an object, got {value!r}")


def _label(where, key, value, nullable=False):
    """``value`` if a label, or None when ``nullable``; else a
    MappingTableError naming ``where`` and ``key``.

    A label is a non-empty string with no whitespace and no ASCII parenthesis,
    so that a tree holding it re-reads from its bracketing.
    """
    if (isinstance(value, str) and _is_token(value)) or (nullable and value is None):
        return value
    expected = "a label or null" if nullable else "a label"
    raise MappingTableError(
        f"{where}: {key} must be {expected} (a non-empty string with no whitespace "
        f"and no ASCII parenthesis), got {value!r}"
    )


def _child_labels(where, key, children, nullable=False):
    """A rule's ``children`` list as a tuple of labels, None when absent.

    ``nullable`` lets an entry be null; anything else that is not a label is
    a MappingTableError naming ``where`` and ``key``.
    """
    if children is None:
        return None
    if not isinstance(children, list):
        raise MappingTableError(f"{where}: {key} must be a list, got {children!r}")
    return tuple(_label(where, f"{key} entry", c, nullable) for c in children)


@dataclass
class ConversionReport:
    """Per-corpus accounting of default-label fallbacks."""

    trees: int = 0
    fallback_count: int = 0
    fallbacks_by_label: Counter = field(default_factory=Counter)


def _convert_node(node, assigned, table, report, preterminals):
    """The relabeled copy of ``node``'s subtree; ``assigned`` is the label
    its parent's rule gave its position, if any.

    ``preterminals`` maps each one-token preterminal's (label, token,
    assigned) to its copy and whether its label fell back to the default, so
    a repeat skips the rule scan and the node build.
    """
    children = node.children
    if len(children) == 1 and isinstance(children[0], str):
        key = (node.label, children[0], assigned)
        known = preterminals.get(key)
        if known is None:
            label, fell_back = _new_label(node, assigned, table.best_match(node), table)
            known = preterminals[key] = (ParseTree(label, children), fell_back)
        copy, fell_back = known
        if fell_back:
            _count_fallback(report, node.label)
        return copy

    rule = table.best_match(node)
    label, fell_back = _new_label(node, assigned, rule, table)
    if fell_back:
        _count_fallback(report, node.label)
    child_assignments = [None] * len(children)
    if rule is not None and rule.child_rewrites is not None:
        child_assignments = list(rule.child_rewrites)

    new_children = []
    for child, child_assigned in zip(children, child_assignments):
        if isinstance(child, str):
            new_children.append(child)
        else:
            new_children.append(
                _convert_node(child, child_assigned, table, report, preterminals)
            )
    return ParseTree(label, tuple(new_children))


def _new_label(node, assigned, rule, table):
    """``node``'s converted label and whether it fell back to the default;
    UnmappedNodeError instead of a fallback in strict mode."""
    label = assigned
    if label is None and rule is not None:
        label = rule.parent_rewrite
    if label is not None:
        return label, False
    if table.strict:
        raise UnmappedNodeError(f"no rule assigns a label to node {node.label!r}")
    return table.default_label, True


def _count_fallback(report, label):
    report.fallback_count += 1
    report.fallbacks_by_label[label] += 1


def convert_corpus(trees, table):
    """(relabeled trees, ``ConversionReport``) of ``trees`` under the rule table.

    Top-down: at each node the highest-priority matching rule (matched on the
    original labels) relabels the node and its child positions.  Leaf tokens
    are untouched and tree shape is preserved.  Strict-mode errors carry the
    failing tree index.
    """
    report = ConversionReport()
    preterminals = {}
    converted = []
    for index, tree in enumerate(trees):
        report.trees += 1
        try:
            converted.append(_convert_node(tree, None, table, report, preterminals))
        except UnmappedNodeError as e:
            raise UnmappedNodeError(f"tree {index}: {e}") from e
    return converted, report
