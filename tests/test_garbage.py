"""The tree walks free what they make by reference counting alone.

A nested function that calls itself holds itself through its closure cell,
so each call leaves a function <-> cell cycle, and the cycle keeps the
call's locals (for ``parse``, the whole chart) until the cyclic collector
runs.  The stages below run with the collector off and must leave it
nothing to find; the source check keeps such closures out of ``spskit``.
"""

import ast
import gc
from pathlib import Path

from spskit import selftrain, synthetic
from spskit.evaluation import score_corpus
from spskit.mapping import MappingRule, MappingTable, convert_corpus
from spskit.parser import parse, train
from spskit.rules import extract_corpus_rules
from spskit.segmentation import Lexicon, SplitTable, transfer_corpus
from spskit.treebank import LabelInventory, normalize_pos_nodes, read_treebank

SOURCE = Path(__file__).resolve().parent.parent / "src" / "spskit"


def nested_functions(node, inside_function=False):
    """Every function defined inside another function under ``node``."""
    for child in ast.iter_child_nodes(node):
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if inside_function and is_function:
            yield child
        yield from nested_functions(
            child, inside_function or is_function or isinstance(child, ast.Lambda)
        )


def self_referencing_closures(text, filename):
    """``filename:line: name`` of each nested function that names itself."""
    return [
        f"{filename}:{function.lineno}: {function.name}"
        for function in nested_functions(ast.parse(text, filename))
        if any(
            isinstance(node, ast.Name) and node.id == function.name
            for node in ast.walk(function)
        )
    ]


def test_no_nested_function_refers_to_itself():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += self_referencing_closures(path.read_text(encoding="utf-8"), str(path))
    assert not found, "self-referencing closures:\n" + "\n".join(found)


def test_the_source_check_finds_a_recursive_closure():
    text = (
        "def outer(tree):\n"
        "    def fine(x):\n"
        "        return x\n"
        "    def walk(node):\n"
        "        return [walk(c) for c in node]\n"
        "    return walk(tree)\n"
        "def recursive(node):\n"
        "    return [recursive(c) for c in node]\n"
    )
    assert self_referencing_closures(text, "m.py") == ["m.py:4: walk"]


def garbage_left(stage):
    """Objects the cyclic collector finds after ``stage()`` ran with it off.

    The stage runs once before, so that imports and caches a first call
    fills are not counted.
    """
    stage()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        stage()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_a_self_training_run_leaves_no_garbage():
    experiment = synthetic.cross_domain_experiment(
        seed=1, iterations=2, pool_size=30, k=6, out_dir=None
    )
    assert garbage_left(lambda: selftrain.run(experiment)) == 0


def test_treebank_preparation_leaves_no_garbage(tmp_path):
    path = tmp_path / "treebank.txt"
    path.write_text(
        "(IP (NP (NN 圣诞) (NN 节)) (VP (VV 惹火) (NP (NN 武侠小说) (NN 儿了))))\n"
        "(IP (NP (NN 儿了) (PU ，)) (VP (VV 圣诞节)))\n",
        encoding="utf-8",
    )
    table = MappingTable(
        rules=[
            MappingRule("IP", ("NP", "VP"), "s", ("subj", "pred"), 10),
            MappingRule("NN", None, "n", None, 1),
            MappingRule("VV", None, "v", None, 0),
        ],
        default_label="x",
    )
    # "x" is a POS label, so every unmapped node over subtrees is spliced out.
    inventory = LabelInventory(
        sps_labels={"s", "subj", "pred"}, pos_labels={"n", "v", "x"}
    )
    lexicon = Lexicon(["圣诞节", "武侠", "小说", "火儿"])
    split_table = SplitTable({"武侠小说": ["武侠", "小说"], "惹火": ["惹", "火"]})

    def prepare():
        converted, _ = convert_corpus(read_treebank(path), table)
        normalized = [normalize_pos_nodes(t, inventory) for t in converted]
        transferred, report = transfer_corpus(normalized, lexicon, split_table)
        assert report.split and report.merged
        return transferred

    assert garbage_left(prepare) == 0


def test_training_parsing_and_scoring_leave_no_garbage():
    trees = synthetic.sample_corpus(synthetic.source_grammar(), 60, 3, "garbage")
    model = train(trees)
    assert garbage_left(lambda: train(trees)) == 0
    assert garbage_left(lambda: extract_corpus_rules(trees)) == 0

    def parse_and_score():
        preds = [parse(model, t.sentence()).tree for t in trees]
        return score_corpus(preds, trees)

    assert garbage_left(parse_and_score) == 0
