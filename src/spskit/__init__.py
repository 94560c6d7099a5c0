"""Cross-domain Sentence Pattern Structure parsing toolkit.

Treebank conversion and normalization, word-segmentation granularity
transfer, syntactic-rule extraction with Jensen-Shannon instance selection,
a trainable PCFG-CKY parser backend, pluggable sentence generation, and an
iterative self-training orchestrator.
"""

from .errors import SpsError
from .evaluation import ScoreOptions, ScoreReport, score_corpus
from .generator import (
    GenerationBatch,
    MockPcfgGenerator,
    Pcfg,
    PromptConfig,
    PromptSpec,
    ServiceGenerator,
    corpus_stats,
    render_prompt,
    sample_prompt,
)
from .mapping import MappingRule, MappingTable, convert_corpus
from .parser import ParserModel, PcfgBackend, PseudoTree, TrainConfig, parse, train
from .rules import (
    RuleDistribution,
    SyntacticRule,
    extract_corpus_rules,
    extract_rules,
    instance_distance,
    js_divergence,
)
from .segmentation import (
    Lexicon,
    SplitTable,
    TransferReport,
    transfer_corpus,
)
from .selection import CriterionConfig, SelectionRefs, select, select_top_k
from .selftrain import Experiment, RunManifest, run, run_multiseed
from .treebank import (
    LabelInventory,
    ParseTree,
    Sentence,
    default_inventory,
    normalize_pos_nodes,
    parse_bracketed,
    read_treebank,
    serialize,
    write_treebank,
)

__version__ = "0.1.0"
