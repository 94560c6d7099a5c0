"""Target-domain sentence generation for self-training.

Each iteration the orchestrator samples a prompt (syntactic rules weighted by
corpus frequency, target-domain example sentences, and a Gaussian-sampled
length and rule count) and asks a backend for sentences.  Two backends ship:

* ``MockPcfgGenerator`` ancestrally samples a supplied PCFG, optionally
  steering derivations toward the prompted rules through a guide table built
  once per call, and returns the rules each derivation used.  It is
  stateless and bit-reproducible: the RNG for a call is derived from
  (backend seed, prompt hash), so repeated calls with the same prompt give
  identical batches and concurrent calls cannot interfere.
* ``ServiceGenerator`` POSTs a rendered prompt to a text-completion endpoint
  and splits the reply into sentences at whitespace.  Timeouts, connection
  errors and 5xx replies retry up to a cap and then surface, at one place, as
  a retriable error; an empty or garbled reply is an ``empty_generation``
  error.  Callers treat both as a smaller pool, never a crashed run.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import statistics
import string
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import requests

from .errors import (
    GenerationError,
    int_at_least,
    non_negative_number,
    probability,
)
from .rules import SyntacticRule, extract_corpus_rules, format_rule
from .seeding import substream
from .treebank import Sentence

__all__ = [
    "SourceStats",
    "PromptConfig",
    "PromptSpec",
    "GenerationBatch",
    "Pcfg",
    "MockPcfgGenerator",
    "ServiceGenerator",
    "corpus_stats",
    "sample_prompt",
    "render_prompt",
    "default_template",
]


@dataclass(frozen=True)
class SourceStats:
    """Length statistics and rule frequencies of the current training data."""

    mean_length: float
    rule_counts: Counter
    lengths: tuple = field(default=(), repr=False)  # per tree, in corpus order


def corpus_stats(trees, exclude_labels=(), base=None):
    """Stats of ``trees``; with ``base``, of base's corpus followed by ``trees``.

    Folding new trees into a ``base`` computed with the same ``exclude_labels``
    gives the same stats as recomputing them over the whole corpus, without
    re-extracting the trees already counted.
    """
    trees = list(trees)
    lengths = (base.lengths if base else ()) + tuple(len(t.leaves()) for t in trees)
    if not lengths:
        raise ValueError("cannot compute stats of an empty corpus")
    rule_counts = extract_corpus_rules(trees, exclude_labels=exclude_labels)
    return SourceStats(
        mean_length=statistics.fmean(lengths),
        rule_counts=base.rule_counts + rule_counts if base else rule_counts,
        lengths=lengths,
    )


@dataclass(frozen=True)
class PromptConfig:
    length_sigma: float | None = None      # None -> 0.25 * mean length
    min_length: int = 2
    max_rules: int = 8
    rule_count_mean: float | None = None   # None -> max_rules / 2
    example_count: int = 3

    def __post_init__(self):
        int_at_least("min_length", self.min_length, 2)  # PromptSpec's floor
        int_at_least("max_rules", self.max_rules, 1)
        int_at_least("example_count", self.example_count, 1)
        for key in ("length_sigma", "rule_count_mean"):
            value = getattr(self, key)
            if value is not None:
                non_negative_number(key, value)


@dataclass(frozen=True)
class PromptSpec:
    rules: tuple
    examples: tuple
    target_length: int
    rule_count: int

    def __post_init__(self):
        if len(self.rules) < 1:
            raise ValueError("a prompt needs at least one rule")
        if self.rule_count != len(self.rules):
            raise ValueError("rule_count must equal the number of rules")
        if self.target_length < 2:
            raise ValueError("target_length must be at least 2")
        if not self.examples:
            raise ValueError("a prompt needs at least one example sentence")


@dataclass(frozen=True)
class GenerationBatch:
    sentences: tuple
    provenance: dict
    derivations: tuple | None = None  # per-sentence rule sets, mock only


def _weighted_sample(rng, weighted_items, k):
    """k draws without replacement, probability proportional to weight."""
    pool = sorted(weighted_items)
    chosen = []
    for _ in range(min(k, len(pool))):
        total = float(sum(w for _, w in pool))
        x = rng.random() * total
        acc = 0.0
        pick = len(pool) - 1
        for idx, (_, w) in enumerate(pool):
            acc += w
            if x < acc:
                pick = idx
                break
        chosen.append(pool.pop(pick)[0])
    return chosen


def _gauss_int(rng, mean, sigma, lo, hi):
    return max(lo, min(hi, round(rng.gauss(mean, sigma))))


def sample_prompt(source_stats, target_examples, rng, config=None):
    """Draw one PromptSpec.

    Sentence length ~ round(Normal(source mean, sigma)) clamped to
    [min_length, 3 * mean]; the rule count uses the same mechanism clamped to
    [1, max_rules]; rules are drawn without replacement, weighted by their
    corpus frequency.
    """
    config = config or PromptConfig()
    target_examples = list(target_examples)
    if not target_examples:
        raise ValueError("empty example pool")
    if not source_stats.rule_counts:
        raise ValueError("source stats carry no rules to prompt with")

    mean = source_stats.mean_length
    sigma = config.length_sigma if config.length_sigma is not None else 0.25 * mean
    target_length = _gauss_int(
        rng, mean, sigma, config.min_length, max(config.min_length, round(3 * mean))
    )

    rc_mean = (
        config.rule_count_mean
        if config.rule_count_mean is not None
        else config.max_rules / 2
    )
    want = _gauss_int(rng, rc_mean, 0.25 * rc_mean, 1, config.max_rules)
    rules = _weighted_sample(rng, source_stats.rule_counts.items(), want)

    count = min(config.example_count, len(target_examples))
    examples = [
        target_examples[i] for i in rng.sample(range(len(target_examples)), count)
    ]
    return PromptSpec(
        rules=tuple(rules),
        examples=tuple(examples),
        target_length=target_length,
        rule_count=len(rules),
    )


@functools.cache
def default_template():
    """The packaged prompt template, read once per process."""
    return (
        resources.files("spskit")
        .joinpath("data/prompt_template.txt")
        .read_text(encoding="utf-8")
    )


def render_prompt(spec, template=None):
    """Fill the placeholder template (${rules}, ${examples}, ${length}, ${rule_count})."""
    text = template if template is not None else default_template()
    return string.Template(text).substitute(
        rules="\n".join(format_rule(r) for r in spec.rules),
        examples="\n".join(s.text() for s in spec.examples),
        length=str(spec.target_length),
        rule_count=str(spec.rule_count),
    )


def prompt_hash(spec, template=None):
    return hashlib.sha256(render_prompt(spec, template).encode("utf-8")).hexdigest()


class Pcfg:
    """An explicit PCFG for sampling: rule table plus a lexical layer.

    ``rules`` maps a nonterminal to [(tuple of child symbols, probability)];
    ``lexicon`` maps a preterminal to [(token, probability)].  A symbol must
    not appear in both tables, and every child symbol must have productions.
    """

    def __init__(self, start, rules, lexicon):
        self.start = start
        self.rules = {
            lhs: sorted((tuple(rhs), float(p)) for rhs, p in options)
            for lhs, options in rules.items()
        }
        self.lexicon = {
            pos: sorted((str(t), float(p)) for t, p in options)
            for pos, options in lexicon.items()
        }
        overlap = set(self.rules) & set(self.lexicon)
        if overlap:
            raise ValueError(f"symbols in both tables: {sorted(overlap)}")
        if start not in self.rules and start not in self.lexicon:
            raise ValueError(f"start symbol {start!r} has no productions")
        used = {s for options in self.rules.values() for rhs, _ in options for s in rhs}
        missing = used - self.rules.keys() - self.lexicon.keys()
        if missing:
            raise ValueError(f"child symbols without productions: {sorted(missing)}")
        for lhs, options in list(self.rules.items()) + list(self.lexicon.items()):
            total = sum(p for _, p in options)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{lhs!r} productions sum to {total}, not 1")

    def rule_set(self):
        return {
            SyntacticRule(lhs, rhs)
            for lhs, options in self.rules.items()
            for rhs, _ in options
        }


def pcfg_from_treebank(trees):
    """Maximum-likelihood Pcfg from trees, for offline mock generation.

    Root labels hang under the virtual start symbol ``"<s>"`` so corpora with
    several root labels stay samplable.  Trees must be in standard form: one
    token per preterminal, and no token beside a subtree.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("cannot estimate a grammar from an empty treebank")
    lex_counts = {}
    root_counts = Counter(t.label for t in trees)
    for tree in trees:
        for node in tree.subtrees():
            if node.is_preterminal and len(node.children) == 1:
                lex_counts.setdefault(node.label, Counter())[node.children[0]] += 1
            elif any(isinstance(c, str) for c in node.children):
                raise ValueError(
                    f"node {node.label!r} holds several tokens or a token beside "
                    "a subtree; one token per preterminal is required"
                )
    rule_counts = {}
    for rule, count in extract_corpus_rules(trees).items():
        rule_counts.setdefault(rule.parent, Counter())[rule.children] = count

    def normalized(counter):
        total = sum(counter.values())
        return [(item, c / total) for item, c in sorted(counter.items())]

    rules = {lhs: normalized(c) for lhs, c in rule_counts.items()}
    rules["<s>"] = [
        ((label,), c / len(trees)) for label, c in sorted(root_counts.items())
    ]
    lexicon = {pos: normalized(c) for pos, c in lex_counts.items()}
    return Pcfg("<s>", rules, lexicon)


# The mock's rejection-sampling caps: tries per batch slot, derivation depth.
MAX_ATTEMPTS = 200
MAX_DEPTH = 40


def _choose(rng, options):
    x = rng.random()
    acc = 0.0
    for item, p in options:
        acc += p
        if x < acc:
            return item
    return options[-1][0]


class MockPcfgGenerator:
    """Offline generator: seeded ancestral sampling from a PCFG.

    With ``guide_probability`` p, a sentence's derivation is steered toward
    the prompted rules: the first time a nonterminal with a prompted,
    in-grammar expansion is rewritten, one of those expansions is chosen
    (renormalized by grammar probability).  Guidance is the mock's stand-in
    for an instruction-following generator; the achieved adherence rate is a
    configuration target, not a model of any particular service.
    """

    name = "mock-pcfg"

    def __init__(
        self,
        grammar,
        seed=0,
        batch_size=10,
        guide_probability=0.75,
        length_tolerance=0.2,
        template=None,
    ):
        self.grammar = grammar
        self.seed = int_at_least("seed", seed)
        self.batch_size = int_at_least("batch_size", batch_size, 1)
        self.guide_probability = probability("guide_probability", guide_probability)
        self.length_tolerance = non_negative_number("length_tolerance", length_tolerance)
        self.template = template
        self._grammar_rules = grammar.rule_set()

    def length_bounds(self, target):
        lo = max(1, math.floor(target * (1 - self.length_tolerance)))
        hi = math.ceil(target * (1 + self.length_tolerance))
        return lo, hi

    def _sample(self, rng, guide):
        """One ancestral derivation: its tokens and the rules it used.

        The first symbol found in ``guide`` expands by its guide row, then the
        guide is dropped.  None past ``MAX_DEPTH`` or 10,000 nodes.
        """
        tokens = []
        used = set()
        nodes = 0
        lexicon = self.grammar.lexicon
        rules = self.grammar.rules
        stack = [(self.grammar.start, 0)]
        while stack:
            symbol, depth = stack.pop()
            nodes += 1
            if depth > MAX_DEPTH or nodes > 10_000:
                return None
            if symbol in lexicon:
                tokens.append(_choose(rng, lexicon[symbol]))
                continue
            if guide and symbol in guide:
                rhs = _choose(rng, guide[symbol])
                guide = None
            else:
                rhs = _choose(rng, rules[symbol])
            used.add((symbol, rhs))
            stack.extend((child, depth + 1) for child in reversed(rhs))
        return tokens, used

    def generate(self, spec):
        digest = prompt_hash(spec, self.template)
        rng = substream(self.seed, "mock", digest)
        prompted = set(spec.rules) & self._grammar_rules
        guide = {}
        for parent in {rule.parent for rule in prompted}:
            options = [
                (rhs, p)
                for rhs, p in self.grammar.rules[parent]
                if SyntacticRule(parent, rhs) in prompted
            ]
            total = sum(p for _, p in options)
            guide[parent] = [(rhs, p / total) for rhs, p in options]

        lo, hi = self.length_bounds(spec.target_length)
        sentences = []
        derivations = []
        for _ in range(self.batch_size):
            guided = rng.random() < self.guide_probability and bool(guide)
            for attempt in range(MAX_ATTEMPTS):
                # A prompted rule can be incompatible with the length bound
                # (e.g. it forces a very short derivation); after burning half
                # the attempts, this slot falls back to unguided sampling,
                # like a generator ignoring part of its instructions.
                use_guide = guided and attempt < MAX_ATTEMPTS // 2
                sample = self._sample(rng, guide if use_guide else None)
                if sample is not None and lo <= len(sample[0]) <= hi:
                    tokens, used = sample
                    sentences.append(Sentence(tuple(tokens)))
                    derivations.append(
                        frozenset(SyntacticRule(symbol, rhs) for symbol, rhs in used)
                    )
                    break
            # A slot with no accepted derivation degrades: the pool is smaller.
        if not sentences:
            raise GenerationError(
                f"no derivation of length {lo}..{hi} found in "
                f"{MAX_ATTEMPTS} attempts per sentence",
                attempts=MAX_ATTEMPTS,
            )
        return GenerationBatch(
            sentences=tuple(sentences),
            provenance={
                "prompt_sha256": digest,
                "backend": self.name,
                "seed": self.seed,
            },
            derivations=tuple(derivations),
        )


class ServiceGenerator:
    """Client for a generic text-completion HTTP endpoint.

    Request body: {"prompt", "max_tokens", "temperature", "seed"?}; reply
    body: {"text": "..."}, one sentence per line.  A line that cannot form a
    Sentence (a token holding an ASCII parenthesis, say) is dropped; a reply
    with no line left is an ``empty_generation`` error.  Bearer auth comes
    from ``$SPSKIT_SERVICE_TOKEN``.  A simple client-side token bucket enforces
    ``requests_per_minute`` (0 means no limit).
    """

    name = "service"

    def __init__(
        self,
        endpoint,
        template=None,
        max_tokens=512,
        temperature=0.8,
        seed=None,
        timeout=30.0,
        max_attempts=3,
        requests_per_minute=60,
        session=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.template = template
        self.max_tokens = max_tokens
        self.temperature = temperature
        self.seed = seed if seed is None else int_at_least("seed", seed)
        self.timeout = timeout
        self.max_attempts = int_at_least("max_attempts", max_attempts, 1)
        self.requests_per_minute = non_negative_number(
            "requests_per_minute", requests_per_minute
        )
        self.session = session or requests.Session()
        self._sleep = sleep
        self._interval = 60.0 / requests_per_minute if requests_per_minute else 0.0
        self._last_request = None

    def _throttle(self):
        if not self._interval:
            return
        now = time.monotonic()
        if self._last_request is not None:
            wait = self._interval - (now - self._last_request)
            if wait > 0:
                self._sleep(wait)
        self._last_request = time.monotonic()

    def _headers(self):
        headers = {"Content-Type": "application/json"}
        token = os.environ.get("SPSKIT_SERVICE_TOKEN")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def generate(self, spec):
        prompt = render_prompt(spec, self.template)
        body = {
            "prompt": prompt,
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
        }
        if self.seed is not None:
            body["seed"] = self.seed

        for attempt in range(1, self.max_attempts + 1):
            self._throttle()
            try:
                response = self.session.post(
                    self.endpoint,
                    json=body,
                    headers=self._headers(),
                    timeout=self.timeout,
                )
            except (requests.Timeout, requests.ConnectionError) as e:
                failure = f"service unreachable after {attempt} attempts: {e}"
                cause = e
                continue
            if response.status_code >= 500:
                failure = f"service error {response.status_code} after {attempt} attempts"
                cause = None
                continue
            if response.status_code != 200:
                raise GenerationError(
                    f"service refused the request: {response.status_code}",
                    attempts=attempt,
                )
            break
        else:
            raise GenerationError(failure, attempts=attempt, retriable=True) from cause

        try:
            text = response.json()["text"]
        except (ValueError, KeyError, TypeError):
            text = None
        if not isinstance(text, str):
            raise GenerationError("empty_generation: reply is not {'text': str}")
        sentences = []
        for line in text.splitlines():
            try:
                sentences.append(Sentence.from_text(line))
            except ValueError:
                continue  # a blank line, or a token no tree could hold ("(", say)
        if not sentences:
            raise GenerationError("empty_generation: reply had no usable sentences")
        return GenerationBatch(
            sentences=tuple(sentences),
            provenance={
                "prompt_sha256": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
                "backend": self.name,
                "seed": self.seed,
            },
        )
