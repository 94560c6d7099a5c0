"""In-memory spans around spskit's public boundaries, and the layer metrics
derived from them.

Spans are recorded from outside the program: the parser and generator
backends are wrapped in proxies passed through ``Experiment``'s pluggable
backend slots, and every other boundary is a public name patched in the
namespace that calls it (``spskit.selection.instance_distance`` is the name
``selection.score`` looks up, for instance).  Nothing under ``src/`` knows it
is being traced.  A span's layer is the part of its name before the first
dot; a layer's self time is the time its spans cover minus their children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

from spskit.errors import GenerationError

LAYERS = (
    "bench", "selftrain", "generator", "parser", "rules", "selection",
    "evaluation", "treebank", "mapping", "segmentation",
)
LENGTH_BUCKETS = ((1, 9), (10, 12), (13, 15), (16, 18))


class Tracer:
    """Spans as [name, start, end, parent index, rep, attrs], counters summed
    over the run, and gauges holding the last value seen."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.gauges = {}
        self.rep = 0
        self._stack = []

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rep, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, note=None):
        """``fn`` recording a span; ``note(span, args, result)`` adds counts."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                note(self.spans[index], args, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "rep", "attrs"],
                    "spans": self.spans,
                    "counts": self.counts,
                    "gauges": self.gauges,
                },
                f,
            )


class TracedParser:
    """Parser backend proxy: spans around training; parsing is spanned per
    sentence by the ``spskit.parser.parse`` patch, since ``parse_pool`` and
    ``parse`` both end there."""

    def __init__(self, backend, tracer):
        self._backend = backend
        self._tracer = tracer
        self.name = getattr(backend, "name", "custom")
        self.train = tracer.wrap("parser.train", backend.train, self._note_train)

    def _note_train(self, span, args, model):
        self._tracer.count("parser.train_trees", len(args[0]))

    def parse(self, model, sentence):
        return self._backend.parse(model, sentence)

    def parse_pool(self, model, sentences, jobs=1):
        return self._backend.parse_pool(model, sentences, jobs=jobs)


class TracedGenerator:
    """Generator backend proxy counting calls, slots and errors."""

    def __init__(self, backend, tracer):
        self._backend = backend
        self._tracer = tracer
        self.name = getattr(backend, "name", "custom")
        self._generate = tracer.wrap("generator.generate", backend.generate)

    def generate(self, spec):
        tracer = self._tracer
        tracer.count("generator.calls")
        tracer.count("generator.slots", getattr(self._backend, "batch_size", 1))
        try:
            batch = self._generate(spec)
        except GenerationError:
            tracer.count("generator.errors")
            raise
        tracer.count("generator.returned", len(batch.sentences))
        return batch


def _note_parse(tracer):
    def note(span, args, result):
        span[5] = (len(result.sentence.tokens), result.confidence == 0.0)
        tracer.gauges["parser.grammar_rules"] = len(args[0].rules)

    return note


def _note_score(tracer):
    def note(span, args, result):
        tracer.count("selection.candidates", len(args[0]))
        tracer.count("selection.scored", len(result))

    return note


def _note_distance(tracer):
    def note(span, args, result):
        tracer.gauges["rules.reference_items"] = len(args[1])

    return note


def _note_convert(tracer):
    def note(span, args, result):
        converted, report = result
        tracer.count("mapping.fallbacks", report.fallback_count)
        tracer.count("mapping.nodes", sum(1 for t in converted for _ in t.subtrees()))

    return note


def _note_transfer(tracer):
    def note(span, args, result):
        report = result[1]
        tracer.count("segmentation.merged", report.merged)
        tracer.count("segmentation.misaligned", len(report.misaligned))

    return note


def _note_read(tracer):
    def note(span, args, result):
        tracer.count("treebank.read_trees", len(result))

    return note


def _note_write(tracer):
    def note(span, args, result):
        tracer.count("treebank.written_trees", len(args[0]))

    return note


def _note_f1(tracer):
    def note(span, args, result):
        tracer.gauges["evaluation.f1"] = result.f1

    return note


# (module, attribute, span name, note factory).  Each public name is patched
# in every namespace that calls it, so a span appears whichever caller runs.
PATCHES = (
    ("spskit.parser", "parse", "parser.parse", _note_parse),
    ("spskit.selftrain", "corpus_stats", "generator.corpus_stats", None),
    ("spskit.selftrain", "sample_prompt", "generator.sample_prompt", None),
    ("spskit.selftrain", "extract_corpus_rules", "rules.extract", None),
    ("spskit.selftrain", "token_counts", "rules.extract", None),
    ("spskit.selection", "instance_distance", "rules.instance_distance", _note_distance),
    ("spskit.selftrain", "score", "selection.score", _note_score),
    ("spskit.selection", "score", "selection.score", _note_score),
    ("spskit.selftrain", "select_top_k", "selection.select_top_k", None),
    ("spskit.selection", "select_top_k", "selection.select_top_k", None),
    ("spskit.selftrain", "score_corpus", "evaluation.score_corpus", _note_f1),
    ("spskit.evaluation", "score_corpus", "evaluation.score_corpus", _note_f1),
    ("spskit.selftrain", "write_treebank", "treebank.write", _note_write),
    ("spskit.treebank", "write_treebank", "treebank.write", _note_write),
    ("spskit.treebank", "read_treebank", "treebank.read", _note_read),
    ("spskit.treebank", "normalize_pos_nodes", "treebank.normalize", None),
    ("spskit.mapping", "convert_corpus", "mapping.convert", _note_convert),
    ("spskit.segmentation", "transfer_corpus", "segmentation.transfer", _note_transfer),
)


@contextlib.contextmanager
def patched(tracer):
    """Install every wrapper in PATCHES for the duration of the block."""
    originals = []
    try:
        for module_name, attr, name, note in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, note and note(tracer)))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, reps):
    """Per-layer metrics from the spans of ``reps`` traced body runs.

    Times and counts are means per body run; percentiles pool every call;
    gauges are the last value seen.  Shares are each layer's self time over
    body time.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = dict.fromkeys(LAYERS, 0.0)
    total = {}
    durations = {}
    roots = []
    for index, (name, start, end, parent, _, _) in enumerate(spans):
        duration = end - start
        self_time[name.split(".", 1)[0]] += duration - child_time[index]
        total[name] = total.get(name, 0.0) + duration
        durations.setdefault(name, []).append(duration)
        if parent < 0:
            roots.append(duration)
    body = sum(roots)
    counts = {k: v / reps for k, v in tracer.counts.items()}
    gauges = tracer.gauges

    def seconds(name):
        return total.get(name, 0.0) / reps

    def ms(name, q):
        return 1000.0 * _percentile(sorted(durations.get(name, ())), q)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    parses = [s[5] for s in spans if s[0] == "parser.parse"]   # (tokens, fell back)
    fallbacks = sum(1 for _, fell_back in parses if fell_back)
    selftrain_root = [s for s in spans if s[0] == "selftrain.run"]
    metrics = {
        "parser.parse_s": (seconds("parser.parse"), "s"),
        "parser.sentences": (len(parses) / reps, "count"),
        "parser.parse_ms.p50": (ms("parser.parse", 50), "ms"),
        "parser.parse_ms.p90": (ms("parser.parse", 90), "ms"),
        "parser.fallback_ratio": (fallbacks / len(parses) if parses else 0.0, "ratio"),
        "parser.grammar_rules": (gauges.get("parser.grammar_rules", 0), "count"),
        "parser.train_s": (seconds("parser.train"), "s"),
        "parser.train_trees": (counts.get("parser.train_trees", 0), "count"),
        "generator.generate_s": (seconds("generator.generate"), "s"),
        "generator.calls": (counts.get("generator.calls", 0), "count"),
        "generator.slot_fill_ratio": (ratio("generator.returned", "generator.slots"), "ratio"),
        "generator.errors": (counts.get("generator.errors", 0), "count"),
        "generator.sample_prompt_s": (seconds("generator.sample_prompt"), "s"),
        "generator.corpus_stats_s": (seconds("generator.corpus_stats"), "s"),
        "rules.instance_distance_s": (seconds("rules.instance_distance"), "s"),
        "rules.instance_distance_ms.p50": (ms("rules.instance_distance", 50), "ms"),
        "rules.instance_distance_ms.p90": (ms("rules.instance_distance", 90), "ms"),
        "rules.reference_items": (gauges.get("rules.reference_items", 0), "count"),
        "rules.extract_s": (seconds("rules.extract"), "s"),
        "selection.score_s": (seconds("selection.score"), "s"),
        "selection.select_top_k_s": (seconds("selection.select_top_k"), "s"),
        "selection.scorable_ratio": (ratio("selection.scored", "selection.candidates"), "ratio"),
        "evaluation.score_corpus_s": (seconds("evaluation.score_corpus"), "s"),
        "evaluation.f1": (gauges.get("evaluation.f1", 0.0), "F1"),
        "selftrain.iteration_s.p50": (_iteration_p50(spans, selftrain_root), "s"),
        "selftrain.pool_yield": (ratio("selftrain.pool_kept", "generator.returned"), "ratio"),
        "selftrain.other_s": (self_time["selftrain"] / reps, "s"),
        "treebank.read_s": (seconds("treebank.read"), "s"),
        "treebank.write_s": (seconds("treebank.write"), "s"),
        "treebank.normalize_s": (seconds("treebank.normalize"), "s"),
        "treebank.read_trees": (counts.get("treebank.read_trees", 0), "count"),
        "treebank.written_trees": (counts.get("treebank.written_trees", 0), "count"),
        "mapping.convert_s": (seconds("mapping.convert"), "s"),
        "mapping.fallback_ratio": (ratio("mapping.fallbacks", "mapping.nodes"), "ratio"),
        "segmentation.transfer_s": (seconds("segmentation.transfer"), "s"),
        "segmentation.merged": (counts.get("segmentation.merged", 0), "count"),
        "segmentation.misaligned": (counts.get("segmentation.misaligned", 0), "count"),
        "trace.body_s": (body / reps, "s"),
        "trace.spans": (len(spans) / reps, "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            100.0 * self_time[layer] / body if body else 0.0, "%")
    return metrics


def parse_ms_by_length(tracer):
    """Median ms per ``parser.parse`` call in each sentence-length bucket
    that has calls: the CKY-against-length curve."""
    curve = {}
    for lo, hi in LENGTH_BUCKETS:
        bucket = sorted(s[2] - s[1] for s in tracer.spans
                        if s[0] == "parser.parse" and lo <= s[5][0] <= hi)
        if bucket:
            curve[f"{lo}-{hi}"] = 1000.0 * _percentile(bucket, 50)
    return curve


def _iteration_p50(spans, roots):
    """Median length of the loop's generating iterations.

    Each iteration after the first begins with its ``corpus_stats`` call, so
    consecutive call starts (and the run's end) bound the iterations.
    """
    lengths = []
    for root in roots:
        starts = [s[1] for s in spans
                  if s[0] == "generator.corpus_stats" and root[1] <= s[1] <= root[2]]
        bounds = starts + [root[2]]
        lengths.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return statistics.median(lengths) if lengths else 0.0
