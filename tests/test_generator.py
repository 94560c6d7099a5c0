import http.server
import json
import statistics
import threading
from collections import Counter

import pytest
import requests

from spskit import generator
from spskit.errors import ConfigError, GenerationError
from spskit.generator import (
    MockPcfgGenerator,
    Pcfg,
    PromptConfig,
    PromptSpec,
    ServiceGenerator,
    _choose,
    corpus_stats,
    default_template,
    pcfg_from_treebank,
    prompt_hash,
    render_prompt,
    sample_prompt,
)
from spskit.rules import SyntacticRule
from spskit.seeding import derive_seed, substream
from spskit.synthetic import sample_corpus, source_grammar, target_grammar
from spskit.treebank import ParseTree, Sentence, parse_bracketed


@pytest.fixture
def stats():
    return corpus_stats(sample_corpus(source_grammar(), 60, seed=1, name="gen-stats"))


@pytest.fixture
def examples():
    return [t.sentence() for t in sample_corpus(target_grammar(), 25, seed=1, name="gen-ex")]


class TestSeeding:
    def test_derive_seed_is_stable_across_processes(self):
        # pinned value: guards against accidentally depending on builtin hash
        assert derive_seed(0, "generate", 1) == derive_seed(0, "generate", 1)
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "generate", 1) == 14408488420450146947

    def test_substreams_are_independent(self):
        a, b = substream(7, "x"), substream(7, "y")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]


class TestSamplePrompt:
    def test_zero_sigma_pins_the_source_mean(self, examples):
        from collections import Counter

        stats32 = corpus_stats(
            sample_corpus(source_grammar(), 30, seed=2, name="mean")
        )
        stats32 = type(stats32)(mean_length=32.0, rule_counts=stats32.rule_counts)
        rng = substream(0, "test")
        config = PromptConfig(length_sigma=0.0)
        lengths = {
            sample_prompt(stats32, examples, rng, config).target_length
            for _ in range(50)
        }
        assert lengths == {32}

    def test_fixed_seed_reproduces_the_spec(self, stats, examples):
        s1 = sample_prompt(stats, examples, substream(3, "p"))
        s2 = sample_prompt(stats, examples, substream(3, "p"))
        assert s1 == s2

    def test_gaussian_draws_concentrate_on_the_mean(self, examples):
        from collections import Counter

        base = corpus_stats(sample_corpus(source_grammar(), 30, seed=2, name="g"))
        stats32 = type(base)(mean_length=32.0, rule_counts=base.rule_counts)
        rng = substream(0, "gauss")
        config = PromptConfig(length_sigma=8.0)
        draws = [
            sample_prompt(stats32, examples, rng, config).target_length
            for _ in range(10_000)
        ]
        assert abs(statistics.fmean(draws) - 32.0) < 0.5
        assert all(2 <= d <= 96 for d in draws)

    def test_rule_count_respects_bounds(self, stats, examples):
        rng = substream(1, "rc")
        config = PromptConfig(max_rules=4)
        for _ in range(100):
            spec = sample_prompt(stats, examples, rng, config)
            assert 1 <= spec.rule_count <= 4
            assert spec.rule_count == len(spec.rules)

    def test_rules_weighted_by_frequency(self, examples):
        from collections import Counter

        common = SyntacticRule("s", ("subj", "pred"))
        rare = SyntacticRule("s", ("subj",))
        stats = corpus_stats(sample_corpus(source_grammar(), 5, seed=3, name="w"))
        stats = type(stats)(
            mean_length=4.0,
            rule_counts=Counter({common: 99, rare: 1}),
        )
        rng = substream(2, "weights")
        config = PromptConfig(max_rules=1, rule_count_mean=1.0)
        picks = Counter(
            sample_prompt(stats, examples, rng, config).rules[0] for _ in range(200)
        )
        assert picks[common] > picks[rare]

    def test_empty_example_pool_is_an_error(self, stats):
        with pytest.raises(ValueError):
            sample_prompt(stats, [], substream(0, "e"))

    def test_spec_invariants(self, examples):
        with pytest.raises(ValueError):
            PromptSpec(rules=(), examples=tuple(examples), target_length=5, rule_count=0)
        rule = SyntacticRule("s", ("subj",))
        with pytest.raises(ValueError):
            PromptSpec(rules=(rule,), examples=tuple(examples), target_length=1, rule_count=1)
        with pytest.raises(ValueError):
            PromptSpec(rules=(rule,), examples=(), target_length=5, rule_count=1)


class TestPromptRendering:
    def test_placeholders_filled(self, stats, examples):
        spec = sample_prompt(stats, examples, substream(0, "r"))
        text = render_prompt(spec)
        assert str(spec.target_length) in text
        assert str(spec.rule_count) in text
        assert examples or True
        for sentence in spec.examples:
            assert sentence.text() in text

    def test_template_is_data(self, stats, examples):
        spec = sample_prompt(stats, examples, substream(0, "r"))
        custom = "len=${length} rules=${rules} n=${rule_count} ex=${examples}"
        text = render_prompt(spec, custom)
        assert text.startswith(f"len={spec.target_length}")
        assert prompt_hash(spec, custom) != prompt_hash(spec, default_template())


class TestPcfg:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Pcfg("s", {"s": [(("x",), 0.5)]}, {"x": [("a", 1.0)]})

    def test_symbol_cannot_be_both(self):
        with pytest.raises(ValueError):
            Pcfg("s", {"s": [(("s",), 1.0)]}, {"s": [("a", 1.0)]})

    def test_from_treebank_ml_estimates(self):
        trees = [
            parse_bracketed("(s (x a) (y b))"),
            parse_bracketed("(s (x a) (y b))"),
            parse_bracketed("(q (x a))"),
        ]
        grammar = pcfg_from_treebank(trees)
        assert dict(grammar.rules["<s>"]) == {("q",): pytest.approx(1 / 3), ("s",): pytest.approx(2 / 3)}
        assert grammar.lexicon["x"] == [("a", 1.0)]

    def test_a_child_symbol_without_productions_is_rejected(self):
        with pytest.raises(ValueError, match="'y'"):
            Pcfg("s", {"s": [(("x", "y"), 1.0)]}, {"x": [("a", 1.0)]})

    def test_a_token_beside_a_subtree_is_rejected(self):
        with pytest.raises(ValueError, match="node 's'"):
            pcfg_from_treebank([parse_bracketed("(s (n a) b)")])


class TestMockGenerator:
    def make_spec(self, stats, examples, seed=0, length=4):
        rng = substream(seed, "mock-spec")
        config = PromptConfig(length_sigma=0.0, min_length=length)
        stats = type(stats)(mean_length=float(length), rule_counts=stats.rule_counts)
        return sample_prompt(stats, examples, rng, config)

    def test_degenerate_grammar_yields_its_only_sentence(self, stats, examples):
        grammar = Pcfg(
            "s", {"s": [(("x", "y"), 1.0)]}, {"x": [("a", 1.0)], "y": [("b", 1.0)]}
        )
        gen = MockPcfgGenerator(grammar, seed=1, batch_size=4)
        spec = PromptSpec(
            rules=(SyntacticRule("s", ("x", "y")),),
            examples=(Sentence(("a", "b")),),
            target_length=2,
            rule_count=1,
        )
        batch = gen.generate(spec)
        assert set(batch.sentences) == {Sentence(("a", "b"))}

    def test_same_seed_same_batch(self, stats, examples):
        spec = self.make_spec(stats, examples)
        g1 = MockPcfgGenerator(target_grammar(), seed=9, batch_size=8)
        g2 = MockPcfgGenerator(target_grammar(), seed=9, batch_size=8)
        assert g1.generate(spec) == g2.generate(spec)
        assert g1.generate(spec) == g1.generate(spec)  # stateless per prompt

    def test_different_seeds_differ(self, stats, examples):
        spec = self.make_spec(stats, examples)
        g1 = MockPcfgGenerator(target_grammar(), seed=1, batch_size=8)
        g2 = MockPcfgGenerator(target_grammar(), seed=2, batch_size=8)
        assert g1.generate(spec) != g2.generate(spec)

    def test_lengths_respect_the_bounds(self, stats, examples):
        gen = MockPcfgGenerator(target_grammar(), seed=3, batch_size=20)
        for length in (3, 4, 6):
            spec = self.make_spec(stats, examples, seed=length, length=length)
            lo, hi = gen.length_bounds(spec.target_length)
            batch = gen.generate(spec)
            assert all(lo <= len(s) <= hi for s in batch.sentences)

    def test_provenance_records_prompt_and_seed(self, stats, examples):
        spec = self.make_spec(stats, examples)
        gen = MockPcfgGenerator(target_grammar(), seed=4, batch_size=2)
        batch = gen.generate(spec)
        assert batch.provenance["backend"] == "mock-pcfg"
        assert batch.provenance["seed"] == 4
        assert batch.provenance["prompt_sha256"] == prompt_hash(spec)

    def test_unreachable_length_is_a_generation_error(self, monkeypatch):
        monkeypatch.setattr(generator, "MAX_ATTEMPTS", 10)
        grammar = Pcfg(
            "s", {"s": [(("x",), 1.0)]}, {"x": [("a", 1.0)]}
        )  # only 1-token sentences
        gen = MockPcfgGenerator(grammar, seed=5, batch_size=2)
        spec = PromptSpec(
            rules=(SyntacticRule("s", ("x",)),),
            examples=(Sentence(("a",)),),
            target_length=6,
            rule_count=1,
        )
        with pytest.raises(GenerationError, match="in 10 attempts"):
            gen.generate(spec)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", 0),
            ("batch_size", True),
            ("batch_size", 2.0),
            ("guide_probability", 5),
            ("guide_probability", -0.1),
            ("guide_probability", "0.5"),
            ("guide_probability", True),
            ("seed", 1.5),
            ("seed", "7"),
            ("length_tolerance", -1),
        ],
    )
    def test_bad_settings_are_config_errors(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            MockPcfgGenerator(target_grammar(), **{key: value})

    def test_adherence_with_derivation_bookkeeping(self):
        corpus = sample_corpus(target_grammar(), 120, seed=6, name="adh")
        stats = corpus_stats(corpus)
        examples = [t.sentence() for t in corpus[:20]]
        gen = MockPcfgGenerator(target_grammar(), seed=7, batch_size=25)
        rng = substream(8, "adh")
        config = PromptConfig(length_sigma=0.0, min_length=4)
        hits = total = 0
        for _ in range(8):
            spec = sample_prompt(stats, examples, rng, config)
            batch = gen.generate(spec)
            assert batch.derivations is not None
            prompted = set(spec.rules)
            for used in batch.derivations:
                total += 1
                if used & prompted:
                    hits += 1
        assert total >= 150
        assert hits / total >= 0.6


# Reference: the mock sampler as a plain tree-building recursion, and the
# batch loop around it.  MockPcfgGenerator must draw the same random numbers
# and return the same batches and derivations.


class RefDepthExceeded(Exception):
    pass


def ref_sample_tree(gen, rng, guided, prompted_by_parent):
    used = set()
    state = {"adhered": False, "nodes": 0}

    def expand(symbol, depth):
        state["nodes"] += 1
        if depth > generator.MAX_DEPTH or state["nodes"] > 10_000:
            raise RefDepthExceeded
        if symbol in gen.grammar.lexicon:
            return ParseTree(symbol, (_choose(rng, gen.grammar.lexicon[symbol]),))
        options = gen.grammar.rules[symbol]
        if guided and not state["adhered"] and symbol in prompted_by_parent:
            prompted = prompted_by_parent[symbol]
            subset = [(rhs, p) for rhs, p in options if rhs in prompted]
            if subset:
                total = sum(p for _, p in subset)
                subset = [(rhs, p / total) for rhs, p in subset]
                rhs = _choose(rng, subset)
                state["adhered"] = True
            else:
                rhs = _choose(rng, options)
        else:
            rhs = _choose(rng, options)
        used.add(SyntacticRule(symbol, rhs))
        return ParseTree(symbol, tuple(expand(s, depth + 1) for s in rhs))

    return expand(gen.grammar.start, 0), frozenset(used)


def ref_generate(gen, spec):
    """(sentences, derivations) of one batch, or None if every slot failed."""
    rng = substream(gen.seed, "mock", prompt_hash(spec, gen.template))
    prompted_by_parent = {}
    for rule in set(spec.rules) & gen.grammar.rule_set():
        prompted_by_parent.setdefault(rule.parent, set()).add(rule.children)
    lo, hi = gen.length_bounds(spec.target_length)
    sentences, derivations = [], []
    for _ in range(gen.batch_size):
        guided = rng.random() < gen.guide_probability and bool(prompted_by_parent)
        for attempt in range(generator.MAX_ATTEMPTS):
            use_guide = guided and attempt < generator.MAX_ATTEMPTS // 2
            try:
                tree, used = ref_sample_tree(gen, rng, use_guide, prompted_by_parent)
            except RefDepthExceeded:
                continue
            if lo <= len(tree.leaves()) <= hi:
                sentences.append(Sentence(tuple(tree.leaves())))
                derivations.append(used)
                break
    return (tuple(sentences), tuple(derivations)) if sentences else None


# Recursive: deep derivations hit MAX_DEPTH, long ones miss the length bound.
RECURSIVE_GRAMMAR = Pcfg(
    "s",
    {
        "s": [(("np", "vp"), 0.5), (("s", "c", "s"), 0.3), (("vp",), 0.2)],
        "np": [(("n",), 0.5), (("np", "pp"), 0.3), (("a", "np"), 0.2)],
        "vp": [(("v",), 0.4), (("v", "np"), 0.4), (("vp", "pp"), 0.2)],
        "pp": [(("p", "np"), 1.0)],
    },
    {
        "n": [("na", 0.5), ("nb", 0.3), ("vn", 0.2)],
        "v": [("va", 0.6), ("vn", 0.4)],
        "a": [("aa", 1.0)],
        "p": [("pa", 1.0)],
        "c": [("ca", 1.0)],
    },
)


class TestMockReferenceParity:
    @pytest.mark.parametrize(
        "grammar, settings",
        [
            (target_grammar(), dict(batch_size=25)),
            (target_grammar(), dict(batch_size=25, length_tolerance=0.0)),
            (source_grammar(), dict(batch_size=10, guide_probability=1.0, MAX_ATTEMPTS=6)),
            (RECURSIVE_GRAMMAR, dict(batch_size=20, MAX_DEPTH=6, MAX_ATTEMPTS=30)),
        ],
    )
    def test_batches_and_derivations_match_reference(
        self, grammar, settings, monkeypatch
    ):
        # Upper-case keys set the sampler's module caps, the rest the mock.
        settings = dict(settings)
        for name in ("MAX_ATTEMPTS", "MAX_DEPTH"):
            if name in settings:
                monkeypatch.setattr(generator, name, settings.pop(name))
        corpus = sample_corpus(grammar, 120, seed=31, name="mock-parity")
        stats = corpus_stats(corpus)
        examples = [t.sentence() for t in corpus[:20]]
        rng = substream(32, "mock-parity")
        produced = 0
        for seed in (0, 7):
            gen = MockPcfgGenerator(grammar, seed=seed, **settings)
            for length in (2, 3, 4, 6, 9):
                config = PromptConfig(length_sigma=1.0, min_length=length)
                spec = sample_prompt(stats, examples, rng, config)
                expected = ref_generate(gen, spec)
                if expected is None:
                    with pytest.raises(GenerationError):
                        gen.generate(spec)
                    continue
                batch = gen.generate(spec)
                assert (batch.sentences, batch.derivations) == expected
                produced += len(batch.sentences)
        assert produced >= 50


# Reference: the grammar estimator as one walk over every node, counting
# rules and tokens itself.  pcfg_from_treebank must build the same tables,
# in the same order and with the same floats.


def ref_pcfg_from_treebank(trees, start="<s>"):
    rule_counts = {}
    lex_counts = {}
    root_counts = Counter(t.label for t in trees)
    for tree in trees:
        for node in tree.subtrees():
            if node.is_preterminal:
                lex_counts.setdefault(node.label, Counter())[node.children[0]] += 1
            else:
                rhs = tuple(
                    c.label if isinstance(c, ParseTree) else c for c in node.children
                )
                rule_counts.setdefault(node.label, Counter())[rhs] += 1

    def normalized(counter):
        total = sum(counter.values())
        return [(item, c / total) for item, c in sorted(counter.items())]

    rules = {lhs: normalized(c) for lhs, c in rule_counts.items()}
    rules[start] = [
        ((label,), c / len(trees)) for label, c in sorted(root_counts.items())
    ]
    lexicon = {pos: normalized(c) for pos, c in lex_counts.items()}
    return Pcfg(start, rules, lexicon)


class TestPcfgReferenceParity:
    @pytest.mark.parametrize(
        "grammar", [source_grammar(), target_grammar(), RECURSIVE_GRAMMAR]
    )
    @pytest.mark.parametrize("size", [1, 40, 300])
    def test_tables_match_reference(self, grammar, size):
        corpus = sample_corpus(grammar, size, seed=size, name="pcfg-parity")
        got = pcfg_from_treebank(corpus)
        want = ref_pcfg_from_treebank(corpus)
        assert got.start == want.start
        assert list(got.rules.items()) == list(want.rules.items())
        assert list(got.lexicon.items()) == list(want.lexicon.items())


class _StubHandler(http.server.BaseHTTPRequestHandler):
    behavior = ["ok"]
    requests = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        mode = type(self).behavior.pop(0) if type(self).behavior else "ok"
        if mode in ("500", "429"):
            self.send_response(int(mode))
            self.end_headers()
            return
        if mode == "garbled":
            payload = b"not json"
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        if mode == "empty":
            payload = json.dumps({"text": "   \n  "}).encode()
        elif mode == "brackets":
            payload = json.dumps({"text": "w1 (w2) w3\nw4 w5\nw6)"}).encode()
        elif mode == "only-brackets":
            payload = json.dumps({"text": "(w1 w2)\nw3 w4("}).encode()
        else:
            payload = json.dumps({"text": "w1 w2 w3\nw4 w5"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.behavior = ["ok"]
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()


def _spec():
    return PromptSpec(
        rules=(SyntacticRule("s", ("subj", "pred")),),
        examples=(Sentence(("e1", "e2")),),
        target_length=3,
        rule_count=1,
    )


class TestServiceGenerator:
    def test_success_path_parses_and_authenticates(self, stub_server, monkeypatch):
        monkeypatch.setenv("SPSKIT_SERVICE_TOKEN", "sekrit")
        gen = ServiceGenerator(stub_server, seed=5, requests_per_minute=0)
        batch = gen.generate(_spec())
        assert batch.sentences == (
            Sentence(("w1", "w2", "w3")),
            Sentence(("w4", "w5")),
        )
        request = _StubHandler.requests[0]
        assert request["auth"] == "Bearer sekrit"
        assert request["body"]["seed"] == 5
        assert request["body"]["max_tokens"] > 0
        assert "temperature" in request["body"]
        assert batch.provenance["backend"] == "service"

    def test_server_errors_retry_then_succeed(self, stub_server):
        _StubHandler.behavior = ["500", "500", "ok"]
        gen = ServiceGenerator(stub_server, max_attempts=3, requests_per_minute=0)
        batch = gen.generate(_spec())
        assert len(_StubHandler.requests) == 3
        assert len(batch.sentences) == 2

    def test_exhausted_retries_surface_attempt_count(self, stub_server):
        _StubHandler.behavior = ["500", "500"]
        gen = ServiceGenerator(stub_server, max_attempts=2, requests_per_minute=0)
        with pytest.raises(GenerationError) as err:
            gen.generate(_spec())
        assert err.value.retriable
        assert err.value.attempts == 2

    def test_a_refusal_fails_at_once(self, stub_server):
        _StubHandler.behavior = ["429", "ok"]
        gen = ServiceGenerator(stub_server, max_attempts=3, requests_per_minute=0)
        with pytest.raises(GenerationError) as err:
            gen.generate(_spec())
        assert "429" in str(err.value)
        assert not err.value.retriable
        assert err.value.attempts == 1
        assert len(_StubHandler.requests) == 1

    def test_the_last_timeout_is_the_cause(self):
        raised = []

        class Session:
            def post(self, *args, **kwargs):
                raised.append(requests.Timeout(f"slow {len(raised)}"))
                raise raised[-1]

        gen = ServiceGenerator(
            "http://stub/complete", max_attempts=2, session=Session(),
            requests_per_minute=0,
        )
        with pytest.raises(GenerationError) as err:
            gen.generate(_spec())
        assert str(err.value) == "service unreachable after 2 attempts: slow 1"
        assert err.value.__cause__ is raised[-1]
        assert err.value.retriable
        assert err.value.attempts == 2

    def test_unreachable_endpoint_is_retriable(self):
        gen = ServiceGenerator(
            "http://127.0.0.1:1/none", max_attempts=2, timeout=0.2,
            requests_per_minute=0,
        )
        with pytest.raises(GenerationError) as err:
            gen.generate(_spec())
        assert err.value.retriable

    def test_garbled_reply_is_empty_generation(self, stub_server):
        _StubHandler.behavior = ["garbled"]
        gen = ServiceGenerator(stub_server, requests_per_minute=0)
        with pytest.raises(GenerationError) as err:
            gen.generate(_spec())
        assert "empty_generation" in str(err.value)

    @pytest.mark.parametrize("text", [42, None, ["w1 w2"]])
    def test_a_reply_text_that_is_not_a_string_is_empty_generation(self, text):
        class Reply:
            status_code = 200

            def json(self):
                return {"text": text}

        class Session:
            def post(self, *args, **kwargs):
                return Reply()

        gen = ServiceGenerator("http://stub/complete", session=Session(), requests_per_minute=0)
        with pytest.raises(GenerationError) as err:
            gen.generate(_spec())
        assert "empty_generation" in str(err.value)

    def test_blank_reply_is_empty_generation(self, stub_server):
        _StubHandler.behavior = ["empty"]
        gen = ServiceGenerator(stub_server, requests_per_minute=0)
        with pytest.raises(GenerationError):
            gen.generate(_spec())

    def test_lines_with_bracket_tokens_are_dropped(self, stub_server):
        _StubHandler.behavior = ["brackets"]
        gen = ServiceGenerator(stub_server, requests_per_minute=0)
        assert gen.generate(_spec()).sentences == (Sentence(("w4", "w5")),)

    def test_a_reply_of_bracket_lines_only_is_empty_generation(self, stub_server):
        _StubHandler.behavior = ["only-brackets"]
        gen = ServiceGenerator(stub_server, requests_per_minute=0)
        with pytest.raises(GenerationError) as err:
            gen.generate(_spec())
        assert "empty_generation" in str(err.value)

    @pytest.mark.parametrize("rate", [-1, "60", True, float("nan"), float("inf")])
    def test_a_bad_rate_limit_is_a_config_error(self, rate):
        with pytest.raises(ConfigError, match="'requests_per_minute'"):
            ServiceGenerator("http://stub/complete", requests_per_minute=rate)

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_a_bad_seed_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match="'seed'"):
            ServiceGenerator("http://stub/complete", seed=seed)

    def test_rate_limiter_spaces_requests(self, stub_server):
        sleeps = []
        gen = ServiceGenerator(
            stub_server, requests_per_minute=120, sleep=sleeps.append
        )
        gen.generate(_spec())
        gen.generate(_spec())
        assert sleeps and 0 < sleeps[0] <= 0.5
