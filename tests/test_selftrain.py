import dataclasses
import errno
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from spskit import selftrain
from spskit.errors import ConfigError, GenerationError
from spskit.generator import GenerationBatch, corpus_stats
from spskit.parser import PcfgBackend, PseudoTree
from spskit.rules import (
    RuleDistribution,
    extract_corpus_rules,
    extract_rules,
    instance_distance,
    token_counts,
)
from spskit.selection import CriterionConfig, score
from spskit.selftrain import Experiment, RunManifest, run, run_multiseed
from spskit.synthetic import cross_domain_experiment
from spskit.treebank import Sentence, parse_bracketed, read_treebank


def small_experiment(seed=0, iterations=2, out_dir=None, **overrides):
    exp = cross_domain_experiment(
        seed=seed, iterations=iterations, pool_size=60, k=10, out_dir=out_dir
    )
    return dataclasses.replace(exp, **overrides) if overrides else exp


def _spied_run(monkeypatch, exp, resume=False, abort_at=None):
    """Run ``exp`` and return what the loop did: each iteration's reference
    with its first scored pair, the trees folded into the stats in order, and
    every recount of the training set.  With ``abort_at`` the run must die
    at the start of its ``abort_at``-th iteration.
    """
    seen = SimpleNamespace(scored=[], folded=[], recounts=[])
    stats_calls = itertools.count(1)

    def scoring(candidates, cfg, refs):
        scored = score(candidates, cfg, refs)
        seen.scored.append((refs.get(cfg.reference_name), scored[0]))
        return scored

    def stats(trees, exclude_labels=(), base=None):
        if next(stats_calls) == abort_at:
            raise RuntimeError(f"killed at iteration {abort_at}")
        seen.folded.extend(trees)
        return corpus_stats(trees, exclude_labels=exclude_labels, base=base)

    def recount(name, original):
        def spy(*args, **kwargs):
            seen.recounts.append(name)
            return original(*args, **kwargs)

        return spy

    with monkeypatch.context() as m:
        m.setattr(selftrain, "score", scoring)
        m.setattr(selftrain, "corpus_stats", stats)
        for name in ("extract_corpus_rules", "token_counts"):
            m.setattr(selftrain, name, recount(name, getattr(selftrain, name)))
        if abort_at is None:
            run(exp, resume=resume)
        else:
            with pytest.raises(RuntimeError, match=f"killed at iteration {abort_at}"):
                run(exp, resume=resume)
    return seen


class TestRunBasics:
    def test_documented_defaults(self):
        # the shipped defaults: four iterations, top 2k of a 10k pool
        exp = small_experiment()
        assert Experiment.__dataclass_fields__["iterations"].default == 4
        assert Experiment.__dataclass_fields__["pool_size"].default == 10000
        assert CriterionConfig(kind="csrs").k == 2000
        assert exp.criterion.kind == "csrs"

    def test_zero_iterations_is_plain_supervised_training(self):
        manifest = run(small_experiment(iterations=0))
        assert len(manifest.records) == 1
        record = manifest.records[0]
        assert record.iteration == 0
        assert record.selected_ids == []
        assert record.train_size == 500
        assert manifest.status == "complete"

    def test_train_size_grows_by_k_each_iteration(self):
        manifest = run(small_experiment(iterations=2))
        sizes = [r.train_size for r in manifest.records]
        assert sizes == [500, 510, 520]
        assert [r.iteration for r in manifest.records] == [0, 1, 2]

    def test_full_pools_and_selection_sizes(self):
        manifest = run(small_experiment(iterations=1))
        record = manifest.records[1]
        assert record.pool_size == 60
        assert len(record.selected_ids) == 10
        assert record.criterion == "csrs"
        assert record.k == 10

    def test_dev_scores_recorded(self):
        manifest = run(small_experiment(iterations=1))
        for record in manifest.records:
            assert record.dev_f1_source is not None
            assert record.dev_f1_target is not None

    def test_csrs_requires_converted_target(self):
        with pytest.raises(ConfigError):
            small_experiment(converted_target_trees=None)

    def test_source_treebank_required(self):
        with pytest.raises(ConfigError):
            small_experiment(source_trees=[])

    @pytest.mark.parametrize("out_dir", [5.5, "", ["run"], b"run"])
    def test_an_out_dir_that_is_no_path_is_refused_at_construction(self, out_dir):
        with pytest.raises(ConfigError, match="'out_dir'"):
            cross_domain_experiment(
                seed=1, iterations=1, pool_size=20, k=5, out_dir=out_dir
            )

    def test_an_out_dir_may_be_a_path_object(self, tmp_path):
        run(cross_domain_experiment(seed=1, iterations=0, out_dir=tmp_path / "run"))
        assert (tmp_path / "run" / "manifest.json").exists()


class TestDeterminism:
    def test_same_seed_identical_manifests(self):
        m1 = run(small_experiment(seed=5, iterations=2))
        m2 = run(small_experiment(seed=5, iterations=2))
        assert m1 == m2

    def test_different_seeds_differ(self):
        m1 = run(small_experiment(seed=5, iterations=1))
        m2 = run(small_experiment(seed=6, iterations=1))
        assert m1 != m2

    @pytest.mark.parametrize(
        "kind, update_reference", [("csrs", False), ("srs", True)],
        ids=["csrs", "srs-update-reference"],
    )
    def test_run_directory_is_identical_across_hash_seeds(
        self, tmp_path, kind, update_reference
    ):
        # Nothing a run writes may depend on str hashing, which differs
        # between processes.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = (
            "import dataclasses, sys\n"
            "from spskit.selftrain import run\n"
            "from spskit.synthetic import cross_domain_experiment\n"
            "exp = cross_domain_experiment(seed=1, iterations=2, pool_size=60, k=10,"
            f" criterion_kind={kind!r}, out_dir=sys.argv[1])\n"
            f"run(dataclasses.replace(exp, update_reference={update_reference}))\n"
        )
        runs = []
        for hash_seed in ("1", "2"):
            out_dir = tmp_path / f"hash_{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            subprocess.run([sys.executable, "-c", code, str(out_dir)], env=env, check=True)
            runs.append({
                p.relative_to(out_dir): p.read_bytes()
                for p in sorted(out_dir.rglob("*"))
            })
        assert len(runs[0]) == 5  # the manifest, and two files per iteration
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "kind, update_reference, digest",
        [
            ("csrs", False,
             "333a6106c776e903d5e1943d0b15b5ef671bd3ec18cf82bef4d5776118b2e40f"),
            ("token", True,
             "91a2f77963e996ad0371357c67469f2494068ffd7b70bf0c632bc68cea285637"),
            ("srs", True,
             "68145059529dd6cff7e3af12696b76445080cb9d5941c7833d289b6287b833b9"),
            ("srs_conf", True,
             "6d828f001b532f858d54c5eaa3e78b3b9580489dc267bb3d6e07305ee4bda221"),
        ],
        ids=["csrs", "token-update-reference", "srs-update-reference",
             "srs_conf-update-reference"],
    )
    def test_demo_experiment_results_are_pinned(self, kind, update_reference, digest):
        # Speed-ups to the parser, generator or scorer must leave every
        # pool, selection and dev score of the demo experiment unchanged.
        exp = cross_domain_experiment(seed=1, criterion_kind=kind)
        records = run(dataclasses.replace(exp, update_reference=update_reference)).records
        summary = json.dumps([
            [r.iteration, r.pool_size, r.selected_ids, r.dev_f1_source, r.dev_f1_target]
            for r in records
        ])
        assert hashlib.sha256(summary.encode("utf-8")).hexdigest() == digest


class TestMultiseed:
    def test_single_seed_aggregate_equals_the_run(self):
        exp = small_experiment(iterations=1)
        single = run(dataclasses.replace(exp, seed=9))
        report = run_multiseed(exp, [9])
        assert report["seeds"] == [9]
        expected = [r.dev_f1_target for r in single.records]
        assert report["mean_target_f1"] == expected

    def test_failures_allow_partial_aggregation(self, caplog, monkeypatch):
        import logging

        import spskit.selftrain as st_mod

        exp = small_experiment(iterations=1)
        original = st_mod.run

        def fail_seed_13(experiment, resume=False):
            if experiment.seed == 13:
                raise RuntimeError("backend lost")
            return original(experiment, resume=resume)

        monkeypatch.setattr(st_mod, "run", fail_seed_13)
        with caplog.at_level(logging.WARNING):
            report = st_mod.run_multiseed(exp, [12, 13])
        assert report["seeds"] == [12]
        assert any("13" in r.message for r in caplog.records)

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigError):
            run_multiseed(small_experiment(), [])

    def test_a_repeated_seed_is_rejected_before_any_run(self, monkeypatch):
        # Both runs of seed 4 would write into the one seed_4 directory.
        runs = []
        monkeypatch.setattr(selftrain, "run", lambda exp, resume=False: runs.append(exp))
        with pytest.raises(ConfigError, match="must not repeat"):
            run_multiseed(small_experiment(iterations=1), [4, 1, 4])
        assert runs == []


class TestLeakageExclusion:
    def test_dev_sentences_never_reach_pools_or_training(self, tmp_path):
        exp = small_experiment(iterations=1, pool_size=10, out_dir=str(tmp_path))
        dev_sentence = exp.target_dev[0].sentence()

        class LeakyGenerator:
            """Always offers a dev sentence along with filler sentences."""

            name = "mock-pcfg"

            def __init__(self, inner):
                self.inner = inner

            def generate(self, spec):
                batch = self.inner.generate(spec)
                return GenerationBatch(
                    sentences=(dev_sentence,) + batch.sentences,
                    provenance=batch.provenance,
                )

        exp = dataclasses.replace(
            exp, generator_backend=LeakyGenerator(exp.generator_backend)
        )
        manifest = run(exp)
        selected = read_treebank(tmp_path / "selected_iter_1.txt")
        trained_sentences = {tuple(t.leaves()) for t in selected}
        assert tuple(dev_sentence.tokens) not in trained_sentences

    def test_exclude_sentences_extends_the_ban(self):
        exp = small_experiment(iterations=0)
        banned = exp.target_examples[0]
        exp = dataclasses.replace(exp, exclude_sentences=(banned,))
        # the example pool visible to prompts must not contain the banned one
        manifest = run(exp)
        assert manifest.status == "complete"

    def test_all_examples_excluded_is_an_error(self):
        exp = small_experiment(iterations=0)
        exp = dataclasses.replace(
            exp, exclude_sentences=tuple(exp.target_examples)
        )
        with pytest.raises(ConfigError):
            run(exp)


class TestBuildRefs:
    @pytest.mark.parametrize(
        "kind, built",
        [
            ("token", "source_tokens"),
            ("srs_conf", "source_rules"),
            ("csrs", "converted_target_rules"),
            ("conf", None),
        ],
        ids=["token", "srs_conf", "csrs", "conf"],
    )
    def test_only_the_reference_the_criterion_reads_is_built(self, kind, built):
        exp = small_experiment()
        criterion = CriterionConfig(kind=kind, exclude_labels=("adv",))
        refs = selftrain.build_refs(
            criterion, exp.source_trees, exp.converted_target_trees
        )
        expected = {
            "source_tokens": token_counts(exp.source_trees),
            "source_rules": extract_corpus_rules(exp.source_trees, ("adv",)),
            "converted_target_rules": extract_corpus_rules(
                exp.converted_target_trees, ("adv",)
            ),
        }
        for name, counts in expected.items():
            reference = getattr(refs, name)
            if name == built:
                assert reference.counts == counts
            else:
                assert reference is None

    def test_a_reference_without_its_corpus_is_missing(self):
        exp = small_experiment()
        candidates = [PseudoTree(t.sentence(), t, 0.5) for t in exp.source_trees[:3]]
        for criterion, source, converted in (
            (CriterionConfig(kind="srs"), None, exp.converted_target_trees),
            (CriterionConfig(kind="csrs"), exp.source_trees, None),
        ):
            refs = selftrain.build_refs(criterion, source, converted)
            with pytest.raises(ConfigError, match="missing reference distribution"):
                score(candidates, criterion, refs)


class TestExcludeLabels:
    def test_one_list_reaches_stats_reference_and_candidates(self, monkeypatch):
        # The criterion's exclude_labels is the run's only exclude-label list:
        # the prompt stats, the reference and the candidate features all get it.
        seen = set()

        def stats(trees, exclude_labels=(), base=None):
            seen.add(("stats", exclude_labels))
            return corpus_stats(trees, exclude_labels=exclude_labels, base=base)

        def reference(trees, exclude_labels=()):
            seen.add(("reference", exclude_labels))
            return extract_corpus_rules(trees, exclude_labels=exclude_labels)

        def candidates(pool, cfg, refs):
            seen.add(("candidates", cfg.exclude_labels))
            return score(pool, cfg, refs)

        monkeypatch.setattr(selftrain, "corpus_stats", stats)
        monkeypatch.setattr(selftrain, "extract_corpus_rules", reference)
        monkeypatch.setattr(selftrain, "score", candidates)
        criterion = CriterionConfig(kind="csrs", k=10, exclude_labels=["adv"])
        run(small_experiment(iterations=2, criterion=criterion))
        assert seen == {
            ("stats", ("adv",)), ("reference", ("adv",)), ("candidates", ("adv",))
        }

    def test_a_candidate_without_rules_is_dropped_not_fatal(self):
        # "。" parses as (s (w 。)), which has no rule once "w" is excluded.
        source = [
            parse_bracketed(text)
            for text in (
                "(s (w 。))",
                "(s (subj (n a)) (pred (v b)) (w 。))",
                "(s (subj (n a)) (pred (v b)))",
            )
        ]

        class Stub:
            name = "stub"

            def generate(self, spec):
                sentences = (Sentence(("。",)), Sentence(("a", "b", "。")))
                return GenerationBatch(sentences, {"backend": "stub"})

        exp = Experiment(
            source_trees=source,
            target_examples=[t.sentence() for t in source],
            parser_backend=PcfgBackend(),
            generator_backend=Stub(),
            criterion=CriterionConfig(kind="csrs", k=1, exclude_labels=["w"]),
            converted_target_trees=source,
            iterations=1,
            pool_size=2,
        )
        manifest = run(exp)
        assert manifest.status == "complete"
        assert manifest.records[1].selected_ids == [1]


class TestIncrementalStats:
    @pytest.mark.parametrize("seed, exclude_labels", [(1, ()), (7, ("adv",))])
    def test_stats_equal_a_recount_of_the_training_set(
        self, seed, exclude_labels, tmp_path, monkeypatch
    ):
        seen = []

        def recording(trees, exclude_labels=(), base=None):
            stats = corpus_stats(trees, exclude_labels=exclude_labels, base=base)
            seen.append(stats)
            return stats

        monkeypatch.setattr(selftrain, "corpus_stats", recording)
        exp = small_experiment(seed=seed, iterations=3, out_dir=str(tmp_path))
        exp = dataclasses.replace(
            exp,
            criterion=dataclasses.replace(exp.criterion, exclude_labels=exclude_labels),
        )
        run(exp)
        assert len(seen) == 3
        pseudo = []
        for iteration, stats in enumerate(seen, start=1):
            recount = corpus_stats(
                list(exp.source_trees) + pseudo, exclude_labels=exclude_labels
            )
            assert stats == recount
            assert stats.mean_length.hex() == recount.mean_length.hex()
            pseudo += read_treebank(tmp_path / f"selected_iter_{iteration}.txt")

    def test_folding_in_nothing_keeps_the_stats(self):
        base = corpus_stats(small_experiment().source_trees)
        assert corpus_stats([], base=base) == base
        with pytest.raises(ValueError):
            corpus_stats([])


class TestPersistenceAndResume:
    def test_artifacts_written_incrementally(self, tmp_path):
        exp = small_experiment(iterations=2, out_dir=str(tmp_path))
        manifest = run(exp)
        assert (tmp_path / "manifest.json").exists()
        for i in (1, 2):
            assert (tmp_path / f"selected_iter_{i}.txt").exists()
            sidecar = json.loads(
                (tmp_path / f"scores_iter_{i}.json").read_text(encoding="utf-8")
            )
            assert len(sidecar) == 10
            assert {"id", "kind", "score", "confidence"} <= set(sidecar[0])
        reloaded = RunManifest.load(tmp_path / "manifest.json")
        assert reloaded == manifest

    def test_aborted_run_persists_completed_iterations(self, tmp_path):
        exp = small_experiment(iterations=3, out_dir=str(tmp_path))

        class FailsOnThirdIteration:
            name = "mock-pcfg"

            def __init__(self, inner):
                self.inner = inner
                self.iteration_calls = 0

            def generate(self, spec):
                return self.inner.generate(spec)

        # fail by poisoning the parser backend at the 3rd retraining instead,
        # which is an unrecoverable error by contract
        class FlakyParser:
            name = "pcfg"

            def __init__(self, inner):
                self.inner = inner
                self.trains = 0

            def train(self, trees):
                self.trains += 1
                if self.trains == 4:  # iteration 0,1,2 trainings pass
                    raise RuntimeError("backend lost")
                return self.inner.train(trees)

            def parse(self, model, sentence):
                return self.inner.parse(model, sentence)

        exp = dataclasses.replace(exp, parser_backend=FlakyParser(exp.parser_backend))
        with pytest.raises(RuntimeError):
            run(exp)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.status == "aborted"
        assert [r.iteration for r in manifest.records] == [0, 1, 2]

    # Six generator calls per iteration: failing after 0, 8 or 12 calls
    # aborts iteration 1, 2 or 3; None lets the first run complete.
    @pytest.mark.parametrize(
        "fail_after, records_on_disk",
        [(0, 1), (8, 2), (12, 3), (None, 4)],
        ids=["iter0-only", "mid-run", "last-iter", "complete"],
    )
    def test_resume_reproduces_a_straight_run(
        self, tmp_path, fail_after, records_on_disk
    ):
        straight = run(small_experiment(seed=3, iterations=3))

        resumable_dir = tmp_path / "resumable"
        exp = small_experiment(seed=3, iterations=3, out_dir=str(resumable_dir))

        class FailsEventually:
            name = "mock-pcfg"

            def __init__(self, inner, fail_after):
                self.inner = inner
                self.calls = 0
                self.fail_after = fail_after

            def generate(self, spec):
                self.calls += 1
                if self.fail_after is not None and self.calls > self.fail_after:
                    raise RuntimeError("backend lost")
                return self.inner.generate(spec)

        broken = dataclasses.replace(
            exp,
            generator_backend=FailsEventually(exp.generator_backend, fail_after),
        )
        if fail_after is None:
            run(broken)
        else:
            with pytest.raises(RuntimeError):
                run(broken)
        partial = RunManifest.load(resumable_dir / "manifest.json")
        assert partial.status == ("complete" if fail_after is None else "aborted")
        assert len(partial.records) == records_on_disk
        files = {p.name: p.read_bytes() for p in resumable_dir.iterdir()}

        resumed = run(exp, resume=True)
        assert resumed.status == "complete"
        assert resumed.records == straight.records
        for name, data in files.items():
            if name != "manifest.json":
                assert (resumable_dir / name).read_bytes() == data
        if fail_after is None:
            manifest = (resumable_dir / "manifest.json").read_bytes()
            assert manifest == files["manifest.json"]

    def test_resuming_a_complete_run_does_not_train(self, tmp_path):
        exp = small_experiment(seed=3, iterations=1, out_dir=str(tmp_path))
        finished = run(exp)

        class CountingParser:
            name = "pcfg"

            def __init__(self, inner):
                self.inner = inner
                self.trains = 0

            def train(self, trees):
                self.trains += 1
                return self.inner.train(trees)

            def parse(self, model, sentence):
                return self.inner.parse(model, sentence)

        counting = CountingParser(exp.parser_backend)
        resumed = run(dataclasses.replace(exp, parser_backend=counting), resume=True)
        assert counting.trains == 0
        assert resumed == finished

    def test_resume_with_mismatched_config_is_rejected(self, tmp_path):
        exp = small_experiment(seed=1, iterations=1, out_dir=str(tmp_path))
        run(exp)
        changed = small_experiment(seed=2, iterations=1, out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run(changed, resume=True)

    def test_resume_without_out_dir_is_rejected(self):
        with pytest.raises(ConfigError):
            run(small_experiment(), resume=True)

    @staticmethod
    def write_damaged(path, damage):
        """Rewrite the manifest at ``path`` as a run aborted after its last
        iteration, with one ``damage`` applied."""
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["status"] = "aborted"
        if damage == "artifacts-list":
            manifest["artifacts"] = []
        elif damage == "missing-selected-artifact":
            del manifest["artifacts"]["selected_iter_1"]
        else:
            manifest["records"][1]["iteration"] = None
        path.write_text(json.dumps(manifest), encoding="utf-8")

    @pytest.mark.parametrize(
        "damage", ["artifacts-list", "missing-selected-artifact", "null-iteration"]
    )
    def test_resume_refuses_a_damaged_manifest_naming_it(self, tmp_path, damage):
        exp = small_experiment(seed=3, iterations=2, out_dir=str(tmp_path))
        run(exp)
        path = tmp_path / "manifest.json"
        self.write_damaged(path, damage)
        with pytest.raises(ConfigError) as err:
            run(exp, resume=True)
        assert str(path) in str(err.value)

    def test_a_damaged_seed_manifest_stops_a_multiseed_resume(self, tmp_path):
        # A damaged seed is no tolerated run failure: aggregating the other
        # seed alone would silently replace the full aggregate.
        exp = small_experiment(iterations=1, out_dir=str(tmp_path))
        run_multiseed(exp, [1, 2])
        path = tmp_path / "seed_2" / "manifest.json"
        self.write_damaged(path, "missing-selected-artifact")
        with pytest.raises(ConfigError) as err:
            run_multiseed(exp, [1, 2], resume=True)
        assert str(path) in str(err.value)

    def test_a_failed_artifact_write_leaves_a_resumable_run(
        self, tmp_path, monkeypatch
    ):
        # An iteration's record joins the manifest only once the files it
        # names are written, so a full disk leaves a manifest resume accepts.
        def experiment(out_dir):
            return cross_domain_experiment(
                seed=1, iterations=2, pool_size=30, k=5, out_dir=str(out_dir)
            )

        straight, broken = tmp_path / "straight", tmp_path / "broken"
        run(experiment(straight))
        write_json = selftrain.write_json

        def disk_full(path, data):
            if os.path.basename(path) == "scores_iter_2.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            write_json(path, data)

        with monkeypatch.context() as m:
            m.setattr(selftrain, "write_json", disk_full)
            with pytest.raises(OSError):
                run(experiment(broken))
        assert RunManifest.load(broken / "manifest.json").status == "aborted"
        run(experiment(broken), resume=True)

        def files(directory):
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        assert files(broken) == files(straight)

    def test_a_missing_replayed_artifact_stops_a_multiseed_resume(self, tmp_path):
        # A seed that cannot be replayed is no tolerated run failure either.
        exp = small_experiment(iterations=1, out_dir=str(tmp_path))
        run_multiseed(exp, [1, 2])
        path = tmp_path / "seed_2" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["status"] = "aborted"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        missing = tmp_path / "seed_2" / "selected_iter_1.txt"
        missing.unlink()
        with pytest.raises(ConfigError) as err:
            run_multiseed(exp, [1, 2], resume=True)
        assert str(err.value) == f"manifest {path}: input file not found: {missing}"

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("iteration", True, "'records[1].iteration'"),
            ("pool_size", 1.5, "'records[1].pool_size'"),
            ("selected_ids", "0 1", "'records[1].selected_ids'"),
            ("selected_ids", [0, "1"], "'records[1].selected_ids[1]'"),
            ("criterion", 7, "'records[1].criterion'"),
            ("dev_f1_target", "97.5", "'records[1].dev_f1_target'"),
            ("seed", None, "'records[1].seed'"),
        ],
    )
    def test_load_refuses_a_record_value_of_another_type(
        self, tmp_path, key, value, named
    ):
        run(small_experiment(seed=3, iterations=1, out_dir=str(tmp_path)))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["records"][1][key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            RunManifest.load(path)
        assert str(err.value).startswith(f"manifest {path}: {named} must be ")

    def test_load_refuses_an_artifact_that_is_no_string(self, tmp_path):
        run(small_experiment(seed=3, iterations=1, out_dir=str(tmp_path)))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["artifacts"]["scores_iter_1"] = 5
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ConfigError, match="'artifacts' must be an object of strings"):
            RunManifest.load(path)


class TestAdaptationTrend:
    def test_target_f1_trend_non_decreasing_on_most_seeds(self):
        improving = 0
        for seed in (1, 2, 3):
            manifest = run(small_experiment(seed=seed, iterations=2))
            records = manifest.records
            if records[-1].dev_f1_target >= records[0].dev_f1_target:
                improving += 1
        assert improving >= 2

    @pytest.mark.parametrize(
        "kind, exclude_labels",
        [("token", ()), ("srs", ()), ("srs_conf", ()), ("srs", ("adv",))],
        ids=["token", "srs", "srs_conf", "srs-exclude-adv"],
    )
    def test_update_reference_flag_runs(
        self, tmp_path, monkeypatch, kind, exclude_labels
    ):
        # The reference follows the training set: iteration i scores against
        # the source trees plus the trees iterations 1..i-1 selected, read
        # from the running count that folds each training tree in once.
        criterion = CriterionConfig(kind=kind, k=10, exclude_labels=exclude_labels)
        exp = small_experiment(
            iterations=3,
            out_dir=str(tmp_path),
            criterion=criterion,
            update_reference=True,
        )
        seen = _spied_run(monkeypatch, exp)
        assert seen.recounts == []
        assert len(seen.scored) == 3
        train_set = list(exp.source_trees)
        for iteration, (reference, (candidate, distance)) in enumerate(
            seen.scored, start=1
        ):
            if kind == "token":
                fresh = RuleDistribution(token_counts(train_set))
                features = Counter(candidate.sentence.tokens)
            else:
                fresh = RuleDistribution(extract_corpus_rules(train_set, exclude_labels))
                features = extract_rules(candidate.tree, exclude_labels)
            assert reference.counts == fresh.counts
            assert distance.hex() == instance_distance(features, fresh).hex()
            if iteration < 3:
                train_set += read_treebank(tmp_path / f"selected_iter_{iteration}.txt")
        assert seen.folded == train_set  # each training tree once, in order

    @pytest.mark.parametrize("kind", ["token", "srs"])
    def test_a_resumed_run_follows_the_same_reference(
        self, tmp_path, monkeypatch, kind
    ):
        def experiment(out_dir):
            return small_experiment(
                iterations=3,
                out_dir=str(out_dir),
                criterion=CriterionConfig(kind=kind, k=10),
                update_reference=True,
            )

        def counts(seen):
            return [reference.counts for reference, _ in seen.scored]

        straight = _spied_run(monkeypatch, experiment(tmp_path / "straight"))
        aborted = _spied_run(monkeypatch, experiment(tmp_path / "resumed"), abort_at=2)
        resumed = _spied_run(monkeypatch, experiment(tmp_path / "resumed"), resume=True)
        assert aborted.recounts == resumed.recounts == []
        assert counts(aborted) + counts(resumed) == counts(straight)

    @pytest.mark.parametrize("kind", ["conf", "csrs", "csrs_conf"])
    def test_update_reference_is_rejected_where_the_reference_is_fixed(self, kind):
        with pytest.raises(ConfigError, match=f"'update_reference'.*'{kind}'"):
            small_experiment(
                criterion=CriterionConfig(kind=kind, k=10), update_reference=True
            )


class TestGenerationDegradation:
    def test_failing_batches_shrink_the_pool_but_not_the_run(self, caplog):
        import logging

        exp = small_experiment(iterations=1, pool_size=30)

        class Unreliable:
            name = "mock-pcfg"

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def generate(self, spec):
                self.calls += 1
                if self.calls % 2 == 0:
                    raise GenerationError("transient")
                return self.inner.generate(spec)

        exp = dataclasses.replace(
            exp, generator_backend=Unreliable(exp.generator_backend)
        )
        with caplog.at_level(logging.WARNING):
            manifest = run(exp)
        assert manifest.status == "complete"
        assert manifest.records[1].pool_size == 30  # retries filled it anyway

    def test_total_generation_failure_gives_empty_pool_and_no_selection(self):
        exp = small_experiment(iterations=1, pool_size=20)

        class Dead:
            name = "mock-pcfg"

            def generate(self, spec):
                raise GenerationError("down")

        exp = dataclasses.replace(exp, generator_backend=Dead())
        manifest = run(exp)
        assert manifest.status == "complete"
        record = manifest.records[1]
        assert record.pool_size == 0
        assert record.selected_ids == []
        assert record.train_size == 500
