"""Self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

From the root of a source checkout.  For every workload ``run.py`` knows,
gated by BENCHMARK.json or not, it runs ``run.py --tiny`` untraced and traced
and asserts that the run is correct and that every metric BENCHMARK.json
names is present, numeric and in its unit.  It then corrupts the stored
output digest of one tiny run and asserts that the next run of the same code
and seed is reported as failed; runs a traced body loop in which every traced
(then every untraced) repetition raises, and asserts that it ends on time and
is reported as failed; and runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark, where it must exit non-zero without
printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES, import_spskit, measure_body, result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
SEED = 7


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_tiny(workload, trace):
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(workload, trace, result, expected):
    assert result["correct"] is True, f"{workload} --trace {trace}: not correct: {result}"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = sorted(expected.keys() - got.keys())
    extra = sorted(got.keys() - expected.keys())
    wrong = sorted(n for n in expected.keys() & got.keys() if got[n] != expected[n])
    assert not (missing or extra or wrong), (
        f"{workload} --trace {trace}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def check_corrupted_digest_fails(workload, record):
    store = STATE_DIR / "digests.json"
    key = f"{workload}:tiny:{SEED}:{record['source_sha256']}"
    digests = json.loads(store.read_text())
    original = digests[key]
    digests[key] = "0" * 64
    store.write_text(json.dumps(digests))
    try:
        _, result = run_tiny(workload, 0)
    finally:
        digests[key] = original
        store.write_text(json.dumps(digests, indent=1, sort_keys=True))
    assert result["correct"] is False, result
    assert result["failed"] == result["attempted"] >= 1, result


class FailingKind:
    """A trivial workload whose traced or untraced repetitions all raise."""

    root = "bench.body"

    def __init__(self, fail_traced):
        self.fail_traced = fail_traced

    def prepare(self, state, tracer, rep_dir):
        return state

    def body(self, state, tracer):
        if (tracer is not None) == self.fail_traced:
            raise RuntimeError("injected failure")

    def items(self, state, output):
        return 1

    def check(self, state, output):
        return "digest", None


def check_failing_kind_ends(fail_traced):
    from tracer import Tracer

    seconds = 0.3
    tracer = Tracer()
    scratch = STATE_DIR / "failing"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cpus = sorted(os.sched_getaffinity(0))
    limit = seconds + 5.0

    def overran(signum, frame):
        raise AssertionError(f"the body loop ran past {limit} s for a {seconds} s run")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            reps = measure_body(FailingKind(fail_traced), None, seconds, tracer, scratch, cpus)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(scratch, ignore_errors=True)
    outcome = result(reps, tracer, [0.1])
    assert outcome["correct"] is False and outcome["failed"] >= 1, outcome
    assert outcome["metrics"] == {}, outcome


def check_bare_directory_fails(workload):
    bare = STATE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark ran without the program's sources"
    assert '"correct"' not in proc.stdout, proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(workloads) <= set(WORKLOAD_NAMES), workloads
    records = {}
    for workload in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record, result = run_tiny(workload, trace)
            check_metrics(workload, trace, result, units[key])
            records[workload] = record
            print(f"ok  {workload} --trace {trace}")
    check_corrupted_digest_fails(workloads[0], records[workloads[0]])
    print("ok  a corrupted output digest is reported as a failed run")
    import_spskit()
    for fail_traced in (True, False):
        check_failing_kind_ends(fail_traced)
        kind = "traced" if fail_traced else "untraced"
        print(f"ok  a run whose {kind} repetitions all fail ends on time, failed")
    check_bare_directory_fails(workloads[0])
    print("ok  without the program's sources the benchmark exits non-zero")


if __name__ == "__main__":
    main()
