"""spskit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload parse_long --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; spskit is imported from ``src/`` of
that checkout and nowhere else.  The run sets the workload up several times
(the median is ``setup_s``), then repeats the timed body until ``--seconds``
have passed.  ``run_s``, ``cpu_s`` and ``items_per_s`` come from the median
repetition.  On the shared 2-vCPU VM the benchmark was tuned on, a fixed
loop's speed swung 2x between 5-second windows, and over 55-second runs the
median of 30-45 repetitions spread between runs about half as much as their
minimum did.  Each vCPU shared its core with other tenants on its own
schedule (the two vCPUs' speeds correlated at r = 0.13), so setups and
repetitions alternate between the CPUs the process may use.

Every repetition's output is checked and digested; the digests must agree
with each other and with earlier runs of the same code and seed, kept in
``.perfbench/digests.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, prints the per-layer metrics from the traced
ones (plus ``trace.overhead_s``, median traced minus median untraced body) and
writes the spans to ``.perfbench/trace/``.  ``--tiny`` shrinks every input
for the self-test.

The line before the result is a JSON record of the machine (nproc, Python,
CPU model, load average at start and end, git commit, source hash), the seed,
the per-repetition times, the output digest and the quality numbers; a traced
run adds the median CKY time per sentence-length bucket.  The last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("selftrain_scale", "parse_long", "select_wide", "prepare_treebank")

# Setup repeats until it has taken this long in total, within these counts.
SETUP_MIN_SECONDS = 3.0
SETUP_REPEATS = (5, 100)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_spskit():
    """Import spskit from this checkout's src/; None when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spskit
    except ImportError:
        return None
    if Path(spskit.__file__).resolve().parent.parent != src:
        return None
    return spskit


def source_hash():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """The checked-out commit, read from .git's files; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record():
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
    }


def check_digest_store(key, digest):
    """Record ``digest`` under ``key``; False when an earlier run disagreed."""
    path = STATE_DIR / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    known = store.setdefault(key, digest)
    if known == digest:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return known == digest


class Repetitions:
    """Timings and outcomes of a run's repetitions of the body."""

    def __init__(self):
        self.times = {False: [], True: []}   # traced? -> [(wall, cpu)]
        self.digests = []
        self.quality = None
        self.items = 1   # per repetition; known once one succeeds
        self.attempted = 0
        self.failed = 0


def measure_setup(workload, seed, size, scratch, cpus):
    """Set up until SETUP_MIN_SECONDS have passed; the last inputs and all times."""
    times = []
    while len(times) < SETUP_REPEATS[0] or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_REPEATS[1]
    ):
        os.sched_setaffinity(0, {cpus[len(times) % len(cpus)]})
        state = None   # free the previous inputs, outside the clock
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, size, str(scratch))
        times.append(time.perf_counter() - start)
    return state, times


def measure_body(workload, state, seconds, tracer, scratch, cpus):
    """Repeat the body until ``seconds`` have passed, checking every output.

    With a tracer, repetitions alternate untraced and traced, and the CPU
    changes after each pair so both kinds run on every CPU.
    """
    from tracer import patched

    reps = Repetitions()
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        traced = tracer is not None and rep % 2 == 1
        os.sched_setaffinity(0, {cpus[(rep if tracer is None else rep // 2) % len(cpus)]})
        rep_start = time.perf_counter()
        rep_dir = scratch / f"rep{rep}"
        rep_dir.mkdir()
        prepared = workload.prepare(state, tracer if traced else None, str(rep_dir))
        try:
            if traced:
                tracer.rep = rep
                with patched(tracer), tracer.span(workload.root):
                    wall, cpu, output = _timed(workload.body, prepared, tracer)
            else:
                wall, cpu, output = _timed(workload.body, prepared, None)
            digest, reps.quality = workload.check(prepared, output)
        except Exception:  # noqa: BLE001 - a failed repetition is reported, not fatal
            traceback.print_exc()
            reps.failed += reps.items
        else:
            reps.items = workload.items(prepared, output)
            reps.times[traced].append((wall, cpu))
            reps.digests.append(digest)
        reps.attempted += reps.items
        shutil.rmtree(rep_dir)
        rep += 1
        # Stop before a repetition that would likely overrun the deadline,
        # once each kind of repetition has been tried; a kind that failed
        # leaves its metrics out and the run incorrect.
        now = time.perf_counter()
        out_of_time = now + (now - rep_start) > deadline
        tried_both = tracer is None or rep >= 2
        if (out_of_time and tried_both) or (rep >= 2 and reps.failed == reps.attempted):
            return reps


def digests_agree(reps, key):
    """True when every repetition and every earlier run under ``key`` agree."""
    if len(set(reps.digests)) > 1:
        print("perfbench: output digests differ between repetitions", file=sys.stderr)
        return False
    if reps.digests and not check_digest_store(key, reps.digests[0]):
        print("perfbench: output digest differs from an earlier run of this "
              "code and seed", file=sys.stderr)
        return False
    return True


def end_to_end_metrics(reps, setup_times):
    untraced = reps.times[False]
    run_s = statistics.median(w for w, _ in untraced)
    return {
        "run_s": (run_s, "s"),
        "cpu_s": (statistics.median(c for _, c in untraced), "s"),
        "items_per_s": (reps.items / run_s, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(reps, tracer):
    from tracer import layer_metrics

    traced, untraced = reps.times[True], reps.times[False]
    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _ in traced)
        - statistics.median(w for w, _ in untraced), "s")
    return metrics


def run(args):
    from tracer import Tracer, parse_ms_by_length
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
        **machine_record(),
    }
    tracer = Tracer() if args.trace else None
    cpus = sorted(os.sched_getaffinity(0))
    scratch = STATE_DIR / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        state, setup_times = measure_setup(workload, args.seed, size, scratch, cpus)
        reps = measure_body(workload, state, args.seconds, tracer, scratch, cpus)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(scratch, ignore_errors=True)

    key = f"{args.workload}:{size}:{args.seed}:{record['source_sha256']}"
    if not digests_agree(reps, key):
        reps.failed = reps.attempted
    record.update({
        "loadavg_end": os.getloadavg(),
        "setup_s_all": setup_times,
        "run_s_all": [w for w, _ in reps.times[False]],
        "traced_run_s_all": [w for w, _ in reps.times[True]],
        "digest": reps.digests[0] if reps.digests else None,
        "quality": reps.quality,
    })
    if tracer is not None:
        trace_dir = STATE_DIR / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-{size}-seed{args.seed}.json")
        record["parse_ms_p50_by_length"] = parse_ms_by_length(tracer)

    print(json.dumps({"record": record}))
    print(json.dumps(result(reps, tracer, setup_times)))


def result(reps, tracer, setup_times):
    """The result line: per-layer metrics with a tracer, else end-to-end.

    A run without a successful repetition of each kind it needs has no
    metrics and is not correct.
    """
    metrics = {}
    if tracer is not None:
        if all(reps.times.values()):
            metrics = per_layer_metrics(reps, tracer)
    elif reps.times[False]:
        metrics = end_to_end_metrics(reps, setup_times)
    return {
        "correct": reps.failed == 0 and bool(metrics),
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _timed(body, prepared, tracer):
    wall, cpu = time.perf_counter(), time.process_time()
    output = body(prepared, tracer)
    return time.perf_counter() - wall, time.process_time() - cpu, output


def main(argv=None):
    args = parse_args(argv)
    if import_spskit() is None:
        print(f"perfbench: no spskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
