"""loccgraph benchmark: decide/verify latency and throughput per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-sets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # one child process each

Each workload is a closed loop with one client: one decision at a time, no
threads. Every instance takes the path of `loccgraph decide`: parse the JSON
states document, decide in the stated direction, serialize the verdict,
then re-check it with `verify_certificate`. Every verdict is compared with
its known answer; `Unknown` fails except on the instances that the
known-answer table marks as possibly undecided. `--trace 1` runs a separate
traced invocation that reports per-layer calls, busy and self times and
exact work counters.

Times are reported at a reference host speed: a timer signal samples a
small fixed calibration kernel every 10 ms while the passes run, and each
timed call is scaled by the reference kernel time over the kernel times
sampled around it (see `HostSpeed`). This removes the guest's speed steps
on a shared machine from the figures; the unscaled wall times are in the
report line.

Per workload the output holds a JSON report line (percentiles used, sample
counts, unscaled times, kernel times, failures and undecided instances by
name, probe results, the environment), then one line per metric with its
unit. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("small-sets", "large-obstruction", "convex-protocols")

# Each run makes at least this many whole passes. The tail percentile is
# chosen from this minimum sample count, so a faster or slower host reports
# the same percentile and runs compare like with like: p95 on small-sets,
# p75 on large-obstruction, p90 on convex-protocols. With one pass more
# each (p99 and p95), host stalls of a few milliseconds landing on
# sub-millisecond calls moved those tails by up to 40% between two sets of
# runs of the same code.
MIN_PASSES = {"small-sets": 4, "large-obstruction": 4, "convex-protocols": 1}
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0)
SETUP_REPEATS = 5

# Host-speed calibration. On a shared virtual machine the speed of the
# whole guest steps between states up to 1.75x apart that last from
# fractions of a second to minutes, so two runs of the same code see
# different mixes of them. While a pass runs, a timer signal every
# SAMPLE_PERIOD_S runs a small fixed kernel that uses neither loccgraph
# nor the benchmark's inputs, and records how long it took. Each timed
# interval loses the time its samples took and is scaled by
# REFERENCE_KERNEL_MS over the median kernel time of the samples in it,
# widened to at least SCALE_WINDOW_S around its middle. The time metrics
# are thus milliseconds (seconds) on a host on which the kernel takes
# REFERENCE_KERNEL_MS; the report line also gives the unscaled figures
# and the kernel's own times.
REFERENCE_KERNEL_MS = 0.2
SAMPLE_PERIOD_S = 0.01
SCALE_WINDOW_S = 0.05
SCALE_MIN_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = 50.0
    for p in TAIL_LADDER:
        if min_samples * (100.0 - p) >= 10 * 100.0:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def kernel_ms() -> float:
    """Time one run of the calibration kernel: interpreted dict, list and
    sort work and small dense linear algebra, the mix loccgraph spends its
    time on, with no call into loccgraph."""
    import numpy

    start = time.perf_counter()
    matrix = numpy.linspace(-1.0, 1.0, 64).reshape(8, 8)
    matrix = matrix + matrix.T
    counts: dict = {}
    for i in range(80):
        key = (i * 7) % 53
        counts[key] = counts.get(key, 0) + i
        sorted(counts.values())
    for _ in range(3):
        numpy.linalg.eigh(matrix)
        matrix @ matrix
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """Samples the calibration kernel on a timer signal while a pass runs.

    `starts` and `kernel_ms` hold each sample's start time and duration;
    one sample is taken as sampling starts and one as it stops, so every
    interval of the pass has samples on both sides."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_ms: list[float] = []
        self.sample_ms: list[float] = []   # the whole sample, warm-up included
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:   # a signal that lands inside a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel_ms()   # refills the caches the program under test evicted
        self.kernel_ms.append(kernel_ms())
        self.sample_ms.append((time.perf_counter() - start) * 1e3)
        self.starts.append(start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_KERNEL_MS over the median kernel time of the samples
        taken between `start` and `end`, the window widened to at least
        SCALE_WINDOW_S around its middle and to SCALE_MIN_SAMPLES samples."""
        middle = (start + end) / 2.0
        half = max(end - start, SCALE_WINDOW_S) / 2.0
        while True:
            lo = bisect.bisect_left(self.starts, middle - half)
            hi = bisect.bisect_right(self.starts, middle + half)
            if hi - lo >= SCALE_MIN_SAMPLES or hi - lo == len(self.starts):
                break
            half *= 2.0
        return REFERENCE_KERNEL_MS / statistics.median(self.kernel_ms[lo:hi])

    def scaled_ms(self, start: float, end: float) -> tuple[float, float]:
        """The interval in unscaled and in reference milliseconds, both
        without the samples taken inside it."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        ms = (end - start) * 1e3 - sum(self.sample_ms[lo:hi])
        return ms, ms * self.factor(start, end)


@dataclass
class Pass:
    """One pass over a workload's instances, with every answer checked.

    The timings are (start, end) clock readings: parse to verify per
    instance, and the `decide` and `verify_certificate` calls."""

    wall_s: float = 0.0
    speed: HostSpeed | None = None
    instance: list = field(default_factory=list)
    decide: list = field(default_factory=list)
    verify: list = field(default_factory=list)
    raised: list = field(default_factory=list)
    wrong: list = field(default_factory=list)   # unverified or contradicted
    undecided: list = field(default_factory=list)
    verdict_bytes: int = 0

    @property
    def failures(self) -> list:
        return self.raised + self.wrong

    def ms(self, intervals: list, reference: bool) -> list[float]:
        """The intervals in milliseconds, unscaled or at the reference speed."""
        return [self.speed.scaled_ms(start, end)[reference] for start, end in intervals]


def run_pass(instances, tracer=None, calibrate=False) -> Pass:
    """One pass; with `calibrate` the host-speed sampler runs throughout."""
    result = Pass(speed=HostSpeed() if calibrate else None)
    start = time.perf_counter()
    with result.speed or contextlib.nullcontext():
        _run_instances(instances, result, tracer)
    result.wall_s = time.perf_counter() - start
    return result


def _run_instances(instances, result: Pass, tracer) -> None:
    from loccgraph import criteria, serialize

    for inst in instances:
        close = None
        if tracer is not None:
            tracer.instance = inst.name
            close = tracer.start_span("bench.instance")
        begin = time.perf_counter()
        try:
            states = serialize.states_from_json(json.loads(inst.document))
            t0 = time.perf_counter()
            verdict = criteria.decide(states, inst.direction)
            t1 = time.perf_counter()
            text = json.dumps(serialize.verdict_to_json(verdict))
            t2 = time.perf_counter()
            ok = criteria.verify_certificate(states, verdict).ok
            t3 = time.perf_counter()
        except Exception as exc:  # reported by instance, the loop goes on
            result.raised.append(f"{inst.name}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            result.instance.append((begin, time.perf_counter()))
            if close is not None:
                close()
        result.decide.append((t0, t1))
        result.verify.append((t2, t3))
        result.verdict_bytes += len(text)
        if not ok:
            result.wrong.append(f"{inst.name}: certificate does not verify")
        elif verdict.status == criteria.UNKNOWN and inst.undecided_ok:
            result.undecided.append(inst.name)
        elif verdict.status != inst.expected:
            result.wrong.append(f"{inst.name}: {verdict.status}, known answer {inst.expected}")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def import_seconds(src: str) -> float:
    """Time `import loccgraph` in a fresh interpreter, as a CLI call pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import loccgraph; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def setup(workload: str, seed: int, src: str):
    """Import, generate and encode SETUP_REPEATS times; all builds must agree.

    Each set-up runs under the host-speed sampler: the build is scaled
    like a timed call, and the import, which runs in a child process, by
    the samples this process takes while it waits. Only the first build is
    kept; the others are compared by digest, so the process never holds
    more than two builds at once."""
    import workloads

    times, digests, first = [], set(), None
    for _ in range(SETUP_REPEATS):
        with HostSpeed() as speed:
            waited = time.perf_counter()
            import_s = import_seconds(src)
            t0 = time.perf_counter()
            build = workloads.build(workload, seed)
            t1 = time.perf_counter()
        build_ms, scaled_build_ms = speed.scaled_ms(t0, t1)
        times.append((import_s, build_ms / 1e3,
                      import_s * speed.factor(waited, t0) + scaled_build_ms / 1e3))
        digest = hashlib.sha256()
        for inst in build[0] + build[1]:
            digest.update(inst.document.encode())
        digests.add(digest.digest())
        first = first or build
    return first, times, len(digests) == 1


def measure(workload: str, seed: int, seconds: float, src: str):
    (instances, probe), setup_times, deterministic = setup(workload, seed, src)
    run_pass(instances[:1], calibrate=True)   # warm-up, not counted
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES[workload] or time.perf_counter() - start < seconds:
        passes.append(run_pass(instances, calibrate=True))
    # the known-defect instances, once and untimed: a raise is the defect
    # they stand for, a wrong answer is still wrong
    probed = run_pass(probe)

    decide_ms = [x for p in passes for x in p.ms(p.decide, True)]
    verify_ms = [x for p in passes for x in p.ms(p.verify, True)]
    instance_ms = [x for p in passes for x in p.ms(p.instance, True)]
    raw_decide = [x for p in passes for x in p.ms(p.decide, False)]
    raw_verify = [x for p in passes for x in p.ms(p.verify, False)]
    raw_instance = [x for p in passes for x in p.ms(p.instance, False)]
    kernels = [ms for p in passes for ms in p.speed.kernel_ms]
    if not decide_ms:
        raise SystemExit(f"perfbench: no {workload} instance completed: {passes[0].failures[:3]}")
    tail = tail_percentile(MIN_PASSES[workload] * len(instances))
    attempted = len(instances) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    undecided = sum(len(p.undecided) for p in passes)
    metrics = {
        "setup_s": (statistics.median(scaled for _, _, scaled in setup_times), "s"),
        # instances over their summed parse-to-verify times, samples excluded
        "instances_per_s": (attempted / (sum(instance_ms) / 1e3), "1/s"),
        "decide_p50_ms": (percentile(decide_ms, 50.0), "ms"),
        "decide_tail_ms": (percentile(decide_ms, tail), "ms"),
        "verify_p50_ms": (percentile(verify_ms, 50.0), "ms"),
        "verify_tail_ms": (percentile(verify_ms, tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "instances_per_pass": len(instances),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "shares": {
            "failed_share": (failed / attempted, f"{failed}/{attempted}"),
            "undecided_share": (undecided / attempted, f"{undecided}/{attempted}"),
        },
        "failures": sorted({f for p in passes for f in p.failures}),
        "undecided": sorted({n for p in passes for n in p.undecided}),
        "probe": probed.failures + [f"{n}: undecided" for n in probed.undecided],
        "tail": {
            "percentile": tail,
            "decide_samples": len(decide_ms),
            "verify_samples": len(verify_ms),
            "decide_beyond": sum(1 for x in decide_ms if x > metrics["decide_tail_ms"][0]),
            "verify_beyond": sum(1 for x in verify_ms if x > metrics["verify_tail_ms"][0]),
        },
        # the same figures in plain wall time, and the kernel that scales them
        "unscaled": {
            "instances_per_s": attempted / (sum(raw_instance) / 1e3),
            "decide_p50_ms": percentile(raw_decide, 50.0),
            "decide_tail_ms": percentile(raw_decide, tail),
            "verify_p50_ms": percentile(raw_verify, 50.0),
            "verify_tail_ms": percentile(raw_verify, tail),
            "setup_s": statistics.median(i + b for i, b, _ in setup_times),
        },
        "kernel_ms": {
            "reference": REFERENCE_KERNEL_MS,
            "count": len(kernels),
            "p10": percentile(kernels, 10.0),
            "p50": percentile(kernels, 50.0),
            "p90": percentile(kernels, 90.0),
        },
        "setup": {"import_s": [i for i, _, _ in setup_times],
                  "build_s": [b for _, b, _ in setup_times],
                  "scaled_s": [scaled for _, _, scaled in setup_times],
                  "deterministic": deterministic},
    }
    correct = failed == 0 and deterministic and not probed.wrong
    return correct, attempted, failed, metrics, report


def measure_traced(workload: str, seed: int, seconds: float):
    import layertrace
    import workloads

    setup_tracer = layertrace.Tracer()
    setup_tracer.install(layertrace.SETUP_FUNCTIONS)
    try:
        instances, _ = workloads.build(workload, seed)
    finally:
        setup_tracer.uninstall()

    plain: list[Pass] = []
    traced: list[tuple[Pass, layertrace.Tracer]] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(run_pass(instances))
        tracer = layertrace.Tracer()
        tracer.install_decision_path()
        try:
            traced.append((run_pass(instances, tracer), tracer))
        finally:
            tracer.uninstall()

    counters = [dict(t.exact_counters(), **{"serialize.verdict_bytes": p.verdict_bytes})
                for p, t in traced]
    times = [t.layer_times() for _, t in traced]
    calls = [{name: v[0] for name, v in tm.items()} for tm in times]
    repeat = all(c == counters[0] for c in counters) and all(c == calls[0] for c in calls)

    metrics = {}

    def add(name, per_pass):
        metrics[f"{name}.calls"] = (per_pass[0][0], "count")
        metrics[f"{name}.busy_s"] = (statistics.median(v[1] for v in per_pass), "s")
        metrics[f"{name}.self_s"] = (statistics.median(v[2] for v in per_pass), "s")

    never_called = (0, 0.0, 0.0)
    for name in layertrace.decision_names():
        add(name, [tm.get(name, never_called) for tm in times])
    setup_times = setup_tracer.layer_times()
    for name in layertrace.setup_names():
        add(name, [setup_times.get(name, never_called)])
    metrics["bench.instance.self_s"] = (
        statistics.median(tm["bench.instance"][2] for tm in times), "s")
    units = {"decomposition.feasibility_search.converged_ratio": "ratio",
             "serialize.verdict_bytes": "bytes"}
    for name, value in counters[0].items():
        metrics[name] = (value, units.get(name, "count"))
    untraced_s = statistics.median(p.wall_s for p in plain)
    traced_s = statistics.median(p.wall_s for p, _ in traced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(traced[0][1].spans), "count")

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    setup_tracer.write_spans(spans_path, "setup")
    traced[0][1].write_spans(spans_path, "pass0")

    all_passes = plain + [p for p, _ in traced]
    attempted = len(instances) * len(all_passes)
    failed = sum(len(p.failures) for p in all_passes)
    report = {
        "workload": workload,
        "seed": seed,
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "traced_wall_s": [p.wall_s for p, _ in traced],
        "untraced_wall_s": [p.wall_s for p in plain],
        "exact_counters_repeat": repeat,
        "exact_counters": counters[0],
        "failures": sorted({f for p in all_passes for f in p.failures}),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return failed == 0 and repeat, attempted, failed, metrics, report


def run_all(args) -> int:
    """Run each workload in a child process of its own, so that each reports
    its own peak RSS, and combine their results under prefixed names."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "loccgraph", "__init__.py")):
        print(f"perfbench: no loccgraph sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one client, no threads: keep BLAS single-threaded unless told otherwise
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    # the package under test, and the random generators of its test suite
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    import loccgraph

    if not os.path.abspath(loccgraph.__file__).startswith(src + os.sep):
        print(f"perfbench: loccgraph imported from {loccgraph.__file__}", file=sys.stderr)
        return 2

    name = args.workload
    if args.trace:
        result = measure_traced(name, args.seed, args.seconds)
    else:
        result = measure(name, args.seed, args.seconds, src)
    correct, attempted, failed, metrics, report = result
    report["environment"] = environment()
    print(json.dumps({"report": report}))
    for metric, (value, unit) in metrics.items():
        print(f"{name:18s} {metric:52s} {value!r} {unit}")
    for metric, (value, count) in report.get("shares", {}).items():
        print(f"{name:18s} {metric:52s} {value!r} share ({count})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
