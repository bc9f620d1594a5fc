"""bellsim benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload mc-throughput --seed 1 --seconds 20 --trace 0

Drives the ``bellsim`` package under ``src/`` in-process through
``bellsim.cli.main(argv)``: one caller, single-threaded, the next call
starting when the previous one returns. Every call's output is checked and
its report digest compared with the references in ``reference.json``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics. The last line of stdout is the result object.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import NamedTuple  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_LAUNCHES = 7
# The child also reports the host's slowness right after its import, and
# how long that report took, so the launch time can be scaled like a call.
SETUP_CODE = (
    "import time, sys; import bellsim.cli, bellsim.verify; done = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[1]); import speed; "
    "print(speed.slowness(), time.perf_counter() - done)"
)
MAX_REPORTED_FAILURES = 5
# Calls of a pass whose heap peak is traced, after the timed loop.
HEAP_CALLS = 48


def import_program():
    """Import bellsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "bellsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bellsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellsim
    import bellsim.cli
    import bellsim.verify

    if SRC not in Path(bellsim.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported bellsim from {bellsim.__file__}, not {SRC}")
    from bellsim import bellcore, cli, measure, photonic, protocols, qstate, verify

    return SimpleNamespace(bellcore=bellcore, cli=cli, measure=measure, photonic=photonic,
                           protocols=protocols, qstate=qstate, verify=verify)


def make_call(cli):
    clock = speed.Clock()

    def invoke(argv):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc(file=sys.__stderr__)
            return 1

    def call(argv, measure=clock.measure):
        """One ``bellsim`` invocation: (exit code, stdout, *what ``measure`` found).

        ``measure(fn)`` runs the invocation and returns (result, a, b): by
        default the speed-scaled clock's raw and scaled (wall, cpu) seconds.
        A trace file named by ``--emit-trace`` is removed first, so the check
        reads only what this call wrote.
        """
        trace_path = checks.arg(argv, "--emit-trace")
        if trace_path:
            Path(trace_path).unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code, a, b = measure(lambda: invoke(argv))
        return code, out.getvalue(), a, b
    return call


class Session:
    """Counts operations attempted and failed; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def passed(self):
        self.attempted += 1

    def fail(self, argv, reason: str):
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{' '.join(argv)}: {reason}")

    def check(self, argv, code, out, expected=None):
        """Check one call; a digest other than ``expected`` (when given) is a failure."""
        if checks.has_children():
            self.fail(argv, "call left a child process behind, outside the CPU clock")
            return None
        try:
            got = checks.check(argv, code, out)
        except (checks.CheckFailure, OSError) as exc:
            self.fail(argv, str(exc))
            return None
        if expected is not None and got != expected:
            self.fail(argv, f"report digest {got} differs from reference {expected}")
            return None
        self.passed()
        return got


def run_guard(call, session, reference):
    """The fixed argv matrix, each report compared with its stored digest."""
    for argv in workloads.guard_matrix():
        code, out, _, _ = call(argv)
        session.check(argv, code, out, reference["guard"][" ".join(argv)])


class Record(NamedTuple):
    """One timed call: raw and speed-scaled (wall, cpu) seconds."""

    pass_no: int
    argv: list
    raw: tuple
    scaled: tuple


def run_passes(call, session, ops, seconds, reference_pass=None):
    """Repeat the pass in a closed loop for ``seconds``, finishing at least one pass.

    Returns (records, complete): one Record per call and the number of
    complete passes. Every pass after the first must reproduce the first
    pass's digests; the first pass's combined digest must match
    ``reference_pass`` when one is stored.
    """
    records, first = [], None
    start = perf_counter()
    for pass_no in itertools.count():
        digests = []
        for argv in ops:
            code, out, raw, scaled = call(argv)
            records.append(Record(pass_no, argv, raw, scaled))
            expected = first[len(digests)] if first else None
            digests.append(session.check(argv, code, out, expected))
            if pass_no and perf_counter() - start >= seconds:
                return records, pass_no
        if first is None:
            first = digests
            if reference_pass and None not in digests and checks.combine(digests) != reference_pass:
                session.fail(["pass"], f"pass digest {checks.combine(digests)} differs from reference")
        if perf_counter() - start >= seconds:
            return records, pass_no + 1


CPU = 1  # index of the CPU time in a Record's (wall, cpu) pairs


def pass_sums(records, complete, scaled=True):
    """Summed CPU time of each complete pass."""
    sums = [0.0] * complete
    for r in records:
        if r.pass_no < complete:
            sums[r.pass_no] += (r.scaled if scaled else r.raw)[CPU]
    return sums


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(records, complete, setup, heap, scaled=True):
    """Every end-to-end metric as name -> (value, unit, samples).

    Times are scaled to the reference machine speed unless ``scaled`` is
    false. ``setup_s`` is wall-clock. Every other time, ``wall_s`` included,
    is on the CPU clock of the process and its reaped children; see NOTES.md.
    """
    cpu = [(r.scaled if scaled else r.raw)[CPU] for r in records]
    latencies = [used * 1e3 for used in cpu]
    runs = [(r.argv, int(checks.arg(r.argv, "--trials")), used)
            for r, used in zip(records, cpu) if r.argv[0] == "run"]
    setup = [scaled_wall if scaled else wall for wall, scaled_wall in setup]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_heap_mb": (heap[0], "MB", heap[1]),
        "wall_s": (statistics.median(pass_sums(records, complete, scaled)), "s", complete),
        "trials_per_s": (sum(n for _, n, _ in runs) / sum(t for _, _, t in runs), "1/s", len(runs)),
    }
    for scheme in workloads.SCHEMES:
        mine = [(n, t) for argv, n, t in runs if checks.arg(argv, "--scheme") == scheme]
        busy = sum(t for _, t in mine)
        trials = sum(n for n, _ in mine)
        metrics[f"us_per_trial.{scheme}"] = (busy / trials * 1e6, "us", len(mine))
    metrics["run_ms.p50"] = (statistics.median(latencies), "ms", len(latencies))
    metrics["run_ms.p99"] = (nearest_rank(latencies, 0.99), "ms", len(latencies))
    return metrics


def heap_peak(fn):
    """Run ``fn()``; return (result, bytes of its heap peak above the heap before it, None).

    A full collection first makes the peak independent of where the
    collector's counters stand when the call starts.
    """
    gc.collect()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, tracemalloc.get_traced_memory()[1] - before, None


def peak_heap(call, session, ops):
    """(MB, calls): the largest heap peak of one call, over the first HEAP_CALLS calls of a pass.

    tracemalloc sees Python objects and numpy buffers. It slows a call
    several-fold, so this runs after the timed loop, without the speed
    probe. Each call runs twice and keeps its lower peak: a one-off resize
    of a process-wide table, such as the interned-string dictionary, can
    land in any call and is not that call's cost.
    """
    peaks = []
    tracemalloc.start()
    try:
        for argv in ops[:HEAP_CALLS]:
            lowest = math.inf
            for _ in range(2):
                code, out, peak, _ = call(argv, heap_peak)
                session.check(argv, code, out)
                lowest = min(lowest, peak)
            peaks.append(lowest)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2**20, len(peaks)


def measure_setup():
    """(raw, scaled) wall seconds from a fresh interpreter to bellsim.cli and bellsim.verify imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE)]
    subprocess.run(cmd, env=env, check=True, capture_output=True)  # writes the .pyc files
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        child = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        wall = perf_counter() - start
        slowness, report = (float(word) for word in child.stdout.split())
        times.append((wall - report, (wall - report) / slowness))
    return times


def machine_info():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "platform": platform.platform(),
    }


def print_table(title, metrics, raw=None):
    """One row per metric; ``raw`` holds the same metrics before speed scaling."""
    print(f"{title:<48} {'value':>14} {'unit':<6} {'samples':>8} {'unscaled':>14}")
    for name, (value, unit, samples) in metrics.items():
        unscaled = f"{raw[name][0]:>14.6g}" if raw else ""
        print(f"{name:<48} {value:>14.6g} {unit:<6} {samples:>8} {unscaled}")


def traced(bs, call, session, ops, seed, seconds, stored):
    """Per-layer metrics, plus tracing overhead on this workload's passes."""
    import layers

    metrics = layers.collect(bs, seed, call, session)
    plain, spanned = [], []
    start = perf_counter()
    while not plain or not spanned or perf_counter() - start < seconds:
        plain += pass_sums(*run_passes(call, session, ops, 0, stored))
        with layers.full_tracer(bs) as tracer:
            spanned += pass_sums(*run_passes(call, session, ops, 0, stored))
    overhead = statistics.median(spanned) / statistics.median(plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac", len(plain) + len(spanned))
    print(f"{'span':<48} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, own) in sorted(tracer.stats.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<48} {calls:>10} {total:>10.4f} {own:>10.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    bs = import_program()
    (ROOT / workloads.TRACE_PATH).parent.mkdir(parents=True, exist_ok=True)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    call = make_call(bs.cli)
    session = Session()
    ops = workloads.WORKLOADS[args.workload](args.seed)

    print("machine " + json.dumps(machine_info(), sort_keys=True))
    run_guard(call, session, reference)
    stored = reference["passes"][args.workload].get(str(args.seed))
    title = f"{args.workload} seed={args.seed} trace={args.trace}"
    if args.trace:
        metrics = traced(bs, call, session, ops, args.seed, args.seconds, stored)
        print_table(title, metrics)
    else:
        setup = measure_setup()
        records, complete = run_passes(call, session, ops, args.seconds, stored)
        heap = peak_heap(call, session, ops)
        metrics = end_to_end(records, complete, setup, heap)
        print_table(title, metrics, end_to_end(records, complete, setup, heap, scaled=False))
    failed_frac = session.failed / session.attempted
    print(f"{'failed_frac':<48} {failed_frac:>14.6g} {'frac':<6} {session.attempted}")
    for failure in session.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
