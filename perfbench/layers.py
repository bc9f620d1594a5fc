"""Per-layer metrics for the traced run: spans, direct calls and counts.

Layers are the ``bellsim`` modules. Spans are recorded by this file around
calls into each module's public functions, by swapping the module attribute
the caller looks up for a timing wrapper; nothing under ``src/`` changes.
Direct timings call one public function in a loop on inputs made from the
workload seed. Counts come from replaying trials with the public runners
and reading ``RngStream.counter``.
"""
from __future__ import annotations

import functools
import inspect
import random
import statistics
from time import perf_counter

import numpy as np

import speed
from checks import arg
from workloads import LABELS, SCHEMES, small_runs

BATCH_SECONDS = 0.01
BATCHES = 7
REPLAY_TRIALS = 200
PROBE_RUNS = 200


class Tracer:
    """Spans around calls into bellsim, aggregated per name in memory.

    A span's self time is its duration minus the time of the spans nested
    directly inside it. ``keep`` names the spans whose per-call self times
    are kept for percentiles.
    """

    def __init__(self, keep=()):
        self.stats: dict[str, list] = {}
        self.selves: dict[str, list] = {name: [] for name in keep}
        self._stack: list[float] = []
        self._saved: list = []

    def _finish(self, name: str, start: float) -> None:
        duration = perf_counter() - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if name in self.selves:
            self.selves[name].append(duration - child)

    def _wrapped(self, original, name):
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                items = original(*args, **kwargs)
                while True:
                    self._stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        self._finish(name, start)
                        return
                    self._finish(name, start)
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self._stack.append(0.0)
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._finish(name, start)
        return wrapper

    def wrap(self, module, *attrs):
        """Span every call that goes through ``module.<attr>``, named by its defining module."""
        for attr in attrs:
            original = getattr(module, attr)
            layer = original.__module__.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrapped(original, f"{layer}.{attr}"))
            self._saved.append((module, attr, original))

    def wrap_groups(self, verify):
        """Span each entry of ``verify.GROUPS``, which ``run_verification`` reads."""
        original = verify.GROUPS
        verify.GROUPS = tuple((name, self._wrapped(fn, f"verify.{name}")) for name, fn in original)
        self._saved.append((verify, "GROUPS", original))

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


CLI_SPANS = (
    "build_parser", "cmd_run", "cmd_verify", "resolve_state", "analytic_label_distribution",
    "outcome_distribution", "iterate_runs", "fidelity", "bell_state", "trace_to_jsonl",
)
KERNEL_SPANS = ("nonlocal_product_measurement", "local_product_measurement", "measure_local_pauli")


def full_tracer(bs) -> Tracer:
    """Spans at every layer boundary a workload crosses."""
    tracer = Tracer()
    tracer.wrap(bs.cli, *CLI_SPANS)
    tracer.wrap(bs.protocols, *KERNEL_SPANS)
    tracer.wrap(bs.photonic, "build_photonic_run", "detect", "label_distribution")
    tracer.wrap_groups(bs.verify)
    return tracer


def per_call(fn, clock) -> tuple[float, int]:
    """Median seconds per call of ``fn()`` over BATCHES batches, and the call count.

    Batches are timed on the CPU clock and scaled to the reference speed.
    """
    def batch():
        for _ in range(number):
            fn()

    number = 1
    while clock.measure(batch)[2][1] < BATCH_SECONDS:
        number *= 2
    times = [clock.measure(batch)[2][1] / number for _ in range(BATCHES)]
    return statistics.median(times), BATCHES * number


class LayerMetrics:
    """Collects ``name -> (value, unit, samples)``."""

    def __init__(self):
        self.values: dict[str, tuple] = {}
        self.clock = speed.Clock()

    def time(self, name: str, fn, unit: str = "us") -> float:
        seconds, samples = per_call(fn, self.clock)
        scale = {"ns": 1e9, "us": 1e6, "s": 1.0}[unit]
        self.values[name] = (seconds * scale, unit, samples)
        return seconds * 1e6

    def put(self, name, value, unit, samples):
        self.values[name] = (value, unit, samples)


def _probe_argv(argv):
    """A small-runs argv without --emit-trace, so cmd_run's self time holds no trace work."""
    return argv[:-2] if "--emit-trace" in argv else argv


def collect(bs, seed: int, call, session) -> dict:
    """All per-layer metrics except trace.overhead_frac, for one workload seed.

    ``call(argv)`` runs one CLI invocation and returns (code, stdout, raw, scaled);
    ``session.check(argv, code, out)`` checks and counts it.
    """
    cli, measure, protocols, photonic = bs.cli, bs.measure, bs.protocols, bs.photonic
    qstate, bellcore, verify = bs.qstate, bs.bellcore, bs.verify
    m = LayerMetrics()
    rng = random.Random(f"layers:{seed}")
    state = qstate.haar_random_state(2, np.random.default_rng(seed))
    label = bellcore.BellLabel(rng.choice(LABELS))
    bell = bellcore.bell_state(label)
    szz, sxx = bellcore.spin_product("z", "z"), bellcore.spin_product("x", "x")
    stream = measure.RngStream(seed)

    # measure: RNG and kernels, on the inputs each runner hands them
    m.time("measure.uniform_ns", stream.uniform, "ns")
    counter = iter(range(1 << 62))
    m.time("measure.substream_us", lambda: stream.substream(next(counter)))
    _, after_szz = measure.nonlocal_product_measurement(state, szz, measure.RngStream(seed + 1))
    szz_us = m.time("measure.nonlocal_product_measurement.szz_us",
                    lambda: measure.nonlocal_product_measurement(state, szz, stream))
    sxx_us = m.time("measure.nonlocal_product_measurement.sxx_us",
                    lambda: measure.nonlocal_product_measurement(after_szz, sxx, stream))
    local_us = m.time("measure.local_product_measurement.sxx_us",
                      lambda: measure.local_product_measurement(after_szz, sxx, stream))
    fig1_in = qstate.StateVector(2, protocols.fig1_unitary() @ state.amplitudes)
    pauli_us = m.time("measure.measure_local_pauli_us",
                      lambda: measure.measure_local_pauli(fig1_in, 0, "z", stream))

    # protocols: runners untraced and traced, audit, serialisation, analytics
    runners = {"fig1": protocols.run_fig1, "scheme_a": protocols.run_scheme_a,
               "scheme_b": protocols.run_scheme_b}
    kernels_us = {"fig1": 2 * pauli_us, "scheme_a": szz_us + local_us, "scheme_b": szz_us + sxx_us}
    for scheme, runner in runners.items():
        run_us = m.time(f"protocols.run_{scheme}_us", lambda: runner(state, stream, record_trace=False))
        m.put(f"protocols.orchestration_self_us.{scheme}", run_us - kernels_us[scheme], "us",
              m.values[f"protocols.run_{scheme}_us"][2])
        m.time(f"protocols.run_{scheme}_traced_us", lambda: runner(state, stream, record_trace=True))
        trace = runner(state, measure.RngStream(seed).substream(0), record_trace=True).trace
        m.put(f"protocols.trace_events_per_run.{scheme}", len(trace), "count", 1)
    trace = protocols.run_scheme_b(state, measure.RngStream(seed).substream(0)).trace
    m.time("protocols.locc_audit_us", lambda: protocols.locc_audit(trace))
    m.time("protocols.trace_to_jsonl_us", lambda: protocols.trace_to_jsonl(trace))
    for scheme in SCHEMES:
        m.time(f"protocols.analytic_label_distribution.{scheme}_us",
               lambda: protocols.analytic_label_distribution(state, scheme))

    # photonic
    final = photonic.build_photonic_run(state)
    m.time("photonic.label_distribution_us", lambda: photonic.label_distribution(state))
    m.time("photonic.build_photonic_run_us", lambda: photonic.build_photonic_run(state))
    m.time("photonic.detect_us", lambda: photonic.detect(final, stream))

    # qstate and bellcore: the calls the CLI makes per trial or per run
    post = protocols.run_scheme_b(state, measure.RngStream(seed).substream(0), record_trace=False)
    m.time("qstate.fidelity_us", lambda: qstate.fidelity(post.post_state, bellcore.bell_state(post.label)))
    m.time("bellcore.bell_state_us", lambda: bellcore.bell_state(label))
    amplitudes = state.amplitudes.copy()
    m.time("qstate.StateVector_us", lambda: qstate.StateVector(2, amplitudes))
    m.time("qstate.apply_unitary_us", lambda: qstate.apply_unitary(state, qstate.HADAMARD, [0]))
    m.time("bellcore.to_bell_us", lambda: bellcore.to_bell(state))
    m.time("bellcore.classify_us", lambda: bellcore.classify(-1, 1))

    _counts(m, bs, seed, state, bell, runners)
    _cli_layer(m, bs, seed, call, session)

    for name, group in verify.GROUPS:
        error, _, scaled = m.clock.measure(lambda: _failure_of(group))
        if error:
            session.fail(["verify-group", name], f"{type(error).__name__}: {error}")
        else:
            session.passed()
        m.put(f"verify.{name}_s", scaled[1], "s", 1)
    return m.values


def _failure_of(group):
    """Run one verify group; a failed invariant is a failed operation, not a crash."""
    try:
        group()
    except Exception as exc:
        return exc
    return None


def _counts(m, bs, seed, state, bell, runners):
    """Draws, draw-free branches and kernel calls per trial, by replay."""
    measure, protocols, photonic = bs.measure, bs.protocols, bs.photonic
    inputs = {"random": state, "bell": bell}
    for scheme in SCHEMES:
        for kind, s in inputs.items():
            with Tracer() as tracer:
                tracer.wrap(protocols, *KERNEL_SPANS)
                tracer.wrap(photonic, "detect")
                root = measure.RngStream(seed)
                draws = 0
                final = photonic.build_photonic_run(s) if scheme == "photonic" else None
                for t in range(REPLAY_TRIALS):
                    rng = root.substream(t)
                    if final is None:
                        runners[scheme](s, rng, record_trace=False)
                    else:
                        photonic.detect(final, rng)
                    draws += rng.counter
            decisions = sum(entry[0] for entry in tracer.stats.values())
            m.put(f"measure.draws_per_trial.{scheme}.{kind}", draws / REPLAY_TRIALS, "count", REPLAY_TRIALS)
            m.put(f"measure.drawless_per_trial.{scheme}.{kind}", (decisions - draws) / REPLAY_TRIALS,
                  "count", REPLAY_TRIALS)
            if kind == "random":
                m.put(f"measure.kernel_calls_per_trial.{scheme}", decisions / REPLAY_TRIALS, "count",
                      REPLAY_TRIALS)


def _cli_layer(m, bs, seed, call, session):
    """Parser, state resolution, and the report self time of cmd_run from spans."""
    cli, photonic = bs.cli, bs.photonic
    m.time("cli.build_parser_us", cli.build_parser)
    probe = [_probe_argv(argv) for argv in small_runs(seed)[:PROBE_RUNS]]
    specs = {}
    for argv in probe:
        spec = arg(argv, "--state")
        kind = spec if spec == "random" else "label" if spec in LABELS else "coefficients"
        specs.setdefault(kind, spec)
    for kind in ("label", "random", "coefficients"):
        m.time(f"cli.resolve_state.{kind}_us", lambda: cli.resolve_state(specs[kind], seed))

    with Tracer(keep=("cli.cmd_run",)) as tracer:
        tracer.wrap(cli, *CLI_SPANS)
        tracer.wrap(photonic, "build_photonic_run")
        photonic_runs, factors = 0, []
        for argv in probe:
            code, out, raw, scaled = call(argv)
            session.check(argv, code, out)
            photonic_runs += argv[2] == "photonic"
            factors.append(scaled[0] / raw[0])
    selves = [own * factor for own, factor in zip(tracer.selves["cli.cmd_run"], factors)]
    m.put("cli.report_self_us", statistics.median(selves) * 1e6, "us", len(selves))
    m.put("photonic.builds_per_run", tracer.calls("photonic.build_photonic_run") / photonic_runs,
          "count", photonic_runs)
