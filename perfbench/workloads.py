"""Workload generators: each turns a workload seed into the argv lists of one pass.

A pass is the fixed list of ``bellsim`` invocations a workload repeats in a
closed loop. Everything the program receives comes from these argv lists,
and the same seed always yields the same lists.
"""
from __future__ import annotations

import random

SCHEMES = ("fig1", "scheme_a", "scheme_b", "photonic")
PROTOCOL_SCHEMES = ("fig1", "scheme_a", "scheme_b")
LABELS = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")

# Sampling is >98% of a pass at this size, and a call (~75 ms) is short
# enough for the speed probe to follow the host's phases (see speed.py).
MC_TRIALS = 2_000
SMALL_MAX_TRIALS = 8
# 6 blocks of the 48 (output, state kind, trials) combinations per scheme:
# 1152 calls per pass, so run_ms.p99 has ten samples beyond it.
SMALL_BLOCKS = 6
VERIFY_RUN_TRIALS = 1000

# Where protocol-scheme runs write --emit-trace (relative to the checkout).
TRACE_PATH = "perfbench/.scratch/trace.jsonl"

# Exactly normalized magnitude pairs and quadruples for explicit specs.
_NORMALIZED = ((0.6, 0.8), (0.28, 0.96), (0.8, 0.6), (0.5, 0.5, 0.5, 0.5))


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def run_argv(scheme, state, trials, seed, output="json", emit_trace=None, split_state=False):
    """argv of one ``bellsim run``; explicit specs always use ``--state=<spec>``."""
    argv = ["run", "--scheme", scheme]
    argv += ["--state", state] if split_state else [f"--state={state}"]
    argv += ["--trials", str(trials), "--seed", str(seed), "--output", output]
    if emit_trace:
        argv += ["--emit-trace", emit_trace]
    return argv


def _component(rng: random.Random, magnitude: float) -> str:
    """One coefficient in the CLI's re[+im i] grammar with the given magnitude."""
    sign = rng.choice((1, -1))
    form = rng.randrange(3)
    if form == 0:
        return f"{sign * magnitude:.4g}"
    if form == 1:
        return f"{sign * magnitude:.4g}i"
    re, im = 0.6 * magnitude, 0.8 * magnitude
    return f"{sign * re:.4g}{rng.choice((1, -1)) * im:+.4g}i"


def coefficient_spec(rng: random.Random) -> str:
    """Four Bell-order coefficients: normalized or not, often with a leading minus."""
    if rng.random() < 0.5:
        mags = list(rng.choice(_NORMALIZED))
        mags += [0.0] * (4 - len(mags))
        rng.shuffle(mags)
    else:
        mags = [0.0 if rng.random() < 0.25 else rng.uniform(0.05, 2.0) for _ in range(4)]
        if not any(mags):
            mags[rng.randrange(4)] = rng.uniform(0.05, 2.0)
    parts = ["0" if m == 0.0 else _component(rng, m) for m in mags]
    if rng.random() < 0.5:
        first = next(k for k, m in enumerate(mags) if m)
        parts[0], parts[first] = parts[first], parts[0]
        if not parts[0].startswith("-"):
            parts[0] = "-" + parts[0]
    return ",".join(parts)


def mc_throughput(seed: int) -> list[list[str]]:
    """Each scheme once on a Haar-random state and once on a Bell label."""
    rng = random.Random(f"mc-throughput:{seed}")
    ops = []
    for scheme in SCHEMES:
        ops.append(run_argv(scheme, "random", MC_TRIALS, _program_seed(rng), split_state=True))
        ops.append(run_argv(scheme, rng.choice(LABELS), MC_TRIALS, _program_seed(rng), split_state=True))
    return ops


def small_runs(seed: int) -> list[list[str]]:
    """Short runs rotating all schemes, state kinds and both output formats.

    Every scheme gets each (output, state kind, trials) combination equally
    often, so the seed changes the order and the states but not the mix.
    """
    rng = random.Random(f"small-runs:{seed}")
    combos = [(output, kind, trials) for output in ("json", "csv") for kind in ("coefficients", "label", "random")
              for trials in range(1, SMALL_MAX_TRIALS + 1)]
    per_scheme = []
    for scheme in SCHEMES:
        mix = combos * SMALL_BLOCKS
        rng.shuffle(mix)
        per_scheme.append([(scheme, *combo) for combo in mix])
    ops = []
    for scheme, output, kind, trials in (op for row in zip(*per_scheme) for op in row):
        if kind == "coefficients":
            state, split = coefficient_spec(rng), False
        else:
            state = rng.choice(LABELS) if kind == "label" else "random"
            split = rng.random() < 0.5
        trace = TRACE_PATH if scheme in PROTOCOL_SCHEMES else None
        ops.append(run_argv(scheme, state, trials, _program_seed(rng), output, trace, split))
    return ops


def verify(seed: int) -> list[list[str]]:
    """``bellsim verify``, then one short sampled run of each scheme."""
    rng = random.Random(f"verify:{seed}")
    ops = [["verify"]]
    for scheme in SCHEMES:
        ops.append(run_argv(scheme, "random", VERIFY_RUN_TRIALS, _program_seed(rng), split_state=True))
    return ops


WORKLOADS = {"mc-throughput": mc_throughput, "small-runs": small_runs, "verify": verify}


def guard_matrix() -> list[list[str]]:
    """Fixed argv set, independent of the workload seed, with stored digests.

    Covers every scheme on a random state, a Bell label, an explicit spec
    with a leading minus and an un-normalized spec in CSV.
    """
    ops = []
    for k, scheme in enumerate(SCHEMES):
        ops.append(run_argv(scheme, "random", 2000, 11 + k, split_state=True))
        ops.append(run_argv(scheme, LABELS[k], 200, 21 + k, split_state=True))
        ops.append(run_argv(scheme, "-0.6,0.8i,0,0", 300, 31 + k))
        ops.append(run_argv(scheme, "1,-1i,0.5-0.5i,0", 50, 41 + k, "csv"))
    return ops
