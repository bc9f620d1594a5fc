"""Command-line front end: run protocols, emit reports, verify invariants.

``bellsim run`` samples a protocol and prints a JSON or CSV report with the
per-label counts, the analytic probabilities, a chi-square statistic, the
worst post-state fidelity (Bell filter only) and the ebit ledger.
``bellsim verify`` sweeps every invariant group and reports pass/fail.

Exit codes: 0 success, 1 failed verification, 2 invalid configuration,
3 invariant breach or internal error during a run, or stdout closed early.

Reports are bit-identical for identical (config, seed) except for the
``duration_ms`` field, which is wall-clock.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .bellcore import BellCoefficients, BellLabel, bell_state, from_bell, to_bell
from .measure import OutcomeTree, RngStream
from .protocols import (
    SCHEMES,
    analytic_label_distribution,
    get_scheme,
    iterate_runs,  # noqa: F401 -- perfbench/layers.py wraps it as a cli span
    outcome_distribution,  # noqa: F401 -- likewise; a run samples its own tree
    trace_to_jsonl,
)
from .qstate import fidelity, haar_random_state, make_state

MAX_TRIALS = 1_000_000

_NAMED_STATES = {label.value: label for label in BellLabel}


_CSV_QUOTED = re.compile(r'[,"\r\n]')
_DECIMAL = r"(?:[+-]\s*)?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# a real part ends where the signed imaginary part, or the token, begins;
# blanks stand only there and after the sign that starts a part, never inside a number
_COEFFICIENT = re.compile(rf"(?:(?P<re>{_DECIMAL})\s*(?=[+-]|\Z))?(?:(?P<im>{_DECIMAL})i)?")


def _parse_complex(token: str) -> complex:
    """Parse one coefficient in re[+im i] form, e.g. '0.6', '0.8i', '1-2i', '1 + 2i'."""
    text = token.strip()
    if not text:
        raise ValueError("empty coefficient")
    match = _COEFFICIENT.fullmatch(text)
    if match is None:
        raise ValueError(f"bad complex component {token!r}")
    real, imag = ("".join(part.split()) if part else "0" for part in match.group("re", "im"))
    return complex(float(real), float(imag))


def resolve_state(spec: str, seed: int):
    """Turn a --state spec into (state, renormalized, bell coefficients).

    Accepts a Bell label name, 'random' (Haar-uniform, derived from the run
    seed) or four comma-separated complex coefficients in Bell order c1..c4.
    """
    if spec in _NAMED_STATES:
        label = _NAMED_STATES[spec]
        coefficients = tuple(1.0 + 0j if k == label.index else 0j for k in range(4))
        return bell_state(label), False, coefficients
    if spec == "random":
        gen = np.random.default_rng((seed, 0xB311))
        state = haar_random_state(2, gen)
        return state, False, to_bell(state).as_tuple()
    tokens = spec.split(",")
    if len(tokens) != 4:
        raise ValueError(
            "state must be a Bell label, 'random', or four comma-separated coefficients c1..c4"
        )
    # normalized as a plain vector first: BellCoefficients only accepts unit norm
    normalized = make_state([_parse_complex(t) for t in tokens])
    coefficients = tuple(normalized.amplitudes)
    return from_bell(BellCoefficients(*coefficients)), normalized.renormalized, coefficients


def _format_complex(value: complex) -> str:
    return f"{value.real:.12g}{value.imag:+.12g}i"


def _chi_square(counts: dict, probs: np.ndarray, trials: int) -> float | None:
    """Pearson's statistic; None (unbounded) once a label of probability <= 1e-15 is observed."""
    stat = 0.0
    for label in BellLabel:
        p = float(probs[label.index])
        observed = counts[label]
        if p > 1e-15:
            expected = trials * p
            stat += (observed - expected) ** 2 / expected
        elif observed:
            return None
    return stat


@functools.cache
def _trace_lines(stages, leaf) -> tuple[bytes, ...]:
    """Each stage's encoded lines of ``leaf``'s trace, rendered a stage at a time; kept per process (36 leaves, 90 416 B).

    A render or encode that raises keeps nothing. A list gathers the lines: a generator's frame would sit on the heap.
    """
    return tuple([(trace_to_jsonl(stage) + "\n").encode() for stage in stages(leaf)])


def _run_trials(state, scheme, trials: int, seed: int, trace=None):
    """Sample all trials on one tree of the row ``scheme``; for a Bell filter, the worst fidelity of the leaves reached.

    With ``trace``, an unbuffered binary file, also write trial 0's trace into it: the lines this process
    keeps for that leaf of the scheme's row, rendered on the leaf's first trace.
    """
    tree = OutcomeTree(state, scheme.tree)
    leaves = tree.sample(trials, seed)
    if trace is not None:
        for lines in _trace_lines(scheme.stages, tree.walk(RngStream(seed).substream(0))):
            _write_all(trace, lines)
    if not scheme.filters:
        return tree.label_counts(leaves), None
    worst = min(fidelity(post, bell_state(label)) for _, label, post in tree.reached(leaves))
    return tree.label_counts(leaves), worst


def _write_all(fh, data: bytes) -> None:
    """Write ``data`` to the unbuffered file ``fh``, again from where a short write stopped."""
    while data:
        data = data[fh.write(data):]


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), inner, rows)
    elif isinstance(value, (list, tuple)):
        for index, inner in enumerate(value):
            _flatten(f"{prefix}.{index}", inner, rows)
    else:
        rows.append((prefix, value))


def _csv_field(value) -> str:
    """``value`` as csv.writer's default dialect writes it: None empty, quoted only if it holds , " CR or LF."""
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


def _json_pieces(value, indent: str, pieces: list) -> None:
    """Append ``value`` as json.dumps(value, sort_keys=True, indent=2, allow_nan=False) writes it at ``indent``.

    Takes str-keyed dicts, lists, tuples, str, int, float, bool and None; a non-finite float raises
    ValueError and any other type TypeError, as json.dumps does.
    """
    if isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif value is None:
        pieces.append("null")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        pieces.append(float.__repr__(value))
    elif isinstance(value, (dict, list, tuple)) and not value:
        pieces.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner, separator = indent + "  ", "{\n"
        for key, item in sorted(value.items()):
            pieces.append(f"{separator}{inner}{encode_basestring_ascii(key)}: ")
            _json_pieces(item, inner, pieces)
            separator = ",\n"
        pieces.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)):
        inner, separator = indent + "  ", "[\n"
        for item in value:
            pieces.append(separator + inner)
            _json_pieces(item, inner, pieces)
            separator = ",\n"
        pieces.append(f"\n{indent}]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_report(report: dict, output: str) -> None:
    if output == "json":
        pieces: list = []
        _json_pieces(report, "", pieces)
        pieces.append("\n")
        sys.stdout.write("".join(pieces))
        return
    rows: list = []
    _flatten("", report, rows)
    lines = (f"{_csv_field(key)},{_csv_field(value)}\r\n" for key, value in sorted(rows))
    # one write of what csv.writer would print, without the 128 KB record buffer it allocates per row
    sys.stdout.write("key,value\r\n" + "".join(lines))


def cmd_run(args: argparse.Namespace) -> int:
    """Execute the run the parsed ``run`` options ``args`` describe and print the report. Exit status 0/2/3.

    The seed is ``--seed``, else ``$BELLSIM_SEED``, else 0.
    """
    try:
        seed = int(os.environ.get("BELLSIM_SEED", 0)) if args.seed is None else args.seed
    except ValueError:
        print("error: BELLSIM_SEED must be an integer", file=sys.stderr)
        return 2
    trials = args.trials
    if trials < 1:
        print("error: trials must be >= 1", file=sys.stderr)
        return 2
    if trials > MAX_TRIALS:
        print(f"error: trials capped at {MAX_TRIALS} to keep runs short", file=sys.stderr)
        return 2
    try:
        RngStream(seed)  # the library owns the seed range
        scheme = get_scheme(args.scheme)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.emit_trace is not None and scheme.stages is None:
        print("error: --emit-trace is only available for the protocol schemes", file=sys.stderr)
        return 2
    try:
        state, renormalized, coefficients = resolve_state(args.state, seed)
    except ValueError as exc:
        print(f"error: invalid state spec: {exc}", file=sys.stderr)
        return 2
    try:  # the OS decides which paths take the trace; opened, and so truncated, before anything is sampled
        trace = None if args.emit_trace is None else open(args.emit_trace, "wb", buffering=0)
    except OSError:
        print(f"error: --emit-trace path is not writable: {args.emit_trace}", file=sys.stderr)
        return 2
    if renormalized:
        print("warning: state coefficients were renormalized", file=sys.stderr)

    started = time.perf_counter()
    try:
        analytic = analytic_label_distribution(state, args.scheme)
        counts, worst_fidelity = _run_trials(state, scheme, trials, seed, trace)
    except Exception as exc:  # invariant breach inside the run
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        if trace is not None:
            trace.close()
    duration_ms = (time.perf_counter() - started) * 1000.0

    per_run = scheme.ebits_per_run
    report = {
        "config": {
            "scheme": args.scheme,
            "state": args.state,
            "state_coefficients": [_format_complex(c) for c in coefficients],
            "renormalized": renormalized,
            "trials": trials,
            "seed": seed,
            "output": args.output,
            "emit_trace": args.emit_trace,
        },
        "analytic": {f"p{k + 1}": float(analytic[k]) for k in range(4)},
        "empirical": {"counts": {label.value: counts[label] for label in BellLabel}},
        "chi_square": _chi_square(counts, analytic, trials),
        "ledger": {
            "ebits_granted": per_run * trials,
            "ebits_consumed": per_run * trials,
        },
        "duration_ms": duration_ms,
    }
    if worst_fidelity is not None:
        report["fidelity"] = worst_fidelity
    _emit_report(report, args.output)
    return 0


def cmd_verify() -> int:
    """Run every invariant group; print one PASS/FAIL line per group.

    Each failed group also prints its counterexample as one strict JSON
    line on stderr, a non-finite float as its repr string.
    """
    from .verify import _finite, run_verification

    results = run_verification()
    for result in results:
        if result.passed:
            print(f"PASS {result.name}")
        else:
            print(f"FAIL {result.name}: {result.detail}")
            print(json.dumps(_finite(result.counterexample), sort_keys=True, default=str), file=sys.stderr)
    return 0 if all(result.passed for result in results) else 1


def _build_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """A new ``bellsim`` parser and its ``run`` subparser, the one object that parser passes a ``run`` argv to."""
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Bell state measurement protocols built from nonlocal spin products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sample a protocol and print a report")
    run.add_argument("--scheme", choices=SCHEMES, required=True)
    run.add_argument(
        "--state",
        required=True,
        help="PhiPlus|PhiMinus|PsiPlus|PsiMinus, 'random', or c1,c2,c3,c4 (e.g. 0.6,0.8i,0,0)",
    )
    run.add_argument("--trials", type=int, default=1000)
    run.add_argument("--seed", type=int, default=None, help="defaults to $BELLSIM_SEED, then 0")
    run.add_argument("--output", choices=("json", "csv"), default="json")
    run.add_argument("--emit-trace", metavar="PATH", default=None,
                     help="write the first trial's event trace as JSON lines")

    sub.add_parser("verify", help="run the invariant suite")
    return parser, run


def build_parser() -> argparse.ArgumentParser:
    """A new full ``bellsim`` parser on every call."""
    return _build_parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The parsers ``main`` reuses: built on its first call, not at import; parsing only reads them."""
    return _build_parsers()


def _parse_args(argv) -> argparse.Namespace:
    """``parse_args``, whose --help is written here: argparse drops a write that meets a closed stdout.

    A ``run`` argv is parsed once, by the subparser the full parser hands it to; the full parser parses it
    again only to reject what that leaves over, with its own prog and usage.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, run = _parsers()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            if argv[:1] == ["run"]:
                args, extras = run.parse_known_args(argv[1:], argparse.Namespace(command="run"))
                if not extras:
                    return args
            return parser.parse_args(argv)
    except SystemExit:
        sys.stdout.write(printed.getvalue())
        sys.stdout.flush()
        raise


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        code = cmd_verify() if args.command == "verify" else cmd_run(args)
        sys.stdout.flush()  # a reader that has gone shows here, not in the flush at interpreter exit
    except BrokenPipeError:
        print("error: stdout was closed before the output was written", file=sys.stderr)
        with contextlib.suppress(OSError), open(os.devnull, "wb") as devnull:  # StringIO, capsys: no descriptor
            os.dup2(devnull.fileno(), sys.stdout.fileno())  # the unwritten rest goes nowhere at exit
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
