"""Per-operation output checks and the bit-identical report digest.

Every ``bellsim run`` report is parsed strictly, checked against the
contracts the CLI promises, and reduced to a digest of its contract fields
(``duration_ms`` and any other field is left out), so a change to sampled
outcomes shows up as a failed operation rather than as a speed-up.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

LABELS = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")
CONTRACT_FIELDS = ("config", "analytic", "empirical.counts", "chi_square", "fidelity", "ledger")
ZERO_PROB = 1e-15
FIDELITY_FLOOR = 1 - 1e-12
BORN_SIGMAS = 5
BORN_MIN_TRIALS = 1000
# Events in the --emit-trace file of one traced trial, per protocol scheme.
TRACE_EVENTS = {"fig1": 10, "scheme_a": 22, "scheme_b": 34}


class CheckFailure(Exception):
    """An operation's output broke a contract."""


def _reject_constant(name):
    raise CheckFailure(f"non-standard JSON constant {name}")


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), inner, out)
    elif isinstance(value, list):
        for index, inner in enumerate(value):
            _flatten(f"{prefix}.{index}", inner, out)
    else:
        out[prefix] = value


def parse_report(text: str, output: str) -> dict:
    """Flat ``key -> value`` view of a JSON or CSV report; rejects NaN and Infinity."""
    flat: dict = {}
    if output == "json":
        try:
            _flatten("", json.loads(text, parse_constant=_reject_constant), flat)
        except ValueError as exc:
            raise CheckFailure(f"report is not strict JSON: {exc}") from None
        return flat
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["key", "value"]:
        raise CheckFailure("CSV report lacks its key,value header")
    for row in rows[1:]:
        if len(row) != 2:
            raise CheckFailure(f"bad CSV row {row!r}")
        key, value = row
        try:
            number = float(value)
        except ValueError:
            number = None
        if number is not None and not math.isfinite(number):
            raise CheckFailure(f"non-finite value in CSV report: {key}={value}")
        flat[key] = value
    return flat


def digest(flat: dict) -> str:
    """sha256 over the contract fields of a flattened report, in key order."""
    keys = sorted(
        k for k in flat
        if any(k == f or k.startswith(f + ".") for f in CONTRACT_FIELDS)
    )
    text = "\n".join(f"{k}={flat[k]!r}" for k in keys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def combine(digests) -> str:
    """One digest for an ordered list of operation digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def arg(argv, name):
    """Value of option ``name`` in an argv, in either ``--opt v`` or ``--opt=v`` form."""
    for k, token in enumerate(argv):
        if token == name:
            return argv[k + 1]
        if token.startswith(name + "="):
            return token.split("=", 1)[1]
    return None


def check_run(argv, code: int, out: str) -> str:
    """Check one ``bellsim run``; return the report digest or raise CheckFailure."""
    if code != 0:
        raise CheckFailure(f"exit code {code}")
    output = arg(argv, "--output") or "json"
    trials = int(arg(argv, "--trials"))
    state = arg(argv, "--state")
    scheme = arg(argv, "--scheme")
    flat = parse_report(out, output)
    try:
        counts = [int(flat[f"empirical.counts.{label}"]) for label in LABELS]
        probs = [float(flat[f"analytic.p{k + 1}"]) for k in range(4)]
        reported_trials = int(flat["config.trials"])
    except (KeyError, ValueError) as exc:
        raise CheckFailure(f"report field missing or malformed: {exc}") from None
    if reported_trials != trials or sum(counts) != trials:
        raise CheckFailure(f"counts {counts} do not sum to --trials {trials}")
    for label, p, n in zip(LABELS, probs, counts):
        if p < ZERO_PROB and n:
            raise CheckFailure(f"{n} counts on {label}, whose probability is {p}")
    if state in LABELS and counts[LABELS.index(state)] != trials:
        raise CheckFailure(f"Bell input {state} spread its counts: {counts}")
    if scheme == "scheme_b":
        fidelity = float(flat.get("fidelity", "nan"))
        if not fidelity >= FIDELITY_FLOOR:
            raise CheckFailure(f"scheme_b fidelity {fidelity} below {FIDELITY_FLOOR}")
    if trials >= BORN_MIN_TRIALS:
        for label, p, n in zip(LABELS, probs, counts):
            sigma = math.sqrt(trials * p * (1 - p))
            if abs(n - trials * p) > BORN_SIGMAS * sigma + 1:
                raise CheckFailure(f"{label}: {n} counts outside the 5-sigma Born band of {trials * p:.1f}")
    trace_path = arg(argv, "--emit-trace")
    if trace_path:
        _check_trace_file(trace_path, TRACE_EVENTS[scheme])
    return digest(flat)


def _check_trace_file(path: str, events: int) -> None:
    """The trace this call wrote; the caller removes ``path`` before each call."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise CheckFailure(f"no trace file at {path}") from None
    if len(lines) != events:
        raise CheckFailure(f"trace file holds {len(lines)} events, not {events}")
    for line in lines:
        try:
            event = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise CheckFailure(f"trace line is not strict JSON: {exc}") from None
        if not {"step", "party", "op", "qubits"} <= set(event):
            raise CheckFailure(f"trace event lacks required fields: {line}")


def check_verify(code: int, out: str) -> str:
    """Check one ``bellsim verify``: exit 0 and nothing but PASS lines."""
    lines = out.splitlines()
    if code != 0:
        raise CheckFailure(f"exit code {code}")
    if not lines or any(not line.startswith("PASS ") for line in lines):
        raise CheckFailure(f"verify printed more than PASS lines: {lines!r}")
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def has_children() -> bool:
    """Whether this process has a child, running or unreaped.

    The CPU clock counts only reaped children, so a call that leaves one
    behind would hide the work it moved there.
    """
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def check(argv, code: int, out: str) -> str:
    if argv[0] == "verify":
        return check_verify(code, out)
    return check_run(argv, code, out)
