"""CLI behaviour: reports, exit codes, determinism, trace files."""
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellsim.cli as cli
import bellsim.protocols as protocols
import bellsim.verify as verify
from bellsim.bellcore import BellLabel, bell_state
from bellsim.cli import main, resolve_state
from bellsim.measure import OutcomeTree
from bellsim.protocols import SCHEMES, trace_to_jsonl
from bellsim.qstate import states_equal

from test_console import console_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


def test_run_scheme_b_named_state(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "scheme_b", "--state", "PsiMinus", "--trials", "100", "--seed", "7"
    )
    assert code == 0
    report = report_of(out)
    assert report["empirical"]["counts"] == {"PhiPlus": 0, "PhiMinus": 0, "PsiPlus": 0, "PsiMinus": 100}
    assert report["fidelity"] >= 1 - 1e-12
    assert report["analytic"]["p4"] == pytest.approx(1.0, abs=1e-12)
    assert report["ledger"] == {"ebits_granted": 200, "ebits_consumed": 200}


def test_run_rejects_zero_trials(capsys):
    code, _, err = run_cli(capsys, "run", "--scheme", "fig1", "--state", "0.6,0,0,0.8", "--trials", "0")
    assert code == 2
    assert "trials" in err


@pytest.mark.parametrize(
    "bad",
    [
        "0.6,0,0", "what,0,0,0", "0,0,0,0", "0.5+,0,0,0", "nan,0,0,0", "1e400,0,0,0",
        # outside the re[+im i] grammar, though Python's complex() takes them
        "1_0,0,0,0", "(1+0i),0,0,0", "1+2j,0,0,0", "inf,0,0,0", "1+i,0,0,0", "\u0661,0,0,0",
        # an empty coefficient, also between blanks
        "1,,0,0", "1, ,0,0",
    ],
)
def test_run_rejects_bad_state_specs(capsys, bad):
    for argv in (("--state", bad), (f"--state={bad}",)):
        code, _, err = run_cli(capsys, "run", "--scheme", "fig1", *argv, "--trials", "5")
        assert code == 2
        assert err.startswith("error: invalid state spec: ")
        assert (err == "error: invalid state spec: empty coefficient\n") == (bad in ("1,,0,0", "1, ,0,0"))


def test_cmd_run_rejects_unknown_scheme(capsys):
    args = cli._parse_args(["run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "5", "--seed", "0"])
    args.scheme = "bogus"  # past the parser's choices
    code = cli.cmd_run(args)
    assert code == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_explicit_coefficients_are_renormalized_with_warning(capsys):
    code, out, err = run_cli(
        capsys, "run", "--scheme", "scheme_a", "--state", "1,0,0,1", "--trials", "400", "--seed", "3"
    )
    assert code == 0
    assert "renormalized" in err
    report = report_of(out)
    assert report["config"]["renormalized"] is True
    assert report["analytic"]["p1"] == pytest.approx(0.5, abs=1e-12)
    assert report["analytic"]["p4"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("spec,p1", [("1e200,1e200,0,0", 0.5), ("1e-13,0,0,0", 1.0)])
def test_extreme_scale_coefficients_are_renormalized(capsys, spec, p1):
    # the plain norm overflows (1e200) or falls below the null threshold (1e-13)
    code, out, err = run_cli(capsys, "run", "--scheme", "scheme_a", f"--state={spec}", "--trials", "10")
    assert code == 0
    assert "renormalized" in err
    report = report_of(out)
    assert report["config"]["renormalized"] is True
    assert report["analytic"]["p1"] == pytest.approx(p1, abs=1e-12)
    assert report["analytic"]["p2"] == pytest.approx(1.0 - p1, abs=1e-12)


def test_imaginary_coefficient_grammar():
    state, renormalized, coeffs = resolve_state("0.6,0.8i,0,0", seed=0)
    assert not renormalized
    assert coeffs[1] == pytest.approx(0.8j, abs=1e-12)
    assert state.n_qubits == 2


@pytest.mark.parametrize(
    "token,value",
    [("1 + 2i", 1 + 2j), (" - 0.5 ", -0.5), ("1 +2i", 1 + 2j), ("-0.5 - 0.25i", -0.5 - 0.25j), ("+ 2i", 2j),
     ("\t1e-3\t-\t4E2i", 1e-3 - 4e2j)],
)
def test_blanks_beside_a_parts_sign_are_allowed(token, value):
    assert cli._parse_complex(token) == value


@given(value=st.complex_numbers(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_formatted_coefficients_parse_back(value):
    text = cli._format_complex(value)
    parsed = cli._parse_complex(text)
    assert parsed == complex(float(f"{value.real:.12g}"), float(f"{value.imag:.12g}"))
    assert cli._format_complex(parsed) == text


# coefficient tokens inside the re[+im i] grammar
_TOKEN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(cli._format_complex),
    st.sampled_from(["0", "1", "-0.5", ".5", "2.", "0.8i", "1-2i", "-1e-3+4E2i"]),
)
# characters no token of the grammar contains, so one makes the token malformed
_JUNK = st.sampled_from(list("abcdfghjklmnopqrstuvwxyzI_()#$*/\u0661"))
_MALFORMED = st.builds(
    lambda token, at, junk: token[:at] + junk + token[at:], _TOKEN, st.integers(0, 30), _JUNK
)
_NUMBER_CHARS = frozenset("0123456789.eE")


def _split_number(token, at):
    """``token`` with a blank between two characters of one of its numbers (the ``at``-th such place), or None."""
    places = [k for k in range(1, len(token)) if {token[k - 1], token[k]} <= _NUMBER_CHARS]
    if not places:
        return None
    cut = places[at % len(places)]
    return token[:cut] + " " + token[cut:]


# a blank inside a number: it would join the digits on either side
_SPLIT = st.one_of(
    st.builds(_split_number, _TOKEN, st.integers(0, 30)).filter(lambda token: token is not None),
    st.sampled_from(["1 2", "0. 6", "1e 3", "1e- 3", "1e -3", "2 i", "1+2 i", ". 5"]),
)
# in the grammar, but the value overflows a double
_NON_FINITE = st.builds(
    lambda digit, exponent, imaginary: f"{digit}e{exponent}" + ("i" if imaginary else ""),
    st.integers(1, 9), st.integers(309, 5000), st.booleans(),
)


def _specs_with_one(bad):
    """Four-token specs with one ``bad`` token at any position."""
    return st.builds(
        lambda tokens, at, token: ",".join(tokens[:at] + [token] + tokens[at:]),
        st.lists(_TOKEN, min_size=3, max_size=3), st.integers(0, 3), bad,
    )


@given(spec=st.one_of(
    st.lists(_TOKEN, max_size=8).filter(lambda tokens: len(tokens) != 4).map(",".join),
    _specs_with_one(_MALFORMED),
    _specs_with_one(_SPLIT),
    _specs_with_one(_NON_FINITE),
))
@example(spec="1 2,0,0,0")
@settings(max_examples=200, deadline=None)
def test_bad_state_specs_are_rejected_at_the_boundary(spec):
    with pytest.raises(ValueError):
        resolve_state(spec, seed=0)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--scheme", "fig1", f"--state={spec}", "--trials", "1"])
    assert code == 2
    assert "invalid state spec" in err.getvalue()


def test_named_state_coefficients_exact():
    _, _, coeffs = resolve_state("PhiMinus", seed=0)
    assert coeffs == (0j, 1 + 0j, 0j, 0j)


def test_random_state_reproducible_for_seed():
    a, _, ca = resolve_state("random", seed=11)
    b, _, cb = resolve_state("random", seed=11)
    c, _, _ = resolve_state("random", seed=12)
    assert states_equal(a, b, up_to_phase=False)
    assert ca == cb
    assert not states_equal(a, c)


def test_reports_bit_identical_except_duration(capsys):
    argv = ("run", "--scheme", "scheme_b", "--state", "random", "--trials", "300", "--seed", "99")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    r1, r2 = report_of(out1), report_of(out2)
    r1.pop("duration_ms")
    r2.pop("duration_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


# sha256 prefix of each report (minus duration_ms, keys sorted) for 150
# trials. They pin reports across commits: any drift in a sampled count, an
# analytic probability or a formatted coefficient changes a digest. Update
# them only in a change that is meant to alter reports.
GOLDEN_REPORTS = {
    ("fig1", "PhiMinus", 3): "e15837c550109f69",
    ("fig1", "PhiMinus", 17): "0b258d1d6c50c955",
    ("fig1", "random", 3): "92ec98b7d3021bed",
    ("fig1", "random", 17): "8fd2681d8da7239e",
    ("fig1", "-1,0.5i,0.5-0.5i,0.25", 3): "bb7fa4bf814a6b04",
    ("fig1", "-1,0.5i,0.5-0.5i,0.25", 17): "2bcb402a246accc4",
    ("scheme_a", "PsiPlus", 3): "acc2635071d0817f",
    ("scheme_a", "PsiPlus", 17): "550d513c95d24ef0",
    ("scheme_a", "random", 3): "c8cf4b8c0e7f3185",
    ("scheme_a", "random", 17): "815a521d02f4bce3",
    ("scheme_a", "-1,0.5i,0.5-0.5i,0.25", 3): "bb99e07e43c5fb29",
    ("scheme_a", "-1,0.5i,0.5-0.5i,0.25", 17): "39274006d417f4ab",
    ("scheme_b", "PsiMinus", 3): "17d72744ca8a83fd",
    ("scheme_b", "PsiMinus", 17): "17825d366bafb3b1",
    ("scheme_b", "random", 3): "4e1f1516c85b8249",
    ("scheme_b", "random", 17): "4c5647e474c1870c",
    ("scheme_b", "-1,0.5i,0.5-0.5i,0.25", 3): "b01da7161c84d303",
    ("scheme_b", "-1,0.5i,0.5-0.5i,0.25", 17): "83646d83fd556cbf",
    ("photonic", "PhiPlus", 3): "8609de1b082852fd",
    ("photonic", "PhiPlus", 17): "2140647fe9a13f71",
    ("photonic", "random", 3): "8f60b8e9cd537686",
    ("photonic", "random", 17): "4832d6fd14841cae",
    ("photonic", "-1,0.5i,0.5-0.5i,0.25", 3): "0d85880d08fe58ee",
    ("photonic", "-1,0.5i,0.5-0.5i,0.25", 17): "6ad6a67cdc567fc9",
}


@pytest.mark.parametrize("scheme,state,seed", sorted(GOLDEN_REPORTS))
def test_reports_match_golden_digests(capsys, scheme, state, seed):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", scheme, f"--state={state}", "--trials", "150", "--seed", str(seed)
    )
    assert code == 0
    report = report_of(out)
    report.pop("duration_ms")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == GOLDEN_REPORTS[(scheme, state, seed)]


REPORT_SCHEMA = {
    "type": "object",
    "required": ["config", "analytic", "empirical", "chi_square", "ledger", "duration_ms"],
    "properties": {
        "config": {
            "type": "object",
            "required": ["scheme", "state", "trials", "seed", "output"],
        },
        "analytic": {
            "type": "object",
            "required": ["p1", "p2", "p3", "p4"],
            "additionalProperties": {"type": "number"},
        },
        "empirical": {
            "type": "object",
            "required": ["counts"],
            "properties": {
                "counts": {
                    "type": "object",
                    "required": ["PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"],
                    "additionalProperties": {"type": "integer"},
                }
            },
        },
        "chi_square": {"type": ["number", "null"]},
        "fidelity": {"type": "number"},
        "ledger": {
            "type": "object",
            "required": ["ebits_granted", "ebits_consumed"],
        },
        "duration_ms": {"type": "number"},
    },
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_json_report_validates_against_schema(capsys, scheme):
    import jsonschema

    code, out, _ = run_cli(
        capsys, "run", "--scheme", scheme, "--state", "random", "--trials", "50", "--seed", "8"
    )
    assert code == 0
    report = report_of(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    # only a Bell filter's post-state is a Bell state whose fidelity means anything
    assert ("fidelity" in report) == (scheme == "scheme_b")


def test_csv_output_schema(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "photonic", "--state", "PhiPlus", "--trials", "50",
        "--seed", "1", "--output", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    keys = {row[0] for row in rows[1:]}
    assert {"analytic.p1", "empirical.counts.PhiPlus", "chi_square",
            "ledger.ebits_consumed", "config.state_coefficients.0"} <= keys
    for scheme in SCHEMES:  # one trial, walked: the same keys, and scheme (b)'s fidelity
        code, out, _ = run_cli(capsys, "run", "--scheme", scheme, "--state=random", "--trials=1", "--output=csv")
        assert code == 0 and keys <= {row[0] for row in csv.reader(io.StringIO(out))}


# csv.writer's inputs that need care: the four quoting characters, empty and
# non-ASCII text, None, bools and floats whose str is their repr. Python 3.10's
# csv.writer refuses NUL ("need to escape"), and no report field can hold one.
_CSV_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n \u00e9\u4e2d'), st.characters(blacklist_characters="\x00")))
_CSV_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _CSV_TEXT, st.sampled_from([0.1 + 0.2, 1e-320, 1e16]),
)


@given(report=st.dictionaries(_CSV_TEXT.filter(lambda key: "." not in key),
                              st.one_of(_CSV_VALUES, st.lists(_CSV_VALUES, max_size=3)), max_size=6))
@settings(max_examples=100, deadline=None)
@example(report={"a,b": 'say "hi"', "": "", "cr": "x\ry", "lf": ["\n", "\r\n"], "f": [0.1 + 0.2, 1e-320, 1e16],
                 "none": None, "flag": True, "n": -7, "\u00e9": "\u4e2d,"})
def test_csv_report_is_what_csv_writer_writes(report):
    rows = []
    for key, value in report.items():
        items = enumerate(value) if isinstance(value, list) else [(None, value)]
        rows.extend((key if i is None else f"{key}.{i}", inner) for i, inner in items)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["key", "value"])
    writer.writerows(sorted(rows))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_report(report, "csv")
    assert out.getvalue() == expected.getvalue()


# json.dumps's inputs that need care: quotes, backslashes, control and non-ASCII characters (escaped as \u,
# astral ones as a surrogate pair), empty containers at any depth, and floats whose repr is their JSON text.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028\u4e2d\U0001f600'), st.characters()), max_size=8)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), _JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=10,
)


@given(report=st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5))
@settings(max_examples=100, deadline=None)
@example(report={})
@example(report=[])
@example(report={"": {}, "a": [], "b": [[], {}, [[]]], "c": {"d": {"e": []}}})
@example(report={"f": [0.1 + 0.2, 1e-320, 1e16, -0.0], "t": (1, "x", ()), "b": [True, False, None], "q": 'say "hi" \\ \u00e9\x01'})
def test_json_report_is_what_json_dumps_writes(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_report(report, "json")
    assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize(("value", "error"), [
    (float("nan"), ValueError), (float("inf"), ValueError), (float("-inf"), ValueError), (np.int64(1), TypeError),
])
def test_json_report_refuses_what_json_dumps_refuses(value, error):
    """A non-finite float and a type JSON has no form for raise at any depth, as in json.dumps; nothing is written."""
    report = {"a": 1, "b": [{"c": value}]}
    with pytest.raises(error):
        json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(error):
        cli._emit_report(report, "json")
    assert out.getvalue() == ""


def test_csv_report_bytes_are_pinned(capsys, monkeypatch, tmp_path):
    """Quoted fields and CRLF row ends, as csv.writer wrote them: a state spec and a trace path with commas."""
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 1.0))  # duration_ms 0.0
    trace = str(tmp_path / 'a,"b.jsonl')
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "scheme_b", "--state=0.6,0,0,0.8i", "--trials", "3", "--seed", "5",
        "--output", "csv", "--emit-trace", trace,
    )
    assert code == 0
    quoted_trace = trace.replace('"', '""')
    assert out == (
        "key,value\r\nanalytic.p1,0.3599999999999998\r\nanalytic.p2,0.0\r\nanalytic.p3,0.0\r\n"
        "analytic.p4,0.6400000000000001\r\nchi_square,1.687499999999999\r\n"
        f'config.emit_trace,"{quoted_trace}"\r\nconfig.output,csv\r\nconfig.renormalized,False\r\n'
        'config.scheme,scheme_b\r\nconfig.seed,5\r\nconfig.state,"0.6,0,0,0.8i"\r\n'
        "config.state_coefficients.0,0.6+0i\r\nconfig.state_coefficients.1,0+0i\r\n"
        "config.state_coefficients.2,0+0i\r\nconfig.state_coefficients.3,0+0.8i\r\nconfig.trials,3\r\n"
        "duration_ms,0.0\r\nempirical.counts.PhiMinus,0\r\nempirical.counts.PhiPlus,0\r\n"
        "empirical.counts.PsiMinus,3\r\nempirical.counts.PsiPlus,0\r\nfidelity,0.9999999999999996\r\n"
        "ledger.ebits_consumed,6\r\nledger.ebits_granted,6\r\n"
    )
    events = [json.loads(line) for line in (tmp_path / 'a,"b.jsonl').read_text(encoding="utf-8").splitlines()]
    assert len(events) == 34 and events[0]["step"] == "setup"


def test_json_report_bytes_are_pinned(capsys, monkeypatch):
    """Sorted keys, two-space indent, shortest round-trip floats: the report of the CSV case above, as JSON."""
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 1.0))  # duration_ms 0.0
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "scheme_b", "--state=0.6,0,0,0.8i", "--trials", "3", "--seed", "5",
    )
    assert code == 0
    assert out == (
        '{\n  "analytic": {\n    "p1": 0.3599999999999998,\n    "p2": 0.0,\n    "p3": 0.0,\n'
        '    "p4": 0.6400000000000001\n  },\n  "chi_square": 1.687499999999999,\n  "config": {\n'
        '    "emit_trace": null,\n    "output": "json",\n    "renormalized": false,\n    "scheme": "scheme_b",\n'
        '    "seed": 5,\n    "state": "0.6,0,0,0.8i",\n    "state_coefficients": [\n      "0.6+0i",\n'
        '      "0+0i",\n      "0+0i",\n      "0+0.8i"\n    ],\n    "trials": 3\n  },\n  "duration_ms": 0.0,\n'
        '  "empirical": {\n    "counts": {\n      "PhiMinus": 0,\n      "PhiPlus": 0,\n      "PsiMinus": 3,\n'
        '      "PsiPlus": 0\n    }\n  },\n  "fidelity": 0.9999999999999996,\n  "ledger": {\n'
        '    "ebits_consumed": 6,\n    "ebits_granted": 6\n  }\n}\n'
    )


def test_json_report_emission_heap_is_near_the_csv_one(capsys, monkeypatch):
    """Writing the pinned report as JSON peaks at most 1 500 B above writing it as CSV (json.dumps with indent: +4.3 KB)."""
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 1.0))
    emit, reports = cli._emit_report, []
    monkeypatch.setattr(cli, "_emit_report", lambda report, output: reports.append(report))
    assert run_cli(capsys, "run", "--scheme", "scheme_b", "--state=0.6,0,0,0.8i", "--trials", "3", "--seed", "5")[0] == 0

    def peak(output):
        peaks = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                tracemalloc.start()
                try:
                    emit(reports[0], output)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        return min(peaks)

    assert peak("json") <= peak("csv") + 1_500


def test_duration_is_the_runs_wall_time(capsys, monkeypatch):
    """duration_ms is the clock after the run less the clock before it, in milliseconds: never negative."""
    argv = ("run", "--scheme", "fig1", "--state", "random", "--trials", "100")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and report_of(out)["duration_ms"] >= 0
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=iter([1.0, 1.25]).__next__))
    assert report_of(run_cli(capsys, *argv)[1])["duration_ms"] == 250.0


def test_seed_defaults_to_zero(capsys, monkeypatch):
    """With neither --seed nor BELLSIM_SEED a run is the seed-0 run, and its report says so."""
    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    argv = ("run", "--scheme", "scheme_a", "--state", "random", "--trials", "50")
    _, out_default, _ = run_cli(capsys, *argv)
    _, out_zero, _ = run_cli(capsys, *argv, "--seed", "0")
    a, b = report_of(out_default), report_of(out_zero)
    assert a["config"]["seed"] == 0
    a.pop("duration_ms")
    b.pop("duration_ms")
    assert a == b


def test_seed_falls_back_to_environment(capsys, monkeypatch):
    """Without --seed, BELLSIM_SEED=5 runs the --seed 5 run; with --seed 5, BELLSIM_SEED is not read, bad or not."""
    argv = ("run", "--scheme", "scheme_a", "--state", "random", "--trials", "50")
    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    expected = report_of(run_cli(capsys, *argv, "--seed", "5")[1])
    expected.pop("duration_ms")
    for env, flag in (("5", ()), ("not-a-number", ("--seed", "5"))):
        monkeypatch.setenv("BELLSIM_SEED", env)
        code, out, _ = run_cli(capsys, *argv, *flag)
        report = report_of(out)
        report.pop("duration_ms")
        assert code == 0 and report == expected


def test_bad_environment_seed(capsys, monkeypatch):
    """A non-integer BELLSIM_SEED exits 2 before anything else is checked, also a trial count that exits 2."""
    monkeypatch.setenv("BELLSIM_SEED", "not-a-number")
    for trials in ("5", "0"):
        got = run_cli(capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", trials)
        assert got == (2, "", "error: BELLSIM_SEED must be an integer\n")


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("seed,code", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
def test_seed_range_is_checked_at_the_boundary(capsys, monkeypatch, via, seed, code):
    argv = ["run", "--scheme", "fig1", "--state", "random", "--trials", "5"]
    if via == "flag":
        argv.append(f"--seed={seed}")
    else:
        monkeypatch.setenv("BELLSIM_SEED", str(seed))
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code == 2:
        assert out == "" and "seed" in err and "state" not in err


def test_emit_trace_writes_jsonl(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        capsys, "run", "--scheme", "scheme_b", "--state", "PhiPlus", "--trials", "5",
        "--seed", "2", "--emit-trace", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) > 10
    ops = [json.loads(line)["op"] for line in lines]
    assert "gate:CNOT" in ops and "measure:z" in ops and "send" in ops
    for line in lines:
        event = json.loads(line)
        assert {"step", "party", "op", "qubits"} <= set(event)


@pytest.mark.parametrize(
    "where",
    [
        "missing/t.jsonl", ".", "", "somefile/t.jsonl", "newdir/", "dangling.jsonl", "loop.jsonl",
        pytest.param("a" * 300 + ".jsonl", id="name-too-long"),  # longer than the file system takes
        "missing/../t.jsonl",  # the OS resolves "missing" before ".."
    ],
)
def test_emit_trace_unwritable_path_exits_two_before_sampling(capsys, monkeypatch, tmp_path, where):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("sampled before the trace path was checked")

    (tmp_path / "somefile").write_text("")
    (tmp_path / "dangling.jsonl").symlink_to(tmp_path / "missing" / "t.jsonl")  # into a missing directory
    (tmp_path / "loop.jsonl").symlink_to(tmp_path / "other.jsonl")
    (tmp_path / "other.jsonl").symlink_to(tmp_path / "loop.jsonl")
    monkeypatch.setattr(cli, "_run_trials", must_not_sample)
    code, out, err = run_cli(
        capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "3",
        # "" stays the empty path; os.path.join keeps a trailing separator
        "--emit-trace", where and os.path.join(tmp_path, where),
    )
    assert code == 2
    assert out == "" and "emit-trace" in err and "not writable" in err


def test_bad_state_spec_exits_two_and_leaves_the_trace_file_as_it_was(capsys, tmp_path):
    """The trace file is opened only once the state spec is accepted."""
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"an earlier trace\n")
    code, out, err = run_cli(
        capsys, "run", "--scheme", "fig1", "--state=1,2,3", "--trials", "3", "--emit-trace", str(path),
    )
    assert code == 2
    assert out == "" and "invalid state spec" in err
    assert path.read_bytes() == b"an earlier trace\n"


def test_emit_trace_through_a_symlink_to_a_new_file(capsys, tmp_path):
    link, target = tmp_path / "link.jsonl", tmp_path / "target.jsonl"
    link.symlink_to(target)
    code, _, err = run_cli(
        capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "3", "--emit-trace", str(link),
    )
    assert code == 0 and err == ""
    assert link.is_symlink() and target.read_text().count("\n") == 10  # fig1's 10 events


def test_emit_trace_unsupported_for_photonic(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "photonic", "--state", "PhiPlus", "--trials", "5",
        "--emit-trace", str(tmp_path / "t.jsonl"),
    )
    assert code == 2
    assert "emit-trace" in err


def _explode(*args, **kwargs):
    raise RuntimeError("norm drifted")


def test_run_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli.OutcomeTree, "sample", _explode)
    code, out, err = run_cli(capsys, "run", "--scheme", "scheme_a", "--state", "PhiPlus", "--trials", "5")
    assert code == 3
    assert out == "" and "norm drifted" in err


def test_run_failing_after_the_trace_file_is_opened_exits_three_with_it_empty(capsys, monkeypatch, tmp_path):
    """The file is opened, and so truncated, before sampling: a run that then fails leaves it empty."""
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"an earlier trace\n")
    monkeypatch.setattr(cli.OutcomeTree, "sample", _explode)
    code, out, err = run_cli(
        capsys, "run", "--scheme", "scheme_b", "--state", "PhiPlus", "--trials", "3", "--emit-trace", str(path),
    )
    assert code == 3
    assert out == "" and "norm drifted" in err
    assert path.read_bytes() == b""


@pytest.fixture
def fresh_traces():
    """The encoded traces ``_run_trials`` keeps, rendered anew for the test, and dropped after it."""
    cli._trace_lines.cache_clear()
    yield
    cli._trace_lines.cache_clear()


@pytest.mark.parametrize("where", ["render", "write", "device"])
def test_trace_failure_exits_three(capsys, monkeypatch, tmp_path, fresh_traces, where):
    """A trace that cannot be rendered, encoded or written fails the run: exit 3, no report."""
    path, error = str(tmp_path / "t.jsonl"), "norm drifted"
    if where == "render":
        monkeypatch.setitem(SCHEMES, "fig1", SCHEMES["fig1"]._replace(stages=_explode))
    elif where == "write":  # the encoder of each stage's lines
        monkeypatch.setattr(cli, "trace_to_jsonl", _explode)
    elif os.path.exists("/dev/full"):  # every write to it fails
        path, error = "/dev/full", "No space left on device"
    else:
        pytest.skip("needs a device on which every write fails")
    code, out, err = run_cli(
        capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "3", "--emit-trace", path,
    )
    assert code == 3
    assert out == "" and error in err


def test_trace_failing_after_its_first_stage_exits_three_with_the_file_empty(
    capsys, monkeypatch, tmp_path, fresh_traces
):
    """Every stage is encoded before the first is written: a later stage that fails to render leaves the file empty."""
    path = tmp_path / "t.jsonl"
    argv = ["run", "--scheme", "scheme_b", "--state", "random", "--trials", "3", "--emit-trace", str(path)]
    assert run_cli(capsys, *argv)[0] == 0
    whole = path.read_text().splitlines(keepends=True)
    stages = SCHEMES["scheme_b"].stages

    def first_stage_only(leaf):
        yield next(stages(leaf))
        _explode()

    monkeypatch.setitem(SCHEMES, "scheme_b", SCHEMES["scheme_b"]._replace(stages=first_stage_only))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and "norm drifted" in err
    assert path.read_text() == ""  # truncated, and nothing written
    monkeypatch.undo()
    assert run_cli(capsys, *argv)[0] == 0
    assert path.read_text() == "".join(whole)


def _failing_on_second_call(real):
    """``real``, but its second call raises."""
    calls = []

    def once_real_then_failing(*args):
        calls.append(args)
        if len(calls) == 2:
            _explode()
        return real(*args)

    return once_real_then_failing


@pytest.mark.parametrize("where", ["render", "encode", "write"])
def test_a_trace_failing_after_its_first_stage_is_not_kept(capsys, monkeypatch, tmp_path, fresh_traces, where):
    """The real row's trace failing part-way: the next call writes it whole.

    A render or encode that fails keeps nothing and writes nothing; a write that fails has written the setup stage
    and keeps the encoded lines.
    """
    path = tmp_path / "t.jsonl"
    argv = ["run", "--scheme", "scheme_b", "--state", "random", "--trials", "3", "--emit-trace", str(path)]
    assert run_cli(capsys, *argv)[0] == 0
    whole = path.read_bytes()
    cli._trace_lines.cache_clear()
    if where == "render":  # S_zz's branch record, once the setup stage has rendered
        monkeypatch.setattr(protocols, "_branch_record", _explode)
    else:
        name = "trace_to_jsonl" if where == "encode" else "_write_all"
        monkeypatch.setattr(cli, name, _failing_on_second_call(getattr(cli, name)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and "norm drifted" in err
    written = b"".join(whole.splitlines(keepends=True)[:2]) if where == "write" else b""  # the setup stage
    assert path.read_bytes() == written
    assert cli._trace_lines.cache_info().currsize == (where == "write")
    monkeypatch.undo()
    assert run_cli(capsys, *argv)[0] == 0
    assert path.read_bytes() == whole


def _protocol_leaves():
    """(row's stages, leaf) of every leaf of every protocol scheme: 4 of fig1, 16 of scheme (a), 16 of scheme (b)."""
    for row in SCHEMES.values():
        if row.stages is not None:
            shape = OutcomeTree(bell_state(BellLabel.PHI_PLUS), row.tree).labels.shape
            yield from ((row.stages, leaf) for leaf in np.ndindex(shape))


def test_kept_trace_bytes_are_a_fresh_render_of_every_leaf(tmp_path, fresh_traces):
    """Every leaf written once keeps its stages' encoded lines: 36 entries, 90 416 bytes in all."""
    pairs, kept = list(_protocol_leaves()), 0
    assert len(pairs) == 36
    for k, (stages, leaf) in enumerate(pairs):
        fresh = tuple((trace_to_jsonl(stage) + "\n").encode() for stage in stages(leaf))
        path = tmp_path / f"{k}.jsonl"
        for _ in range(2):  # cold, then warm
            with open(path, "wb", buffering=0) as trace:
                for lines in cli._trace_lines(stages, leaf):
                    cli._write_all(trace, lines)
            assert path.read_bytes() == b"".join(fresh)
        assert cli._trace_lines(stages, leaf) == fresh
        kept += sum(map(len, fresh))
    assert cli._trace_lines.cache_info().currsize == 36
    assert kept == 90_416


def test_warm_trace_is_the_cold_one(capsys, monkeypatch, tmp_path, fresh_traces):
    """A call whose leaf was written before writes the kept lines, without rendering: the cold call's file."""
    cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    argv = ["run", "--scheme", "scheme_b", "--state", "random", "--trials", "3", "--seed", "11"]
    assert run_cli(capsys, *argv, "--emit-trace", str(cold))[0] == 0
    info = cli._trace_lines.cache_info()
    assert (info.hits, info.misses) == (0, 1)  # rendered once
    monkeypatch.setattr(cli, "trace_to_jsonl", _explode)
    assert run_cli(capsys, *argv, "--emit-trace", str(warm))[0] == 0
    assert warm.read_bytes() == cold.read_bytes()
    info = cli._trace_lines.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)  # written from the kept lines


def test_trace_writer_resumes_short_writes():
    class Trickle:
        """A raw file that takes at most 5 bytes per write."""

        def __init__(self):
            self.data = b""

        def write(self, data):
            self.data += data[:5]
            return min(len(data), 5)

    fh = Trickle()
    cli._write_all(fh, b"0123456789abcdefghijk")
    assert fh.data == b"0123456789abcdefghijk"


_CLOSED_STDOUT_ERROR = "error: stdout was closed before the output was written"


@pytest.mark.parametrize("argv", [
    ("run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "10"),
    ("run", "--scheme", "scheme_b", "--state", "random", "--trials", "10", "--output", "csv"),
    ("verify",),
    ("--help",),
    ("run", "--help"),
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_three_with_one_error_line(argv, unbuffered):
    """A reader gone before the output: exit 3 and one error line, no traceback, also from the flush at exit."""
    argv = [sys.executable, "-m", "bellsim.cli", *argv]
    # unbuffered, print meets the closed pipe; buffered, only the final flush does
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=console_env(unbuffered)) as proc:
        proc.stdout.close()  # before the child has imported numpy, so before it writes
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    assert err.splitlines() == [_CLOSED_STDOUT_ERROR]


def test_closed_stdout_without_a_descriptor_exits_three_and_redirects_nothing(capsys):
    """A stdout with no OS descriptor (StringIO, capsys) is left as it is: no descriptor is redirected."""
    class ClosedReader(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    def descriptor_one():
        status = os.fstat(1)
        return status.st_dev, status.st_ino

    before = descriptor_one()
    with contextlib.redirect_stdout(ClosedReader()):
        code = main(["run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "3"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [_CLOSED_STDOUT_ERROR]
    assert descriptor_one() == before


def test_chi_square_zero_probability_branch(capsys):
    # deterministic input: all mass on one label, chi-square ~ 0
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "200", "--seed", "4"
    )
    assert code == 0
    report = report_of(out)
    assert report["chi_square"] == pytest.approx(0.0, abs=1e-9)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# a seed whose one trial reaches scheme (a)'s leaf (1, 1), PsiMinus, analytic probability 6.2e-16
UNBOUNDED_CHI_SQUARE = ("run", "--scheme", "scheme_a", "--state=1,0,1.5e-6,2.5e-8", "--trials", "1",
                        "--seed", "8961729353415447862")


def test_unbounded_chi_square_is_null_in_json_and_empty_in_csv(capsys):
    code, out, _ = run_cli(capsys, *UNBOUNDED_CHI_SQUARE)
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["empirical"]["counts"]["PsiMinus"] == 1
    assert report["chi_square"] is None
    code, out, _ = run_cli(capsys, *UNBOUNDED_CHI_SQUARE, "--output", "csv")
    assert code == 0
    assert dict(csv.reader(io.StringIO(out)))["chi_square"] == ""


def test_trials_cap(capsys):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "2000000"
    )
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize("trials,code,scheme,state,seed", [
    pytest.param(1_000_000, 0, "fig1", "PhiPlus", None, id="1000000-0"),
    pytest.param(1_000_001, 2, "fig1", "PhiPlus", None, id="1000001-2"),
    # each scheme on random states, at the default seed and the last one, and next to the probability floor
    *(pytest.param(1_000_000, 0, scheme, state, seed, id=f"{scheme}-{state}-{seed}") for scheme, state, seed in (
        ("fig1", "random", None), ("scheme_a", "random", None), ("photonic", "random", None),
        ("scheme_b", "random", 2**64 - 1), ("scheme_b", "1,0,1.5e-6,0", 3), ("photonic", "1,0,1.5e-6,2.5e-8", 3))),
])
def test_trials_cap_boundary(capsys, monkeypatch, trials, code, scheme, state, seed):
    """MAX_TRIALS itself runs; one more is refused."""
    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    seeded = () if seed is None else ("--seed", str(seed))
    got, out, err = run_cli(capsys, "run", "--scheme", scheme, f"--state={state}", "--trials", str(trials), *seeded)
    assert got == code
    if code == 0:
        counts = report_of(out)["empirical"]["counts"]
        assert sum(counts.values()) == trials == counts.get(state, trials)  # a Bell input reads its own label
    else:
        assert out == "" and "capped" in err


def test_photonic_run_statistic_is_plausible(capsys):
    # the emitted chi-square against the analytic law should not be extreme
    from scipy import stats

    code, out, _ = run_cli(
        capsys, "run", "--scheme", "photonic", "--state", "random", "--trials", "20000", "--seed", "1"
    )
    assert code == 0
    report = report_of(out)
    assert sum(report["empirical"]["counts"].values()) == 20000
    p_value = stats.chi2.sf(report["chi_square"], df=3)
    assert p_value > 0.001


def test_verify_command_passes(capsys):
    """One PASS line per group of GROUPS, all 13, and nothing on stderr."""
    code, out, err = run_cli(capsys, "verify")
    assert (code, err, len(verify.GROUPS)) == (0, "", 13)
    assert out.splitlines() == [f"PASS {name}" for name, _ in verify.GROUPS]


def test_verify_command_reports_failure(capsys, monkeypatch):
    def broken():
        verify._check(False, "deliberately broken", case=3)

    def also_broken():
        verify._check(False, "also broken", axis="y")

    groups = (("broken", broken),) + verify.GROUPS[:1] + (("also-broken", also_broken),)
    monkeypatch.setattr(verify, "GROUPS", groups)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert out.splitlines() == [
        "FAIL broken: deliberately broken", "PASS pauli-algebra", "FAIL also-broken: also broken"
    ]
    assert [json.loads(line) for line in err.splitlines()] == [
        {"case": 3, "group": "broken"}, {"axis": "y", "group": "also-broken"}
    ]
    # raised directly (as in the acceptance criteria), the message carries the counterexample
    with pytest.raises(Exception, match='deliberately broken {"case": 3}'):
        broken()


def test_verify_counterexample_is_strict_json(capsys, monkeypatch):
    """A non-finite float in a counterexample, at any depth, is printed as its repr string, never as NaN."""
    def not_finite():
        verify._check(False, "not finite", deviation=float("nan"), worst=float("inf"),
                      pair=(np.float64("-inf"), {"x": [float("nan"), 0.5]}))

    monkeypatch.setattr(verify, "GROUPS", (("demo", not_finite),))
    code, out, err = run_cli(capsys, "verify")
    assert code == 1 and out == "FAIL demo: not finite\n"

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    assert json.loads(err, parse_constant=refuse) == {
        "deviation": "nan", "group": "demo", "pair": ["-inf", {"x": ["nan", 0.5]}], "worst": "inf"
    }
    # raised directly (as in the acceptance criteria), the message ends in the same strict JSON
    with pytest.raises(verify._Failure) as raised:
        verify._check(False, "x", deviation=float("nan"), worst=float("inf"))
    assert json.loads(str(raised.value).removeprefix("x "), parse_constant=refuse) == {
        "deviation": "nan", "worst": "inf"
    }


@pytest.fixture
def fresh_parser():
    """``main``'s parsers built anew for the test, and dropped after it."""
    cli._parsers.cache_clear()
    yield
    cli._parsers.cache_clear()


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch, fresh_parser):
    """A good run, usage errors, --help and verify share the one build of the first call."""
    builds = []
    build = cli._build_parsers
    monkeypatch.setattr(cli, "_build_parsers", lambda: builds.append(None) or build())
    monkeypatch.setattr(verify, "GROUPS", verify.GROUPS[:1])
    assert run_cli(capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "3")[0] == 0
    for argv, message in ((["run", "--scheme", "bogus", "--state", "PhiPlus"], "invalid choice"),
                          (["run", "--scheme", "fig1", "--state", "PhiPlus", "--bogus"], "unrecognized")):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2 and message in capsys.readouterr().err
    with pytest.raises(SystemExit) as shown:
        main(["run", "--help"])
    assert shown.value.code == 0 and "--emit-trace" in capsys.readouterr().out
    assert run_cli(capsys, "verify")[:2] == (0, "PASS pauli-algebra\n")
    assert len(builds) == 1


def test_a_run_argv_is_parsed_by_its_subparser_alone(capsys, monkeypatch, fresh_parser):
    """A good run never reaches the full parser's parse_args; an argv with extras is rejected by it."""
    parser, _ = cli._parsers()
    full = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: full.append(argv) or parse_args(argv))
    good = ["run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "3"]
    assert run_cli(capsys, *good)[0] == 0 and full == []
    with pytest.raises(SystemExit) as usage:
        main([*good, "stray"])
    assert usage.value.code == 2 and full == [[*good, "stray"]]
    assert capsys.readouterr().err.endswith("bellsim: error: unrecognized arguments: stray\n")


def _parsed(parse, argv):
    """(exit code, stdout, stderr, vars of the namespace) of ``parse(argv)``: the code None if it returns, the namespace if it exits."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _assert_parsed_as_full_parser(argv):
    assert _parsed(cli._parse_args, argv) == _parsed(cli.build_parser().parse_args, argv)


_GOOD = ("--scheme", "fig1", "--state", "PhiPlus")


@pytest.mark.parametrize("argv", [
    ["run", *_GOOD],
    ["run", "--scheme=scheme_b", "--state=random", "--trials=7", "--seed=3", "--output=csv", "--emit-trace=t.jsonl"],
    ["run", "--sch", "photonic", "--st", "PsiMinus", "--tr", "5", "--se", "2", "--o", "csv", "--e", "t.jsonl"],
    ["run", "--s", "fig1", "--state", "PhiPlus"],  # ambiguous abbreviation
    ["run", "--", *_GOOD],
    ["run", *_GOOD, "--"],
    ["--", "run", *_GOOD],
    ["run", "--scheme", "fig1", "--scheme", "scheme_a", "--state", "PhiPlus", "--seed", "1", "--seed", "2"],
    ["run", *_GOOD, "stray"],
    ["run", *_GOOD, "--trials", "3", "run"],
    ["run", *_GOOD, "--bogus"],
    ["run", "--bogus=1", *_GOOD],
    ["run", "--scheme", "fig1", "--state"],
    ["run", "--scheme", "fig1"],
    ["run", "--scheme", "nope", "--state", "PhiPlus"],
    ["run", *_GOOD, "--trials", "ten"],
    ["run", *_GOOD, "--output", "xml"],
    ["run", "--scheme", "fig1", "-h"],
    ["run", "--bogus", "--help"],
    ["run", "--scheme", "fig1", "--state", "-0.6,0.8i,0,0"],
    ["run", "--scheme", "fig1", "--state=-0.6,0.8i,0,0"],
    ["run", "--seed", "-5", *_GOOD],
    ["run"],
    [],
    ["-h", "run"],
    ["--help"],
    ["verify"],
    ["verify", "x"],
    ["ru", *_GOOD],
])
def test_main_parses_an_argv_as_the_full_parser_does(monkeypatch, argv):
    _assert_parsed_as_full_parser(argv)
    monkeypatch.setattr(sys, "argv", ["bellsim", *argv])  # main(argv=None), as the console script calls it
    assert _parsed(lambda _: cli._parse_args(None), argv) == _parsed(cli.build_parser().parse_args, argv)


_RUN_VALUES = {  # each option's good values, then its bad ones
    "--scheme": (tuple(SCHEMES), ("nope",)),
    "--state": (("PhiPlus", "random", "0.6,0.8i,0,0", "-0.6,0.8i,0,0", "a b"), ("",)),
    "--trials": (("3", "-2"), ("ten", "1e3")),
    "--seed": (("0", "-5", "18446744073709551615"), ("x",)),
    "--output": (("json", "csv"), ("xml",)),
    "--emit-trace": (("t.jsonl", "a b.jsonl"), ("-t.jsonl",)),
}


@st.composite
def _run_argvs(draw):
    """``run`` argv: options shuffled, split or joined, abbreviated or repeated; bad values and extras in half of them."""
    bad = draw(st.booleans())
    names = list(draw(st.sampled_from([("--scheme", "--state")] * 4 + [("--scheme",), ()])))
    names += draw(st.lists(st.sampled_from(sorted(_RUN_VALUES)), max_size=5))
    groups = [draw(st.sampled_from([[], ["--bogus"], ["--bogus=1"], ["stray"], ["--"], ["-h"]]) if bad else st.just([]))]
    for name in names:
        spelled = name[:draw(st.one_of(st.just(len(name)), st.integers(3, len(name))))]
        good, wrong = _RUN_VALUES[name]
        value = draw(st.sampled_from(good + wrong if bad else good))
        groups.append(draw(st.sampled_from([[f"{spelled}={value}"], [spelled, value]])))
    return ["run", *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(max_examples=200, deadline=None)
@given(_run_argvs())
def test_main_parses_any_run_argv_as_the_full_parser_does(argv):
    _assert_parsed_as_full_parser(argv)


_PLAIN_RUN = ("run", "--scheme", "scheme_b", "--state", "random", "--trials", "20")


@pytest.mark.parametrize("between", [
    None,
    ("run", "--scheme", "fig1", "--state", "random", "--seed", "7", "--output", "xml"),  # a usage error
    ("run", "--seed", "9", "--output", "csv", "--help"),
])
def test_consecutive_calls_share_no_arguments(capsys, monkeypatch, tmp_path, fresh_parser, between):
    """Options of an earlier call, also of a usage error or --help, do not reach the next call's report."""
    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 1.0))  # duration_ms 0.0
    trace = str(tmp_path / "t.jsonl")
    assert run_cli(capsys, *_PLAIN_RUN, "--seed", "5", "--output", "csv", "--emit-trace", trace)[0] == 0
    if between is not None:
        with pytest.raises(SystemExit):
            main(list(between))
        capsys.readouterr()
    code, reused, _ = run_cli(capsys, *_PLAIN_RUN)
    assert code == 0
    config = report_of(reused)["config"]
    assert (config["seed"], config["output"], config["emit_trace"]) == (0, "json", None)
    cli._parsers.cache_clear()
    assert run_cli(capsys, *_PLAIN_RUN)[1] == reused  # the same argv through a parser built for it


def test_in_process_run_heap_peak_is_the_runs_own(capsys, fresh_parser):
    """After a warm-up call, a 2000-trial run holds no parser and none of its garbage."""
    argv = ["run", "--scheme", "scheme_b", "--state", "random", "--trials", "2000"]
    assert main(argv) == 0  # builds the parser and the run path's lazy state
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 26_000

