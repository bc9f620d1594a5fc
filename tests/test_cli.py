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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellsim.cli as cli
import bellsim.verify as verify
from bellsim.cli import main, resolve_state
from bellsim.protocols import SCHEMES
from bellsim.qstate import states_equal


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
    ],
)
def test_run_rejects_bad_state_specs(capsys, bad):
    code, _, err = run_cli(capsys, "run", "--scheme", "fig1", "--state", bad, "--trials", "5")
    assert code == 2
    assert "state" in err


def test_cmd_run_rejects_unknown_scheme(capsys):
    code = cli.cmd_run(cli.RunConfig(scheme="bogus", state="PhiPlus", trials=5, seed=0))
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
    assert ("fidelity" in report) == SCHEMES[scheme].filters


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
    monkeypatch.setenv("BELLSIM_SEED", "5")
    _, out_env, _ = run_cli(capsys, "run", "--scheme", "scheme_a", "--state", "random", "--trials", "50")
    monkeypatch.delenv("BELLSIM_SEED")
    _, out_flag, _ = run_cli(
        capsys, "run", "--scheme", "scheme_a", "--state", "random", "--trials", "50", "--seed", "5"
    )
    a, b = report_of(out_env), report_of(out_flag)
    a.pop("duration_ms")
    b.pop("duration_ms")
    assert a == b


def test_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("BELLSIM_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "5")
    assert code == 2
    assert "BELLSIM_SEED" in err


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


@pytest.mark.parametrize("where", ["render", "write", "device"])
def test_trace_failure_exits_three(capsys, monkeypatch, tmp_path, where):
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


def test_trace_failing_after_its_first_stage_exits_three_with_that_stage_written(capsys, monkeypatch, tmp_path):
    """The trace is written stage by stage: a later stage that fails to render leaves the earlier ones in the file."""
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
    assert path.read_text() == "".join(whole[:2])  # truncated, then the setup stage's two "own" events


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
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_three_with_one_error_line(argv, unbuffered):
    """A reader gone before the output: exit 3 and one error line, no traceback, also from the flush at exit."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)), env.get("PYTHONPATH", "")])
    if unbuffered:  # print meets the closed pipe; buffered, only the final flush does
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "bellsim.cli", *argv]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
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


@pytest.mark.parametrize("trials,code", [(1_000_000, 0), (1_000_001, 2)])
def test_trials_cap_boundary(capsys, trials, code):
    """MAX_TRIALS itself runs; one more is refused."""
    got, out, err = run_cli(capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", str(trials))
    assert got == code
    if code == 0:
        assert report_of(out)["empirical"]["counts"]["PhiPlus"] == trials
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
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 12


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


@pytest.fixture
def fresh_parser():
    """``main``'s parser built anew for the test, and dropped after it."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch, fresh_parser):
    """A good run, a usage error and --help share the one parser of the first call."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(None) or build())
    assert run_cli(capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "3")[0] == 0
    with pytest.raises(SystemExit) as usage:
        main(["run", "--scheme", "bogus", "--state", "PhiPlus"])
    assert usage.value.code == 2 and "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as shown:
        main(["run", "--help"])
    assert shown.value.code == 0 and "--emit-trace" in capsys.readouterr().out
    assert len(builds) == 1


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
    cli._parser.cache_clear()
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
