"""CLI behaviour: reports, exit codes, determinism, trace files."""
import contextlib
import csv
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellsim.cli as cli
import bellsim.verify as verify
from bellsim.cli import main, resolve_state
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
    _specs_with_one(_NON_FINITE),
))
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
        "chi_square": {"type": "number"},
        "fidelity": {"type": "number"},
        "ledger": {
            "type": "object",
            "required": ["ebits_granted", "ebits_consumed"],
        },
        "duration_ms": {"type": "number"},
    },
}


@pytest.mark.parametrize("scheme", ["fig1", "scheme_a", "scheme_b", "photonic"])
def test_json_report_validates_against_schema(capsys, scheme):
    import jsonschema

    code, out, _ = run_cli(
        capsys, "run", "--scheme", scheme, "--state", "random", "--trials", "50", "--seed", "8"
    )
    assert code == 0
    jsonschema.validate(report_of(out), REPORT_SCHEMA)


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


def test_emit_trace_unsupported_for_photonic(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "photonic", "--state", "PhiPlus", "--trials", "5",
        "--emit-trace", str(tmp_path / "t.jsonl"),
    )
    assert code == 2
    assert "emit-trace" in err


def test_run_failure_exits_three(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("norm drifted")

    monkeypatch.setattr(cli, "outcome_distribution", explode)
    code, _, err = run_cli(capsys, "run", "--scheme", "scheme_a", "--state", "PhiPlus", "--trials", "5")
    assert code == 3
    assert "norm drifted" in err


def test_chi_square_zero_probability_branch(capsys):
    # deterministic input: all mass on one label, chi-square ~ 0
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "200", "--seed", "4"
    )
    assert code == 0
    report = report_of(out)
    assert report["chi_square"] == pytest.approx(0.0, abs=1e-9)


def test_trials_cap(capsys):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "fig1", "--state", "PhiPlus", "--trials", "2000000"
    )
    assert code == 2
    assert "capped" in err


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
