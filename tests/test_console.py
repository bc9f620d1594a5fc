"""The console script: a fresh ``python -m bellsim.cli`` process where one matters (``main(argv=None)``), else main."""
import functools
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim.cli as cli
from bellsim.protocols import ClassicalMessage, TraceEvent, locc_audit

_ROOT = Path(__file__).resolve().parents[1]


def console_env(unbuffered=False, **extra):
    """The environment of every process a test starts: this checkout's ``src`` first on PYTHONPATH, warnings as
    errors, PYTHONUNBUFFERED only if ``unbuffered``, and the ``extra`` variables."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env.update(extra)
    return env


def _assert_fresh_process_agrees(capsys, argv, trace=None):
    """``argv`` through main, then in a fresh process: both exit 0, with one stderr, report (less duration_ms) and
    ``trace``. Returns the report."""
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    traced = trace and trace.read_bytes()
    fresh = subprocess.run([sys.executable, "-m", "bellsim.cli", *argv], capture_output=True, env=console_env(),
                           timeout=60)
    untimed = functools.partial(re.sub, r"^.*duration_ms.*\n", "", flags=re.M)
    assert (fresh.returncode, untimed(fresh.stdout.decode()), fresh.stderr.decode()) == (0, untimed(out), err)
    assert traced == (trace and trace.read_bytes())
    return out


def test_in_process_calls_print_what_fresh_processes_print(capsys, tmp_path):
    """Five calls of main in one process. The second scheme (b) call writes the lines the first one kept."""
    trace, traced_b = tmp_path / "in-process.jsonl", "--scheme scheme_b --state random --trials 500 --seed 5"
    cli._trace_lines.cache_clear()
    for run, traced in ((traced_b, trace), ("--scheme photonic --state=0.6,0.8i,0,0 --trials 300 --output csv", None),
                        ("--scheme fig1 --state PsiMinus --trials 40 --seed 11", None), (traced_b, trace),
                        ("--scheme fig1 --state random --trials 3 --seed 11", trace)):
        argv = ["run", *run.split(), *(["--emit-trace", str(traced)] if traced else [])]
        _assert_fresh_process_agrees(capsys, argv, traced)
    info = cli._trace_lines.cache_info()
    assert (info.hits, info.misses) == (1, 2)  # the first scheme (b) call and the fig1 one rendered


def test_a_fresh_process_takes_its_seed_from_the_environment(capsys, monkeypatch):
    """A fresh process with BELLSIM_SEED=5 and no --seed prints what main prints for --seed 5."""
    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    argv = ["run", "--scheme", "scheme_b", "--state", "random", "--trials", "200"]
    assert cli.main([*argv, "--seed", "5"]) == 0
    out, err = capsys.readouterr()
    fresh = subprocess.run([sys.executable, "-m", "bellsim.cli", *argv], capture_output=True,
                           env=console_env(BELLSIM_SEED="5"), timeout=60)
    untimed = functools.partial(re.sub, r"^.*duration_ms.*\n", "", flags=re.M)
    assert (fresh.returncode, untimed(fresh.stdout.decode()), fresh.stderr.decode()) == (0, untimed(out), err)
    assert json.loads(out)["config"]["seed"] == 5


@pytest.mark.parametrize("run, name, holds", [
    ("scheme_b --state=0.6,0,0,0.8i --trials 3 --seed 5", 'trace,"quoted".jsonl', r'trace,\"quoted\".jsonl"'),
    ("scheme_b --state=0.6,0,0,0.8i --trials 3 --seed 5 --output csv", 'trace,"quoted".jsonl',
     'trace,""quoted"".jsonl"\r\n'),
    ("fig1 --state random --trials 3 --seed 5", "tracé.jsonl", r'trac\u00e9.jsonl"'),
], ids=["quoted-json", "quoted-csv", "non-ascii-json"])
def test_a_fresh_process_prints_a_quoted_or_non_ascii_trace_path_as_main_does(capsys, tmp_path, run, name, holds):
    """main's JSON and CSV bytes are json.dumps's and csv.writer's (tests/test_cli.py); a real process's are main's."""
    argv = ["run", "--scheme", *run.split(), "--emit-trace", str(tmp_path / name)]
    assert holds in _assert_fresh_process_agrees(capsys, argv, tmp_path / name)


def _event(line):
    """One trace line, read back as the TraceEvent it was written from."""
    e = json.loads(line)
    message = e.get("message") and ClassicalMessage(*(e["message"][key] for key in ("from", "to", "payload", "step")))
    return TraceEvent(e["step"], e["party"], e["op"], tuple(e["qubits"]), message, e.get("outcome"))


@pytest.mark.parametrize("scheme, passes", [("fig1", False), ("scheme_a", True), ("scheme_b", True)])
def test_a_trace_file_read_back_is_audited_as_its_scheme(capsys, tmp_path, scheme, passes):
    """The LOCC audit of an --emit-trace file's events passes both spin-product schemes and fails fig1."""
    path = tmp_path / "t.jsonl"
    argv = ["run", "--scheme", scheme, "--state", "random", "--trials", "1", "--seed", "11", "--emit-trace", str(path)]
    assert cli.main(argv) == 0
    report = locc_audit([_event(line) for line in path.read_text(encoding="utf-8").splitlines()])
    assert report.passed == passes and report.events_checked > 0


def test_a_shorter_trace_over_a_longer_one_leaves_no_stale_tail(capsys, tmp_path):
    reused, fresh = tmp_path / "reused.jsonl", tmp_path / "fresh.jsonl"
    run = ["run", "--state", "random", "--trials", "3", "--seed", "11", "--emit-trace"]
    assert cli.main([*run, str(reused), "--scheme", "scheme_b"]) == 0
    assert reused.read_bytes().count(b"\n") == 34
    for path in (reused, fresh):
        assert cli.main([*run, str(path), "--scheme", "fig1"]) == 0
    assert fresh.read_bytes().count(b"\n") == 10
    assert reused.read_bytes() == fresh.read_bytes()


def test_every_test_the_workflow_names_is_collected():
    """A test the CI workflow names by node id, once renamed, would leave its step running nothing."""
    named = re.findall(r"tests/(\w+)\.py::(\w+)", (_ROOT / ".github" / "workflows" / "tests.yml").read_text())
    assert named
    for module, name in named:  # pytest collects a module's functions whose names start with "test"
        assert name.startswith("test") and inspect.isfunction(getattr(importlib.import_module(module), name, None))
