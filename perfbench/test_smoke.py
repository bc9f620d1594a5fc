"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload generator is a pure function of its seed and that
each run prints every metric the benchmark defines, with its unit.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SCHEMES = ("fig1", "scheme_a", "scheme_b", "photonic")
END_TO_END = {
    "setup_s": "s", "peak_heap_mb": "MB", "wall_s": "s", "trials_per_s": "1/s",
    "run_ms.p50": "ms", "run_ms.p99": "ms",
    **{f"us_per_trial.{scheme}": "us" for scheme in SCHEMES},
}
PER_LAYER = {
    "measure.uniform_ns", "measure.substream_us", "measure.nonlocal_product_measurement.szz_us",
    "measure.nonlocal_product_measurement.sxx_us", "measure.local_product_measurement.sxx_us",
    "measure.measure_local_pauli_us", "protocols.locc_audit_us", "protocols.trace_to_jsonl_us",
    "photonic.label_distribution_us", "photonic.build_photonic_run_us", "photonic.builds_per_run",
    "photonic.detect_us", "qstate.fidelity_us", "bellcore.bell_state_us", "qstate.StateVector_us",
    "qstate.apply_unitary_us", "bellcore.to_bell_us", "bellcore.classify_us", "cli.build_parser_us",
    "cli.report_self_us", "trace.overhead_frac",
    *(f"cli.resolve_state.{kind}_us" for kind in ("label", "random", "coefficients")),
    *(f"measure.{count}_per_trial.{scheme}.{kind}" for count in ("draws", "drawless")
      for scheme in SCHEMES for kind in ("random", "bell")),
    *(f"measure.kernel_calls_per_trial.{scheme}" for scheme in SCHEMES),
    *(f"protocols.analytic_label_distribution.{scheme}_us" for scheme in SCHEMES),
    *(f"protocols.{name}.{scheme}" for name in ("orchestration_self_us", "trace_events_per_run")
      for scheme in SCHEMES[:3]),
    *(f"protocols.run_{scheme}{kind}_us" for scheme in SCHEMES[:3] for kind in ("", "_traced")),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_small_runs_cover_the_state_grammar():
    ops = workloads.small_runs(3)
    assert len(ops) >= 1000
    specs = [token.split("=", 1)[1] for argv in ops for token in argv if token.startswith("--state=")]
    explicit = [spec for spec in specs if "," in spec]
    assert any(spec.startswith("-") for spec in explicit)
    assert all("," not in argv[argv.index("--state") + 1] for argv in ops if "--state" in argv)
    assert {argv[argv.index("--output") + 1] for argv in ops} == {"json", "csv"}
    assert max(int(argv[argv.index("--trials") + 1]) for argv in ops) <= 8


def test_spec_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names >= PER_LAYER
    sys.path.insert(0, str(ROOT / "src"))
    from bellsim.verify import GROUPS

    assert names - PER_LAYER == {f"verify.{group}_s" for group, _ in GROUPS}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in sorted(workloads.WORKLOADS)] + [("verify", 1)])
def test_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.split()}
    for name in [*result["metrics"], "failed_frac"]:
        value, unit, samples = table[name][:3]
        assert int(samples) >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".scratch", "__pycache__"))
    proc = _run("small-runs", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
