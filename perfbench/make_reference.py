"""Regenerate reference.json: the report digests the benchmark compares against.

    python3 perfbench/make_reference.py

Records the digest of every guard-matrix report and, for workload seeds
0..REFERENCE_SEEDS-1, the combined digest of one pass of each workload. Run
it only when a change is meant to alter reports; the digests pin the sampled
outcomes of the commit that wrote them.
"""
from __future__ import annotations

import json
import os

import run  # sets the BLAS environment before numpy is imported
import checks
import workloads

REFERENCE_SEEDS = 64


def main() -> int:
    os.chdir(run.ROOT)
    bs = run.import_program()
    (run.ROOT / workloads.TRACE_PATH).parent.mkdir(parents=True, exist_ok=True)
    call = run.make_call(bs.cli)

    def digest_of(argv):
        code, out, _, _ = call(argv)
        return checks.check(argv, code, out)  # raises on any failed check

    reference = {
        "guard": {" ".join(argv): digest_of(argv) for argv in workloads.guard_matrix()},
        "passes": {
            name: {str(seed): checks.combine([digest_of(argv) for argv in make(seed)])
                   for seed in range(REFERENCE_SEEDS)}
            for name, make in workloads.WORKLOADS.items()
        },
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
