"""Rewrite expected_sha256.json from the reports of the current program.

    python3 bench/record_expected.py

Runs the warm-up pass and passes 0..PASSES-1 of every workload at the default
seed (pass 0 is also the traced pass), applies every check, and stores each
report's sha256 by its argv. A later run at the default seed then fails any
operation whose report bytes changed, which holds a speed-up to the
byte-identity contract. Record only from a commit whose
reports are known to be right; nothing is written if any check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import harness
from run import WARMUP_SCALE
from workloads import WORKLOADS, make_pass, op_key

PASSES = 14  # more than a default-length run reaches


def main() -> int:
    table: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix=".bench-record-", dir=harness.ROOT) as tmp:
        for name in WORKLOADS:
            table[name] = {}
            warm_up = make_pass(name, harness.DEFAULT_SEED, 0, WARMUP_SCALE)
            passes = [make_pass(name, harness.DEFAULT_SEED, i) for i in range(PASSES)]
            for ops in [warm_up, *passes]:
                for res in harness.run_pass(ops, Path(tmp), None):
                    if res.failures:
                        print(f"not recorded: {' '.join(res.argv)}: {res.failures}")
                        return 1
                    digest = table[name].setdefault(op_key(res.op), checks.sha256(res.report))
                    if digest != checks.sha256(res.report):
                        print(f"one argv, two reports: {op_key(res.op)}")
                        return 1
            print(f"{name}: {len(table[name])} operations", flush=True)
    doc = {"seed": harness.DEFAULT_SEED, "workloads": table}
    harness.EXPECTED_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
