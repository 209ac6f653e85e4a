"""Record the reference CSV values of every workload for one seed.

    python3 bench/record_reference.py --seed N

Runs each workload's commands once, at full scale, and writes
``bench/reference/seed-N.json``.  Record references from the commit that a
change is measured against; the benchmark then compares every CSV value it
produces for seed N with them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import REFERENCE_DIR, WORKLOADS, read_table


def record(seed: int) -> dict:
    run.import_package()
    from chiralchain import cli

    tables = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name, workload in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            for op in workload.prepare(seed, workdir, "full").operations:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(list(op.argv)) != 0:
                        raise RuntimeError(f"{name} {op.name} failed")
                for rel in op.outputs:
                    if rel.endswith(".csv"):
                        header, rows = read_table(workdir / rel)
                        tables[f"{name}/{Path(rel).name}"] = {"header": header, "rows": rows}
    return tables


def main() -> int:
    parser = argparse.ArgumentParser(description="record reference CSV values for one seed")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"seed-{args.seed}.json"
    path.write_text(json.dumps({"seed": args.seed, "commit": commit, "tables": record(args.seed)},
                               indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
