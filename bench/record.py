#!/usr/bin/env python3
"""Record the benchmark's case pools and the expected output of every op.

    python3 bench/record.py [workload ...]

Run from the repository root at the commit whose outputs are the reference;
it writes bench/refs/<workload>.json. Pool cases are drawn from seeded
candidate streams; a candidate whose op raises is skipped, so every recorded
case runs cleanly at this commit. Rerun it only when an output is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _commit():
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def record(workload, workdir):
    pool, expect, meta = {}, {}, {}
    for group in sorted(workload.groups):
        pool[group] = []
        stream = workload.candidates(group)
        size = max(workload.pool_size, 2 * workload.groups[group])
        while len(pool[group]) < size:
            spec = next(stream)
            key = f"{group}/{len(pool[group])}"
            try:
                outputs = [(op.key, op.run()) for op in workload.ops(key, spec, workdir)]
            except Exception as e:  # a candidate the program cannot run is not a case
                print(f"skip {key} {spec}: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            unexpected = [k for k, (_, _, m) in outputs if m.get("exit", 0) != m.get("expected_exit", 0)]
            if unexpected:
                print(f"skip {key} {spec}: unexpected exit code at {unexpected}", file=sys.stderr)
                continue
            pool[group].append(spec)
            for op_key, (_, result, op_meta) in outputs:
                expect[op_key] = wl.expect_form(result)
                if "enumerated" in op_meta:
                    meta[op_key] = {"enumerated": op_meta["enumerated"]}
        print(f"{workload.name} {group}: {len(pool[group])} cases", file=sys.stderr)
    return {"workload": workload.name, "commit": _commit(), "pool": pool,
            "expect": expect, "meta": meta}


def main(names):
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("GAPFORGE_BUDGET", None)
    wl.load_gapforge()
    wl.REFS.mkdir(exist_ok=True)
    cwd = os.getcwd()
    for name in names or sorted(wl.WORKLOADS):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="record-", dir=ROOT / ".bench_out")
        try:
            doc = record(wl.WORKLOADS[name], workdir)
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
        with open(wl.refs_path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=0)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
