#!/usr/bin/env python3
"""gapforge benchmark: one workload per process, one op at a time.

    python3 bench/run.py --workload {lc-oracle,exact-oracles,cli-chain}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; gapforge is imported from ./src, not from an
installed package. The seed picks the round's cases from the workload's
recorded pool (see workloads.py); the timed loop repeats the round until S
seconds have passed and checks every op's output against the reference.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads as wl
from speed import REFERENCE_S, Speedometer
from tracing import CLI_COMMANDS, LAYERS, PER_CANDIDATE, STAGES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7

# Layer-share self-check: the layers a workload exists to stress must take at
# least `min` of its op time; the layers it bypasses at most `max`.
LAYER_CHECK = {
    "lc-oracle": {"min": ({"labelcover.brute_force_val", "labelcover.brute_force_wval"}, 0.8),
                  "max": ({"solvers", "agreement", "downstream"}, 0.02)},
    "exact-oracles": {"min": ({"solvers", "agreement", "downstream"}, 0.8),
                      "max": ({"labelcover.brute_force_val", "labelcover.brute_force_wval"}, 0.0)},
    "cli-chain": {"min": ({"cli", "formula.parse_dimacs", "labelcover.json", "downstream.parse",
                           "downstream.dump"}, 0.2),
                  "max": ({"labelcover.brute_force_val", "labelcover.brute_force_wval"}, 0.25)},
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lc-oracle", "exact-oracles", "cli-chain"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _build_ops(workload, refs, seed, workdir):
    ops = []
    for group, j in wl.plan(workload.groups, refs["pool"], seed):
        ops.extend(workload.ops(f"{group}/{j}", refs["pool"][group][j], workdir))
    return ops


def _setup(workload, refs, seed, workdir):
    """Import gapforge and generate the round's inputs, SETUP_REPS times;
    the last repetition's ops are the ones timed. Returns the ops and the
    median set-up time, scaled to the reference speed."""
    speed = Speedometer()
    times = []
    for _ in range(SETUP_REPS):
        speed.probe()
        start = time.perf_counter()
        wl.load_gapforge()
        ops = _build_ops(workload, refs, seed, workdir)
        times.append(time.perf_counter() - start)
    speed.probe()
    return ops, statistics.median(times) * REFERENCE_S / statistics.median(speed.seconds)


class Loop:
    """Runs rounds of ops, checks each output and keeps every op's timings,
    separately for untraced and traced rounds."""

    def __init__(self, ops, refs):
        self.ops = ops
        self.expect = refs["expect"]
        self.meta = refs["meta"]
        self.speed = Speedometer()
        self.samples = {False: [[] for _ in ops], True: [[] for _ in ops]}  # (start, seconds)
        self.round_walls = {False: [], True: []}
        self.attempted = self.failed = self.retried = 0
        self.refused_affordable = 0
        self.bytes_written = self.exit_nonzero = 0
        self.reported = set()
        self.speed.probe()

    def round(self, tracer):
        traced = tracer is not None
        wall = 0.0
        for index, op in enumerate(self.ops):
            if traced:
                tracer.op_id = self.attempted
            self.attempted += 1
            start = time.perf_counter()
            try:
                elapsed, result, meta = op.run()
            except Exception:  # an op that raises is a failed op; keep measuring
                self.failed += 1
                self._report(op.key, traceback.format_exc())
                continue
            self.speed.tick(elapsed)
            wall += elapsed
            self.samples[traced][index].append((start, elapsed))
            got = wl.expect_form(result)
            if got != self.expect.get(op.key):
                self.failed += 1
                self._report(op.key, f"expected {self.expect.get(op.key)}\n got {got}\n"
                                     f" full {wl.canon_text(result)[:2000]}")
            if meta.get("refused"):
                self.retried += 1
                recorded = self.meta.get(op.key, {}).get("enumerated", 0)
                if traced and recorded <= wl.DEFAULT_BUDGET:
                    self.refused_affordable += 1
            if traced:
                self.bytes_written += meta.get("bytes", 0)
                self.exit_nonzero += meta.get("exit", 0) != 0
        self.round_walls[traced].append(wall)

    def latencies(self, traced):
        """Each op's latency: the median of its repeats, each scaled to the
        reference speed (see speed.py)."""
        return [statistics.median(t * self.speed.scale(at) for at, t in runs)
                for runs in self.samples[traced] if runs]

    def scale(self, traced):
        """The median scale over the ops of the traced or untraced rounds."""
        return statistics.median(self.speed.scale(at) for runs in self.samples[traced]
                                 for at, _ in runs)

    def _report(self, key, text):
        if key not in self.reported:
            self.reported.add(key)
            print(f"op {key} failed: {text}", file=sys.stderr)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(loop, setup_s):
    lat = loop.latencies(False)
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(sum(lat), "s"),
        "op_p50_ms": _metric(1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": _metric(1e3 * _percentile(lat, 90), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "first_try_ratio": _metric((loop.attempted - loop.failed - loop.retried) / loop.attempted,
                                   "ratio"),
    }


def _per_layer(workload_name, loop, tracer):
    rounds = len(loop.round_walls[True])
    busy, calls, layer_self, counts = tracer.summary(rounds)
    scale = loop.scale(True)  # times below are in reference seconds, like wall_s
    m = {}
    for stage in STAGES:
        if stage == "cli.main":
            continue
        m[f"{stage}.busy_s"] = _metric(scale * busy.get(stage, 0.0), "s")
        m[f"{stage}.calls"] = _metric(calls.get(stage, 0.0), "count")
        if stage in PER_CANDIDATE:
            count_name, metric_name = PER_CANDIDATE[stage]
            n = counts.get((stage, count_name), 0)
            m[f"{stage}.{metric_name}"] = _metric(
                1e9 * scale * busy.get(stage, 0.0) / n if n else 0.0, "ns")
    msc = "solvers.exact_min_set_cover"
    enumerated, space = counts.get((msc, "enumerated"), 0), counts.get((msc, "space"), 0)
    m[f"{msc}.enumerated"] = _metric(enumerated, "count")
    m[f"{msc}.useful_ratio"] = _metric(enumerated / space if space else 0.0, "ratio")
    m["labelcover.labelings"] = _metric(
        sum(counts.get((f"labelcover.{s}", "labelings"), 0)
            for s in ("brute_force_val", "brute_force_wval")), "count")
    m["budget.refusals"] = _metric(counts.get(("budget", "refusals"), 0), "count")
    m["budget.refused_affordable"] = _metric(loop.refused_affordable / rounds, "count")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.busy_s"] = _metric(scale * busy.get(f"cli.{command}", 0.0), "s")
    m["cli.calls"] = _metric(sum(calls.get(f"cli.{c}", 0) for c in CLI_COMMANDS + ("other",)),
                             "count")
    m["cli.bytes_written"] = _metric(loop.bytes_written / rounds, "B")
    m["cli.exit_nonzero"] = _metric(loop.exit_nonzero / rounds, "count")
    op_time = statistics.fmean(loop.round_walls[True])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _metric(scale * layer_self.get(layer, 0.0), "s")
        m[f"{layer}.share"] = _metric(layer_self.get(layer, 0.0) / op_time, "ratio")
    untraced = sum(loop.latencies(False))
    overhead = sum(loop.latencies(True)) - untraced
    m["trace.overhead_s"] = _metric(overhead, "s")
    m["trace.overhead_share"] = _metric(overhead / untraced, "ratio")

    def share(names):
        # a name is a layer (self time) or a stage (busy time, which for
        # these leaf stages is their self time)
        return sum(layer_self.get(n, 0.0) if n in LAYERS else busy.get(n, 0.0)
                   for n in names) / op_time

    check = LAYER_CHECK[workload_name]
    stressed, bypassed = share(check["min"][0]), share(check["max"][0])
    passed = stressed >= check["min"][1] and bypassed <= check["max"][1]
    print(f"layer-share check {'pass' if passed else 'FAIL'}: stressed "
          f"{sorted(check['min'][0])} {stressed:.3f} (>= {check['min'][1]}), bypassed "
          f"{sorted(check['max'][0])} {bypassed:.3f} (<= {check['max'][1]})", file=sys.stderr)
    for layer in LAYERS:
        print(f"  share {layer:<10} {layer_self.get(layer, 0.0) / op_time:.3f}", file=sys.stderr)
    m["layer_check.pass"] = _metric(int(passed), "bool")
    return m


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _provenance(args, ops, loop, refs):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "gapforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "op_kinds_per_round": dict(Counter(op.kind for op in ops)),
        "rounds": {"untraced": len(loop.round_walls[False]),
                   "traced": len(loop.round_walls[True])},
        "samples": {"ops_per_round": len(ops),
                    "repeats_per_op": min(len(t) for t in loop.samples[False])},
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
        "refs_commit": refs.get("commit"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "gapforge" / "__init__.py").is_file():
        print(f"run.py: no gapforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the work budget must be the documented default, whatever the caller's environment
    os.environ.pop("GAPFORGE_BUDGET", None)

    workload = wl.WORKLOADS[args.workload]
    refs = wl.load_refs(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    cwd = os.getcwd()
    try:
        ops, setup_s = _setup(workload, refs, args.seed, workdir)
        if not Path(wl.gf.cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"run.py: gapforge was imported from {wl.gf.cli.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        tracer = Tracer(wl.gf, wl.gf.budget.BudgetError) if args.trace else None
        loop = Loop(ops, refs)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(loop.round_walls[False]) > len(loop.round_walls[True])
            if traced:
                tracer.install()
            try:
                loop.round(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            # stop before a round that would end past --seconds
            elapsed = time.perf_counter() - start
            rounds = len(loop.round_walls[False]) + len(loop.round_walls[True])
            if elapsed * (rounds + 1) / rounds > args.seconds and (
                    tracer is None or loop.round_walls[True]):
                break
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = _per_layer(args.workload, loop, tracer)
        tracer.write(OUT / f"spans-{tag}.jsonl")
    else:
        metrics = _end_to_end(loop, setup_s)
    provenance = _provenance(args, ops, loop, refs)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "attempted": loop.attempted, "failed": loop.failed}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
