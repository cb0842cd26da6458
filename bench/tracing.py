"""Spans around gapforge's stage entry points, recorded from the bench only.

A traced round replaces the module attributes that the ops and
`gapforge.cli` call through with wrappers that record one span per call:
stage name, start, end, parent span and op id. Spans stay in memory and are
written out when the run ends. Per-candidate helpers (`optimal_extension`,
`project_index`, `labeling_value`, `weak_agreement_value`,
`pair_consistency`) are never wrapped.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("formula", "setsys", "labelcover", "agreement", "downstream", "solvers", "cli")

_SETSYS = ("sample_random_subsets", "dnf_false_prob", "dnf_bound_holds",
           "pairwise_intersection_max")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _labelings(args, kwargs):
    return {"labelings": math.prod(len(a) for a in args[0].left_alphabets)}


def _cvp_points(args, kwargs):
    inst = args[0]
    box = _arg(args, kwargs, 1, "box")
    if box is None:
        box = inst.k + 1
    return {"points": (2 * box + 1) ** inst.num_cols}


def _two_level_subcollections(args, kwargs):
    k, t = args[0].k, _arg(args, kwargs, 3, "t")
    return {"subcollections": math.comb(k, 2) * (math.comb(k - 2, t - 2) + math.comb(k - 2, 2 * t - 3))}


# stage -> ([(module, attribute), ...], count before the call, count from the result)
STAGES = {
    "formula.parse_dimacs": ([("formula", "parse_dimacs"), ("cli", "parse_dimacs")], None, None),
    "labelcover.build_main_reduction": ([("labelcover", "build_main_reduction")], None, None),
    "labelcover.brute_force_val": ([("labelcover", "brute_force_val")], _labelings, None),
    "labelcover.brute_force_wval": ([("labelcover", "brute_force_wval")], _labelings, None),
    "labelcover.reduce_alphabet": ([("labelcover", "reduce_alphabet")], None, None),
    "labelcover.json": ([("labelcover", "to_json"), ("labelcover", "from_json")], None, None),
    "setsys": ([(m, f) for f in _SETSYS for m in ("setsys", "cli")], None, None),
    "downstream.feige_coverage_reduction": (
        [(m, "feige_coverage_reduction") for m in ("downstream", "cli")], None, None),
    "downstream.guha_khuller_reduction": (
        [(m, "guha_khuller_reduction") for m in ("downstream", "cli")], None, None),
    "downstream.abss_reduction": (
        [(m, f) for f in ("abss_ncp_reduction", "abss_cvp_reduction")
         for m in ("downstream", "cli")], None, None),
    "downstream.parse": (
        [(m, f) for f in ("parse_coverage", "parse_clustering", "parse_code", "parse_lattice")
         for m in ("downstream", "cli")], None, None),
    "downstream.dump": (
        [(m, f) for f in ("coverage_to_text", "clustering_to_text", "code_to_text",
                          "lattice_to_text") for m in ("downstream", "cli")], None, None),
    "solvers.exact_ncp": ([(m, "exact_ncp") for m in ("solvers", "cli")],
                          lambda a, kw: {"messages": 2 ** a[0].num_cols}, None),
    "solvers.exact_cvp": ([(m, "exact_cvp") for m in ("solvers", "cli")], _cvp_points, None),
    "solvers.exact_clustering": (
        [(m, f) for f in ("exact_kmedian", "exact_kmean") for m in ("solvers", "cli")],
        lambda a, kw: {"subsets": math.comb(a[0].num_facilities, a[0].k)}, None),
    "solvers.exact_max_coverage": (
        [(m, "exact_max_coverage") for m in ("solvers", "cli")],
        lambda a, kw: {"subsets": math.comb(len(a[0].sets), a[0].k)}, None),
    "solvers.exact_min_set_cover": (
        [(m, "exact_min_set_cover") for m in ("solvers", "cli")], None,
        lambda a, kw, r: {"enumerated": r.enumerated, "space": 2 ** len(a[0].sets)}),
    "solvers.greedy_max_coverage": ([(m, "greedy_max_coverage") for m in ("solvers", "cli")],
                                    None, None),
    "agreement.build_two_level_graph": (
        [(m, "build_two_level_graph") for m in ("agreement", "cli")],
        _two_level_subcollections, None),
    "agreement.check_rb_transitive": (
        [(m, "check_rb_transitive") for m in ("agreement", "cli")], None, None),
    "agreement.decode": ([(m, "majority_decode") for m in ("agreement", "cli")], None, None),
    "agreement.decode_assignment": ([("agreement", "decode_assignment")], None, None),
    "cli.main": ([("cli", "main")], None, None),
}

# per-candidate cost metrics: stage -> (count name, metric name)
PER_CANDIDATE = {
    "labelcover.brute_force_val": ("labelings", "ns_per_labeling"),
    "labelcover.brute_force_wval": ("labelings", "ns_per_labeling"),
    "solvers.exact_cvp": ("points", "ns_per_point"),
    "solvers.exact_ncp": ("messages", "ns_per_message"),
    "solvers.exact_clustering": ("subsets", "ns_per_subset"),
    "solvers.exact_max_coverage": ("subsets", "ns_per_subset"),
    "agreement.build_two_level_graph": ("subcollections", "ns_per_subcollection"),
}

CLI_COMMANDS = ("reduce", "solve", "verify", "info")


class Tracer:
    """Collects spans and counts while installed; `install`/`uninstall`
    switch the wrappers on and off between rounds."""

    def __init__(self, modules, budget_error):
        self.modules = modules
        self.budget_error = budget_error
        self.spans = []   # [name, start, end, parent, op_id]
        self.counts = defaultdict(int)
        self.op_id = -1
        self._stack = []
        self._saved = []

    def install(self):
        for stage, (targets, before, after) in STAGES.items():
            for module_name, attr in targets:
                module = getattr(self.modules, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: gapforge.{module_name}.{attr} is missing; "
                          f"{stage} is not traced there", file=sys.stderr)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(stage, fn, before, after))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, stage, fn, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = stage
            if stage == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                name = "cli." + (argv[0] if argv and argv[0] in CLI_COMMANDS else "other")
            if before is not None:
                for key, value in before(args, kwargs).items():
                    counts[(stage, key)] += value
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.budget_error as e:
                if not getattr(e, "_bench_counted", False):
                    e._bench_counted = True
                    counts[("budget", "refusals")] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                for key, value in after(args, kwargs, result).items():
                    counts[(stage, key)] += value
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")

    def summary(self, rounds):
        """Per-round busy time, self time and calls per stage and per layer."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            busy[name] += duration
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += duration - child_time[index]
        scale = 1 / max(rounds, 1)
        return ({k: v * scale for k, v in busy.items()},
                {k: v * scale for k, v in calls.items()},
                {k: v * scale for k, v in layer_self.items()},
                {k: v * scale for k, v in self.counts.items()})
