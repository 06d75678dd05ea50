"""Traced run of the policyforest CLI, timed from outside the library.

Usage (from the repository root, with the package on the path):

    PYTHONPATH=src python3 perfbench/tracer.py SUMMARY_JSON SPANS_JSONL CLI_ARG...

Wraps the public functions of each layer by rebinding the module attributes
their callers look up at call time, runs `policyforest.cli.main(CLI_ARG...)`
in this process, and writes one span per wrapped call to SPANS_JSONL and a
per-layer summary to SUMMARY_JSON. Nothing under src/ is changed.

Each span records wall time and `time.thread_time()`, and both of these for
the spans nested in it on the same thread. Self CPU time (thread CPU minus
that of nested spans) stays correct when the program fits trees on several
threads: time a thread spends waiting for the GIL is wall time, not CPU. Spans are tagged with pid and
thread id. Spans of worker processes are not collected: the summary reports
the CPU time children used so a reader can tell missing spans from zeros.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import policyforest.cli as cli
import policyforest.dataset as dataset
import policyforest.experiments as experiments
import policyforest.forest as forest
import policyforest.logistic as logistic
import policyforest.metrics as metrics


def _tree_nodes(result) -> dict:
    root = result[0]
    stack, n = [root], 0
    while stack:
        node = stack.pop()
        n += 1
        for child in (getattr(node, "left", None), getattr(node, "right", None)):
            if child is not None:
                stack.append(child)
    return {"nodes": n}


def _logistic_counts(model) -> dict:
    return {"newton_iters": len(model.ll_history),
            "max_iters_hit": int(not model.converged)}


# (span name, modules whose attribute of that name is rebound, counters
# taken from the return value). The first module owns the function; the
# others imported it by name, so their copies must be rebound too.
TARGETS = [
    ("dataset.load_cases", (dataset, cli), None),
    ("dataset.encode", (dataset, experiments), None),
    ("dataset.random_split", (dataset, experiments), None),
    ("forest.fit_forest", (forest,), None),
    ("forest.fit_tree", (forest,), _tree_nodes),
    ("forest.best_split", (forest,), lambda r: {"useful": int(r is not None)}),
    ("forest.predict_proba", (forest,), None),
    ("logistic.fit", (logistic,), _logistic_counts),
    ("metrics.select_operating_point", (metrics,), None),
    ("metrics.confusion_at_threshold", (metrics,), None),
    ("metrics.roc_and_auc", (metrics,), None),
    ("experiments.run_feature_set_eval", (experiments,), None),
    ("experiments.rank_igs_by_domain", (experiments,), None),
    ("experiments.ig_outcome_correlation", (experiments,), None),
    ("cli.main", (cli,), None),
]


class Tracer:
    """Collects spans in memory; one span stack per thread."""

    def __init__(self):
        self._local = threading.local()
        # (name, pid, thread id, wall, thread cpu, nested wall, nested cpu,
        #  counters)
        self.spans: list[tuple] = []

    def wrap(self, name, fn, counters):
        local, spans = self._local, self.spans

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [0.0, 0.0]  # wall and cpu of the spans nested in this one
            stack.append(frame)
            c0 = time.thread_time()
            w0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - w0
                cpu = time.thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
            spans.append((name, os.getpid(), threading.get_ident(), wall, cpu,
                          frame[0], frame[1],
                          counters(result) if counters else None))
            return result

        return traced

    def install(self) -> list[str]:
        """Rebind every target; returns the names not found."""
        missing = []
        for name, modules, counters in TARGETS:
            attr = name.split(".")[1]
            fn = getattr(modules[0], attr, None)
            if fn is None:
                missing.append(name)
                continue
            traced = self.wrap(name, fn, counters)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, traced)
        return missing

    def summary(self) -> dict:
        layers: dict[str, dict] = {}
        threads: dict[str, set] = {}
        for (name, pid, tid, wall, cpu, nested_wall, nested_cpu,
             counts) in self.spans:
            agg = layers.setdefault(name, {"calls": 0, "wall_s": 0.0,
                                           "cpu_s": 0.0, "self_s": 0.0,
                                           "self_cpu_s": 0.0})
            agg["calls"] += 1
            agg["wall_s"] += wall
            agg["cpu_s"] += cpu
            agg["self_s"] += wall - nested_wall
            agg["self_cpu_s"] += cpu - nested_cpu
            for key, val in (counts or {}).items():
                agg[key] = agg.get(key, 0) + val
            threads.setdefault(name, set()).add((pid, tid))
        for name, agg in layers.items():
            agg["threads"] = len(threads[name])
        return layers


def main(argv: list[str]) -> int:
    summary_path, spans_path, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    missing = tracer.install()
    rc = cli.main(cli_argv)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    doc = {"exit_code": rc, "missing": missing,
           "child_cpu_s": children.ru_utime + children.ru_stime,
           "layers": tracer.summary()}
    with open(summary_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
