"""In-memory span tracing around fvlab's public calls.

The tracer patches module and class attributes from outside the
package: every call through a patched name records a span (name, start,
end, parent span) tagged with the run id, and an optional hook turns the
call's arguments and result into exact counts.  Nothing inside ``src/``
is instrumented, so only calls that cross a module boundary through a
patched name are seen.  Spans recorded in forked pool workers stay in
those workers, which is why traced runs use one worker.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from collections import defaultdict
from math import comb

# (module, attribute or Class.method, span name)
_TARGETS = (
    ("fvlab.engine", "simulate_fv", "engine.simulate_fv"),
    ("fvlab.engine", "simulate_selection_absorption", "engine.simulate_selection_absorption"),
    ("fvlab.engine", "Trajectory.occupancy_path", "engine.occupancy_path"),
    ("fvlab.engine", "Trajectory.max_mass_integral", "engine.max_mass_integral"),
    ("fvlab.experiments", "derive_replica_rng", "experiments.rng"),
    ("fvlab.experiments", "Report.write", "experiments.report.write"),
    ("fvlab.experiments", "Report.finalize_hash", "experiments.report.hash"),
    ("fvlab.model", "validate_model", "model.validate"),
    ("fvlab.model", "Model.killing_rate", "model.killing_rate"),
    ("fvlab.committor", "committor_numeric", "committor"),
    ("fvlab.condensation", "initial_condensation_law", "condensation.eta_inf"),
    ("fvlab.condensation", "polya_urn_law", "condensation.urn"),
    ("fvlab.chains", "condensate_rates", "chains.rates"),
    ("fvlab.chains", "conjectured_limit_rates", "chains.cascade"),
    ("fvlab.chains", "ctmc_marginal", "chains.marginal"),
    ("fvlab.chains", "simulate_ctmc", "chains.simulate_ctmc"),
    ("fvlab.metrics", "empirical_law", "metrics.empirical_law"),
    ("fvlab.metrics", "tv_distance", "metrics.tv"),
    ("scipy.sparse.linalg", "splu", "scipy.splu"),
    ("scipy.sparse.linalg", "spilu", "scipy.spilu"),
    ("scipy.sparse.linalg", "bicgstab", "scipy.bicgstab"),
)

# Namespaces that import fvlab functions by name; a function is patched
# in each of them where it is the same object as in its defining module.
_NAMESPACES = (
    "fvlab",
    "fvlab.engine",
    "fvlab.experiments",
    "fvlab.model",
    "fvlab.committor",
    "fvlab.condensation",
    "fvlab.chains",
    "fvlab.metrics",
)

_SOLVER_SPANS = ("scipy.splu", "scipy.spilu", "scipy.bicgstab")


class Tracer:
    """Records spans and exact counts for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(int)
        self.events_per_call: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, out)

        return traced

    def install(self) -> None:
        import importlib

        for modname, attr, span in _TARGETS:
            mod = importlib.import_module(modname)
            hook = _HOOKS.get(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(span, getattr(cls, meth), hook))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(span, original, hook)
            owners = [mod] if modname.startswith("scipy") else [
                importlib.import_module(ns) for ns in _NAMESPACES
            ]
            for owner in owners:
                if getattr(owner, attr, None) is original:
                    self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span_id", "parent_id", "name", "start_s", "end_s"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([self.run_id, i, parent, name, repr(start), repr(end)])

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy and self times, rates and exact counts."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += dur[i]
                children[parent].append(i)

        def busy(*names: str) -> float:
            # outermost spans only, so nested calls of the same layer count once
            total = 0.0
            for i, (name, _, _, parent) in enumerate(spans):
                if name in names and (parent < 0 or spans[parent][0] not in names):
                    total += dur[i]
            return total

        def calls(name: str) -> int:
            return sum(1 for s in spans if s[0] == name)

        out: dict[str, float] = {}
        engine = ("engine.simulate_fv", "engine.simulate_selection_absorption")
        engine_s = busy(*engine)
        events = self.counts["engine.events"]
        per_replica_us = sorted(dur[i] * 1e6 for i, s in enumerate(spans) if s[0] in engine)
        per_replica_ev = sorted(self.events_per_call)
        out["engine.busy_s"] = engine_s
        out["engine.events"] = events
        out["engine.replicas"] = len(per_replica_us)
        out["engine.events_per_s"] = events / engine_s if engine_s > 0 else 0.0
        out["engine.us_per_replica.p50"] = _quantile(per_replica_us, 0.50)
        out["engine.us_per_replica.p99"] = _quantile(per_replica_us, 0.99)
        out["engine.events_per_replica.p50"] = _quantile(per_replica_ev, 0.50)
        out["engine.events_per_replica.p99"] = _quantile(per_replica_ev, 0.99)
        out["engine.events_per_replica.max"] = per_replica_ev[-1] if per_replica_ev else 0
        out["engine.path_stats_s"] = busy("engine.occupancy_path", "engine.max_mass_integral")

        out["experiments.rng.calls"] = calls("experiments.rng")
        out["experiments.rng.busy_s"] = busy("experiments.rng")
        runs = [i for i, s in enumerate(spans) if s[0] == "experiments.run_experiment"]
        out["experiments.self_s"] = sum(dur[i] - child_time[i] for i in runs)
        out["experiments.report.write_s"] = busy("experiments.report.write")
        out["experiments.report.hash_s"] = busy("experiments.report.hash")
        out["experiments.report.bytes"] = self.counts["experiments.report.bytes"]

        out["model.killing_rate.calls"] = calls("model.killing_rate")
        out["model.killing_rate.busy_s"] = busy("model.killing_rate")
        out["model.validate.calls"] = calls("model.validate")
        out["model.validate.busy_s"] = busy("model.validate")

        committor = [i for i, s in enumerate(spans) if s[0] == "committor"]
        committor_s = busy("committor")
        factor_s = 0.0
        attempts = successes = 0
        for i in committor:
            kids = [spans[c][0] for c in children[i]]
            factor_s += sum(dur[c] for c in children[i] if spans[c][0] in _SOLVER_SPANS)
            if "scipy.spilu" in kids:
                attempts += 1
                # the iterative branch succeeded unless it fell back to splu
                successes += "scipy.splu" not in kids[kids.index("scipy.spilu"):]
        out["committor.calls"] = len(committor)
        out["committor.busy_s"] = committor_s
        out["committor.unknowns"] = self.counts["committor.unknowns"]
        out["committor.factor_s"] = factor_s
        out["committor.assembly_s"] = committor_s - factor_s
        out["committor.iterative.attempts"] = attempts
        out["committor.iterative.successes"] = successes
        out["committor.iterative.success_ratio"] = successes / attempts if attempts else 0.0

        out["condensation.eta_inf.busy_s"] = busy("condensation.eta_inf")
        out["condensation.urn.busy_s"] = busy("condensation.urn")
        out["condensation.urn.outcomes"] = self.counts["condensation.urn.outcomes"]

        out["chains.marginal.calls"] = calls("chains.marginal")
        out["chains.marginal.busy_s"] = busy("chains.marginal")
        out["chains.marginal.mu"] = self.counts["chains.marginal.mu"]
        out["chains.rates.busy_s"] = busy("chains.rates")
        out["chains.cascade.busy_s"] = busy("chains.cascade")
        out["chains.simulate_ctmc.busy_s"] = busy("chains.simulate_ctmc")

        out["metrics.empirical_law.busy_s"] = busy("metrics.empirical_law")
        out["metrics.tv.busy_s"] = busy("metrics.tv")
        return out


# Counts that must repeat bit for bit between two traced runs of one input.
EXACT_COUNTS = (
    "engine.events",
    "engine.replicas",
    "experiments.rng.calls",
    "model.killing_rate.calls",
    "model.validate.calls",
    "committor.calls",
    "committor.unknowns",
    "committor.iterative.attempts",
    "committor.iterative.successes",
    "condensation.urn.outcomes",
    "chains.marginal.calls",
    "chains.marginal.mu",
)


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return float(sorted_values[k])


def _on_engine(tracer: Tracer, args, kwargs, out) -> None:
    if out is not None:
        tracer.counts["engine.events"] += out.event_count
        tracer.events_per_call.append(out.event_count)


def _on_committor(tracer: Tracer, args, kwargs, out) -> None:
    d, n = len(args[0]), int(args[1])
    tracer.counts["committor.unknowns"] += comb(n + d - 1, d - 1) - d


def _on_urn(tracer: Tracer, args, kwargs, out) -> None:
    if out is not None:
        tracer.counts["condensation.urn.outcomes"] += len(out.outcomes)


def _on_marginal(tracer: Tracer, args, kwargs, out) -> None:
    # uniformization steps scale with mu = 1.01 * max row sum * t
    rates, t = args[0], float(args[2] if len(args) > 2 else kwargs["t"])
    tracer.counts["chains.marginal.mu"] += 1.01 * float(rates.row_sums().max(initial=0.0)) * t


_HOOKS = {
    "engine.simulate_fv": _on_engine,
    "engine.simulate_selection_absorption": _on_engine,
    "committor": _on_committor,
    "condensation.urn": _on_urn,
    "chains.marginal": _on_marginal,
}
