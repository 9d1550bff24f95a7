"""One fresh-process repetition of a workload, or the engine regime table.

Started by ``run.py`` as ``python3 perfbench/worker.py '<spec json>'``
with ``src`` on ``PYTHONPATH``.  Writes one JSON result to the file the
spec names.  Import of fvlab happens here, inside the set-up timer, so
every repetition pays it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import Tracer


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; children are the forked pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _dir_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _report_errors(report, out_dir: str) -> list[str]:
    """The written report must match the returned one."""
    errs = []
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            written = json.load(fh)
        with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as err:
        return [f"report files unreadable: {err!r}"]
    if written.get("result_hash") != report.result_hash:
        errs.append("report.json hash differs from the returned report")
    if len(lines) != len(report.rows) + 1:
        errs.append("summary.csv row count differs from the report")
    if set(report.outcome_digests) != {p.name for p in Path(out_dir, "outcomes").glob("*.csv")}:
        errs.append("outcome files differ from the report's digests")
    return errs


def run_sim(spec: dict) -> dict:
    t0 = time.monotonic()
    import fvlab

    tracer = Tracer(spec["run_id"]) if spec["traced"] else None
    if tracer:
        tracer.install()
    doc = workloads.sim_config(spec["workload"], spec["seed"])
    cfg = fvlab.ExperimentConfig.from_dict(doc)
    setup_s = time.monotonic() - t0

    run = fvlab.run_experiment
    if tracer:
        run = tracer.wrap("experiments.run_experiment", run)
    report = error = None
    with tempfile.TemporaryDirectory(dir=spec["out_dir"]) as tmp:
        t1 = time.monotonic()
        try:
            report = run(cfg, threads=spec["threads"], out_dir=tmp)
        except Exception as err:  # a failed operation is counted, not fatal
            error = repr(err)
        wall_s = time.monotonic() - t1
        checks = [] if report is None else _report_errors(report, tmp)
        report_bytes = _dir_bytes(tmp)
    if tracer:
        tracer.uninstall()
    ops = workloads.sim_operations(doc, None if report is None else report.rows, error)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # monotonic windows, to match CPU speed samples taken meanwhile
        "setup_window": [t0, t0 + setup_s],
        "op_window": [t1, t1 + wall_s],
        "peak_rss_mb": _peak_rss_mb(),
        "replicas": len(workloads.sim_points(doc)) * doc["replicas"],
        "events": None if report is None else report.events_total,
        "ops": ops,
        "check_errors": checks,
        "result_hash": None if report is None else report.result_hash,
        "fvlab_file": fvlab.__file__,
        "spans_path": spec["spans_path"],
    }
    if tracer:
        tracer.counts["experiments.report.bytes"] = report_bytes
        out["layers"] = tracer.layer_metrics()
        if spec["spans_path"]:
            tracer.write_spans(spec["spans_path"])
    return out


def run_exact(spec: dict) -> dict:
    t0 = time.monotonic()
    import fvlab

    tracer = Tracer(spec["run_id"]) if spec["traced"] else None
    if tracer:
        tracer.install()
    models = workloads.exact_models(fvlab)
    setup_s = time.monotonic() - t0

    calls = workloads.exact_calls(fvlab, models)
    results, raised = {}, {}
    t1 = time.monotonic()
    for name, call in calls:
        try:
            results[name] = call()
        except Exception as err:  # a failed operation is counted, not fatal
            results[name] = None
            raised[name] = repr(err)
    wall_s = time.monotonic() - t1
    if tracer:
        tracer.uninstall()

    errors = workloads.exact_errors(results)
    ops = []
    for name, _ in calls:
        why = raised.get(name) or "; ".join(errors.get(name, []))
        ops.append({"op": name, "ok": not why, "why": why})
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # monotonic windows, to match CPU speed samples taken meanwhile
        "setup_window": [t0, t0 + setup_s],
        "op_window": [t1, t1 + wall_s],
        "peak_rss_mb": _peak_rss_mb(),
        "replicas": len(calls),
        "ops": ops,
        # a raised call returned nothing wrong; a returned value that
        # fails its check is a correctness failure
        "check_errors": [f"{k}: {e}" for k, v in sorted(errors.items()) for e in v],
        "result_hash": None,
        "fvlab_file": fvlab.__file__,
        "spans_path": spec["spans_path"],
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        if spec["spans_path"]:
            tracer.write_spans(spec["spans_path"])
    return out


def run_regime(spec: dict) -> dict:
    """Direct simulate_fv calls over the regime cells, untraced."""
    import numpy as np

    import fvlab

    out: dict[str, float] = {}
    for cell, (d, n, r, family) in enumerate(workloads.REGIME_CELLS):
        model = fvlab.validate_model(workloads.regime_model(d, family))
        init = fvlab.EmpiricalMeasure.dirac(d, 0, n)
        events, per_call = 0, []
        for i in range(workloads.REGIME_REPLICAS[n]):
            rng = np.random.default_rng(np.random.SeedSequence(spec["seed"], spawn_key=(cell, i)))
            t = time.monotonic()
            traj = fvlab.simulate_fv(model, float(r), init, 1.0, rng, record=False)
            per_call.append(time.monotonic() - t)
            events += traj.event_count
        name = f"engine.regime.{workloads.regime_name(d, n, r, family)}"
        out[f"{name}.events_per_s"] = events / sum(per_call)
        out[f"{name}.us_per_replica"] = float(np.median(per_call)) * 1e6
    return {"layers": out}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "warmup":
        import numpy
        import scipy

        import fvlab  # compiles bytecode before anything is timed

        result = {"fvlab_file": fvlab.__file__, "numpy": numpy.__version__, "scipy": scipy.__version__}
    elif spec["mode"] == "regime":
        result = run_regime(spec)
    elif spec["workload"] == "exact_solve":
        result = run_exact(spec)
    else:
        result = run_sim(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
