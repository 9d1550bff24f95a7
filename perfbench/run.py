"""fvlab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replica_bound --seed 1 --seconds 20 --trace 0

Every repetition runs in a fresh Python process (``worker.py``) that
imports fvlab from ``src/``, so import cost is part of every run.

``--trace 0`` repeats the workload until ``--seconds`` is used up and
reports the median of each end-to-end metric over the repetitions.
Times are rescaled to nominal CPU speed (see ``CpuSpeed``); the raw
medians are in the provenance line.
``--trace 1`` runs the workload once untraced, once at two workers
(``replica_bound`` only) and twice traced at one worker (spans recorded
in forked pool workers would be lost), plus the engine regime table,
and reports the per-layer metrics; the two traced runs must give
identical exact counts.

The last line of standard output is the result object; the line before
it holds provenance.  Both are also written under ``perfbench/_out/``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
MIN_REPS = 3
MAX_REPS = 40
RUN_BUDGET_S = 170.0  # every run must end well inside 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Bench:
    """Starts worker processes for one benchmark run and keeps its deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["PYTHONHASHSEED"] = "0"
        for var in BLAS_VARS:
            current = self.env.get(var, "")
            if not (current.isdigit() and 0 < int(current) <= self.nproc):
                self.env[var] = str(self.nproc)
        self.crashes: list[str] = []
        self._count = 0

    def child(self, mode: str, *, threads: int = 1, traced: bool = False,
              keep_spans: bool = False, cpu: int | None = None) -> dict | None:
        """Run one worker, pinned to ``cpu`` if given; None if it crashed or ran out of time."""
        self._count += 1
        tag = f"{self.workload}-s{self.seed}-{self._count}"
        spec = {
            "mode": mode, "workload": self.workload, "seed": self.seed,
            "threads": threads, "traced": traced, "run_id": tag, "out_dir": str(OUT),
            "result_path": str(OUT / f"{tag}.result.json"),
            "spans_path": str(OUT / f"{tag}.spans.csv") if keep_spans else None,
        }
        timeout = RUN_BUDGET_S - (time.monotonic() - self.started)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )
        try:
            _, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool
            proc.communicate()
            self.crashes.append(f"{tag}: timed out")
            return None
        finally:
            _reap_group(proc.pid)
        result_path = Path(spec["result_path"])
        if proc.returncode != 0 or not result_path.exists():
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            self.crashes.append(f"{tag}: exit {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


class CpuSpeed:
    """One ``sampler.py`` process per CPU for the length of a timed run.

    Each CPU of a shared host can run 1.6x slower for seconds to minutes
    at a time, independently of the others.  ``slowdown`` gives the mean
    sampled loop time on the given CPUs during a window, over the loop's
    nominal time; dividing a repetition's time by it rescales that time
    to nominal CPU speed.
    """

    NOMINAL_LOOP_S = 300e-6  # sampler loop on an uncontended core

    def __init__(self, cpus: list[int]):
        self.samples: dict[int, list] = {}
        self._procs = {
            c: subprocess.Popen([sys.executable, str(HERE / "sampler.py"), str(c)],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            for c in cpus
        }

    def stop(self) -> None:
        for cpu, proc in self._procs.items():
            proc.terminate()
            out, _ = proc.communicate()
            self.samples[cpu] = json.loads(out) if out else []

    def slowdown(self, cpus: list[int], window: list[float]) -> float:
        lo, hi = window
        # a short window borrows samples from either side
        while True:
            xs = [dt for c in cpus for t, dt in self.samples[c] if lo <= t <= hi]
            if len(xs) >= 5 * len(cpus) or hi - lo > 60.0:
                break
            lo, hi = lo - 0.1, hi + 0.1
        if not xs:
            raise RuntimeError("no CPU speed samples for a repetition")
        return statistics.fmean(xs) / self.NOMINAL_LOOP_S


def _reap_group(pgid: int) -> None:
    """Kill and wait for anything the worker left in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _op_names(workload: str) -> list[str]:
    if workload == "exact_solve":
        return [name for name, _ in workloads.exact_calls(None, {})]
    doc = workloads.sim_config(workload, 0)
    return [f"r{r:g}_t{t:g}" for r, t in workloads.sim_points(doc)] + ["summary"]


def _tally(bench: Bench, reps: list, ref_hash: str | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations of one run, and correctness errors.

    Every repetition of a run has the same inputs, so each operation is
    counted once, however many repetitions the run held: it fails if it
    fails in any repetition.  A crashed repetition fails every operation.
    A repetition whose result hash differs from the reference fails its
    summary operation.
    """
    names: list[str] = []
    bad: set[str] = set()
    errors: list[str] = []
    for rep in reps:
        if rep is None:
            errors.append("a repetition crashed")
            ops = [{"op": name, "ok": False} for name in _op_names(bench.workload)]
        else:
            ops = rep["ops"]
            if ref_hash is not None and rep["result_hash"] not in (None, ref_hash):
                errors.append(f"result_hash {rep['result_hash'][:12]} differs from {ref_hash[:12]}")
                ops = [dict(o, ok=False) if o["op"] == "summary" else o for o in ops]
            errors.extend(rep["check_errors"])
        for o in ops:
            if o["op"] not in names:
                names.append(o["op"])
            if not o["ok"]:
                bad.add(o["op"])
    return len(names), len(bad), errors


def _failures(reps: list) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rep in reps:
        for o in rep["ops"] if rep else ():
            if not o["ok"]:
                key = f"{o['op']}: {o['why']}"
                counts[key] = counts.get(key, 0) + 1
    return counts


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    w = bench.workload
    ref_hash = None
    info: dict = {}
    if w == "replica_bound":
        # the pool must not change the result: reference is a traced 1-worker run
        ref = bench.child("op", threads=1, traced=True)
        ref_hash = ref["result_hash"] if ref else None
        info["reference_hash"] = ref_hash
    threads = workloads.THREADS[w]
    cpus = sorted(os.sched_getaffinity(0))
    speed = CpuSpeed(cpus)
    reps: list = []
    try:
        t0 = time.monotonic()
        while len(reps) < MAX_REPS:
            # a one-worker repetition is pinned, alternating CPUs, so its
            # speed samples come from the CPU it ran on
            cpu = cpus[len(reps) % len(cpus)] if threads == 1 else None
            rep = bench.child("op", threads=threads, cpu=cpu)
            if rep is not None:
                rep["cpus"] = cpus if cpu is None else [cpu]
            reps.append(rep)
            used = time.monotonic() - t0
            if len(reps) >= MIN_REPS and used * (len(reps) + 1) / len(reps) > seconds:
                break
    finally:
        speed.stop()
    done = [r for r in reps if r is not None]
    for r in done:
        r["op_slowdown"] = speed.slowdown(r["cpus"], r["op_window"])
        r["setup_slowdown"] = speed.slowdown(r["cpus"], r["setup_window"])
    if ref_hash is None and done and w != "exact_solve":
        ref_hash = done[0]["result_hash"]
    attempted, failed, errors = _tally(bench, reps, ref_hash)
    if w == "replica_bound" and info["reference_hash"] is None:
        errors.append("reference run failed")
    if not done:
        raise RuntimeError(f"no repetition finished: {bench.crashes}")
    walls = [r["wall_s"] / r["op_slowdown"] for r in done]
    metrics = {
        "wall_s": statistics.median(walls),
        "replicas_per_s": statistics.median(r["replicas"] / w for r, w in zip(done, walls)),
        "setup_s": statistics.median(r["setup_s"] / r["setup_slowdown"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    info.update({
        "repetitions": len(reps),
        "raw_wall_s": statistics.median(r["wall_s"] for r in done),
        "raw_setup_s": statistics.median(r["setup_s"] for r in done),
        "wall_s_each": [r["wall_s"] for r in done],
        "setup_s_each": [r["setup_s"] for r in done],
        "op_slowdown_each": [r["op_slowdown"] for r in done],
        "setup_slowdown_each": [r["setup_slowdown"] for r in done],
        "cpu_each": [r["cpus"] for r in done],
        "events_each": [r.get("events") for r in done],
        "failures": _failures(reps),
        "result_hash": ref_hash,
    })
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics, "errors": errors}, info


def traced_run(bench: Bench) -> tuple[dict, dict]:
    w = bench.workload
    for old in OUT.glob(f"{w}-*.spans.csv"):
        old.unlink()  # keep only the latest traced run's spans
    plain = bench.child("op", threads=1)
    pooled = bench.child("op", threads=2) if w == "replica_bound" else None
    traced = [bench.child("op", threads=1, traced=True, keep_spans=True) for _ in range(2)]
    regime = bench.child("regime")
    reps = [plain, *traced] + ([pooled] if w == "replica_bound" else [])
    if any(r is None for r in traced) or regime is None or plain is None:
        raise RuntimeError(f"traced run incomplete: {bench.crashes}")

    ref_hash = traced[0]["result_hash"]
    attempted, failed, errors = _tally(bench, reps, ref_hash)
    a, b = traced[0]["layers"], traced[1]["layers"]
    differ = [k for k in EXACT_COUNTS if a[k] != b[k]]
    if differ:
        errors.append(f"exact counts differ between traced runs: {differ}")

    # times are the mean of the two traced runs; counts come from the first
    layers = {k: (a[k] + b[k]) / 2.0 if isinstance(a[k], float) else a[k] for k in a}
    layers.update(regime["layers"])
    traced_wall = (traced[0]["wall_s"] + traced[1]["wall_s"]) / 2.0
    layers["trace.overhead_frac"] = traced_wall / plain["wall_s"] - 1.0
    # 0 where the workload runs no process pool
    layers["experiments.parallel_efficiency"] = (
        plain["wall_s"] / (2.0 * pooled["wall_s"]) if pooled else 0.0
    )
    # a health check, not an end-to-end metric: which statistical verdicts
    # fail depends on the seed
    layers["failed_frac"] = failed / attempted
    lines, symbols = _source_size()
    layers["src.lines"] = lines
    layers["src.public_symbols"] = symbols
    info = {
        "traced_wall_s": [t["wall_s"] for t in traced],
        "untraced_wall_s": plain["wall_s"],
        "pooled_wall_s": pooled["wall_s"] if pooled else None,
        "spans_files": [t["spans_path"] for t in traced],
        "failures": _failures(reps),
        "result_hash": ref_hash,
    }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": layers, "errors": errors}, info


def _source_size() -> tuple[int, int]:
    """Lines under src/ and names in fvlab.__all__ (ungated, for tracking)."""
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines += len(path.read_text(encoding="utf-8").splitlines())
    tree = ast.parse((ROOT / "src" / "fvlab" / "__init__.py").read_text(encoding="utf-8"))
    symbols = 0
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            symbols = len(node.value.elts)
    return lines, symbols


def _provenance(bench: Bench, warm: dict, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    lines, symbols = _source_size()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        # confirm a claim on this seed too; never tune against it
        "holdout_seed": (args.seed * 2654435761 + 97) % 2**31,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": warm["numpy"], "scipy": warm["scipy"],
        "nproc": bench.nproc, "blas_threads": {v: bench.env[v] for v in BLAS_VARS},
        "src_lines": lines, "public_symbols": symbols,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fvlab" / "__init__.py").is_file():
        print(f"no fvlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed)
    warm = bench.child("warmup")
    if warm is None or not Path(warm["fvlab_file"]).is_relative_to(ROOT / "src"):
        print(f"fvlab does not import from {ROOT / 'src'}: {bench.crashes or warm}", file=sys.stderr)
        return 2
    provenance = _provenance(bench, warm, args)

    try:
        result, info = traced_run(bench) if args.trace else timed_run(bench, args.seconds)
    except RuntimeError as err:
        print(str(err), file=sys.stderr)
        return 1
    computed = result.pop("metrics")
    result["metrics"] = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted
    }
    errors = result.pop("errors")
    provenance.update(info, errors=errors, crashes=bench.crashes, elapsed_s=bench.elapsed())
    record = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=2) + "\n",
                      encoding="utf-8")
    print(json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
