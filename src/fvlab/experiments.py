"""Config-driven statistical experiments and machine-readable reports.

Each experiment kind turns one convergence statement about the particle
system into a Monte Carlo test with explicit tolerances:

``theorem1_marginal``
    Fixed particle count, growing killing intensity: the law of the
    site carrying the most mass at time t is compared in total
    variation against the exact condensate-chain marginal, along an
    intensity schedule (decrease in r) and against the limit-chain
    prediction (confidence band at the largest r).
``theorem2_pathwise``
    Same regime, pathwise: the mean time integral of the distance to
    the nearest Dirac mass must shrink with r, and the mean time-average
    occupation of full trajectories must agree with that of
    condensate-chain paths.
``theorem3_regime``
    Particle count and killing floor grow together (uniform-plus-offset
    killing): the measured pair correlation must stay under its
    explicit bound, and the total variation between the mean occupation
    and the mutation-chain marginal must scale like n/lambda_floor with
    a stable constant.
``absorption_tail``
    Selection only: exponential tail slopes of the absorption time must
    scale linearly with the killing floor.
``eta_inf_check``
    The exact initial-condensation law against the empirical absorbed-
    site law at large intensity.
``committor_check``
    Closed-form committors against the composition-space oracle on an
    (n, alpha) grid, plus a direct Monte Carlo absorption frequency.
``conjecture_probe``
    The many-particle limit chain construction against declared
    expected rates, optionally probed by direct simulation.

Replicas are deterministic: replica i of point p consumes the RNG
stream derived from (master seed, flat replica index), work is cut into
fixed 256-replica chunks regardless of thread count, and chunk results
are reassembled in task order before any statistic is computed, so
reports hash identically for every parallelism degree.  Wall-clock
timings live in a separate block excluded from the hash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .chains import RateMatrix, condensate_rates, conjectured_limit_rates, ctmc_marginal, simulate_ctmc
from .committor import committor_numeric, committor_two_site, gamblers_ruin_committor
from .condensation import initial_condensation_law
from .engine import (
    DEFAULT_EVENT_CAP,
    EmpiricalMeasure,
    EventCapError,
    simulate_fv,
    simulate_selection_absorption,
)
from .metrics import LawOnStates, empirical_law, exact_law, tv_distance
from .model import Model, validate_model

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "derive_replica_rng",
    "run_experiment",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = (
    "theorem1_marginal",
    "theorem2_pathwise",
    "theorem3_regime",
    "absorption_tail",
    "eta_inf_check",
    "committor_check",
    "conjecture_probe",
)

_STATISTICAL_KINDS = frozenset(
    ("theorem1_marginal", "theorem2_pathwise", "theorem3_regime", "absorption_tail", "eta_inf_check")
)

_CHUNK = 256  # replicas per task; fixed so folding is schedule-independent


class ConfigError(ValueError):
    """Invalid experiment configuration (raised before any simulation)."""


def derive_replica_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one replica.

    Streams for distinct indices come from distinct spawn keys of the
    same seed sequence, so they never share state and do not depend on
    scheduling or thread count.
    """
    if index < 0:
        raise ValueError(f"replica index must be >= 0, got {index}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see module docstring for kinds).

    ``model`` is an inline model config document.  Kind-specific fields
    are optional at the type level and enforced by :meth:`validate`.
    """

    kind: str
    model: Mapping[str, Any] | None = None
    name: str | None = None
    seed: int = 0
    delta: float = 0.05
    n: int | None = None
    r_schedule: tuple[float, ...] | None = None
    points: tuple[Mapping[str, Any], ...] | None = None
    T: float | None = None
    time_points: tuple[float, ...] | None = None
    replicas: int | None = None
    init: Any = None
    tolerances: Mapping[str, float] = field(default_factory=dict)
    event_cap: int = DEFAULT_EVENT_CAP
    alt_c1_reading: bool = False
    expect: Mapping[str, Any] | None = None
    sim: Mapping[str, Any] | None = None
    grid: Mapping[str, Any] | None = None
    mc: Mapping[str, Any] | None = None

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ExperimentConfig":
        known = {
            "kind", "model", "model_path", "name", "seed", "delta", "n", "r_schedule",
            "points", "T", "time_points", "replicas", "init", "tolerances",
            "event_cap", "alt_c1_reading", "expect", "sim", "grid", "mc",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise ConfigError("config must declare an experiment kind")
        model = doc.get("model")
        if model is None and "model_path" in doc:
            with open(doc["model_path"], "r", encoding="utf-8") as fh:
                model = json.load(fh)
        cfg = cls(
            kind=doc["kind"],
            model=model,
            name=doc.get("name"),
            seed=int(doc.get("seed", 0)),
            delta=float(doc.get("delta", 0.05)),
            n=None if doc.get("n") is None else int(doc["n"]),
            r_schedule=None if doc.get("r_schedule") is None else tuple(float(r) for r in doc["r_schedule"]),
            points=None if doc.get("points") is None else tuple(dict(p) for p in doc["points"]),
            T=None if doc.get("T") is None else float(doc["T"]),
            time_points=None if doc.get("time_points") is None else tuple(float(t) for t in doc["time_points"]),
            replicas=None if doc.get("replicas") is None else int(doc["replicas"]),
            init=doc.get("init"),
            tolerances={str(k): float(v) for k, v in dict(doc.get("tolerances", {})).items()},
            event_cap=int(doc.get("event_cap", DEFAULT_EVENT_CAP)),
            alt_c1_reading=bool(doc.get("alt_c1_reading", False)),
            expect=doc.get("expect"),
            sim=doc.get("sim"),
            grid=doc.get("grid"),
            mc=doc.get("mc"),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- validation -------------------------------------------------

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.delta <= 0 or self.delta >= 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        needs_model = self.kind != "committor_check"
        if needs_model:
            if self.model is None:
                raise ConfigError(f"{self.kind} requires a model")
            model = self.validated_model()  # raises ModelError on bad input
        if self.kind in _STATISTICAL_KINDS:
            if self.replicas is None or self.replicas < 100:
                raise ConfigError(f"{self.kind} needs replicas >= 100, got {self.replicas}")
        if self.kind in ("theorem1_marginal", "theorem2_pathwise"):
            if not self.r_schedule:
                raise ConfigError(f"{self.kind} needs a nonempty r schedule")
            self._check_increasing(self.r_schedule, "r_schedule")
            if self.n is None or self.n < 2:
                raise ConfigError(f"{self.kind} needs n >= 2")
            if self.T is None or self.T <= 0:
                raise ConfigError(f"{self.kind} needs a positive horizon T")
            if self.init is None:
                raise ConfigError(f"{self.kind} needs an init block")
            if self.time_points is not None:
                self._check_increasing(self.time_points, "time_points")
                if self.time_points[0] <= 0 or self.time_points[-1] > self.T:
                    raise ConfigError("time_points must lie in (0, T]")
        if self.kind == "theorem3_regime":
            if not self.points:
                raise ConfigError("theorem3_regime needs a nonempty points schedule")
            prev = None
            for p in self.points:
                if "n" not in p or "r" not in p:
                    raise ConfigError(f"each point needs n and r, got {p}")
                if int(p["n"]) < 2 or float(p["r"]) < 1:
                    raise ConfigError(f"point out of range: {p}")
                if prev is not None and float(p["r"]) <= prev:
                    raise ConfigError("points must have increasing r")
                prev = float(p["r"])
            if self.init is None:
                raise ConfigError("theorem3_regime needs an init block ({'dirac': site})")
            if self.time_points is None or len(self.time_points) == 0:
                raise ConfigError("theorem3_regime needs time_points")
        if self.kind == "absorption_tail":
            if not self.r_schedule or len(self.r_schedule) < 2:
                raise ConfigError("absorption_tail needs >= 2 intensities in r_schedule")
            self._check_increasing(self.r_schedule, "r_schedule")
            if self.init is None:
                raise ConfigError("absorption_tail needs init counts")
            self._check_count_list(model.num_states)
        if self.kind == "eta_inf_check":
            if not self.r_schedule or len(self.r_schedule) != 1:
                raise ConfigError("eta_inf_check needs exactly one intensity in r_schedule")
            if self.init is None:
                raise ConfigError("eta_inf_check needs init counts")
            self._check_count_list(model.num_states)
        if self.kind == "committor_check":
            if not self.grid or "n" not in self.grid or "alpha" not in self.grid:
                raise ConfigError("committor_check needs grid: {'n': [...], 'alpha': [...]}")
            if self.mc is not None:
                for key in ("n", "alpha", "counts", "replicas"):
                    if key not in self.mc:
                        raise ConfigError(f"committor_check mc block missing {key!r}")
                if int(self.mc["replicas"]) < 100:
                    raise ConfigError("committor_check mc block needs replicas >= 100")
        if self.kind == "conjecture_probe" and self.sim is not None:
            for key in ("n", "r", "T", "replicas", "init"):
                if key not in self.sim:
                    raise ConfigError(f"conjecture_probe sim block missing {key!r}")
            if int(self.sim["replicas"]) < 100:
                raise ConfigError("conjecture_probe sim block needs replicas >= 100")

    def _check_count_list(self, num_states: int) -> None:
        init = self.init
        if not isinstance(init, (list, tuple)):
            raise ConfigError(f"{self.kind} needs init as a list of counts, got {init!r}")
        if len(init) != num_states:
            raise ConfigError(
                f"init counts must list one count per model state ({num_states}), got {list(init)}"
            )
        if any(isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in init):
            raise ConfigError(f"init counts must be nonnegative integers, got {list(init)}")
        if sum(init) < 2:
            raise ConfigError(f"init counts must hold at least two particles, got {list(init)}")

    @staticmethod
    def _check_increasing(values: Sequence[float], what: str) -> None:
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{what} must be strictly increasing, got {values}")

    # -- helpers ----------------------------------------------------

    def validated_model(self) -> Model:
        return validate_model(self.model)

    def resolve_times(self) -> tuple[float, ...]:
        if self.time_points is not None:
            return self.time_points
        # default marginal grid: quarter, half and full horizon
        return tuple(f * self.T for f in (0.25, 0.5, 1.0))

    def init_counts(self, model: Model, n: int) -> tuple[int, ...]:
        init = self.init
        if isinstance(init, Mapping) and "dirac" in init:
            counts = [0] * model.num_states
            counts[model.state_index(init["dirac"])] = n
            return tuple(counts)
        counts = tuple(int(c) for c in init)
        if len(counts) != model.num_states:
            raise ConfigError("init counts must list one count per model state")
        if sum(counts) != n:
            raise ConfigError(f"init counts sum to {sum(counts)}, expected n = {n}")
        return counts

    def tolerance(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def canonical_dict(self) -> dict:
        doc: dict[str, Any] = {"kind": self.kind, "seed": self.seed, "delta": self.delta}
        for key in (
            "model", "name", "n", "r_schedule", "points", "T", "time_points",
            "replicas", "init", "tolerances", "event_cap", "alt_c1_reading",
            "expect", "sim", "grid", "mc",
        ):
            value = getattr(self, key)
            if value is None or (key == "tolerances" and not value):
                continue
            if key == "event_cap" and value == DEFAULT_EVENT_CAP:
                continue
            if key == "alt_c1_reading" and not value:
                continue
            if isinstance(value, tuple):
                value = list(value)
            doc[key] = value
        return doc


# ----------------------------------------------------------------- report


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class Report:
    """Experiment outcome: per-point rows, diagnostics, and provenance.

    ``rows`` entries have the summary-CSV shape (experiment, r, t,
    statistic, value, half_width, verdict), where verdict is PASS, FAIL
    or INFO (informational rows never gate).  ``result_hash`` covers
    config, seed, rows, extras, event accounting and outcome digests;
    the ``timing`` block is excluded so determinism is checkable.
    """

    name: str
    kind: str
    seed: int
    config: dict
    rows: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    events_total: int = 0
    outcome_digests: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    result_hash: str = ""

    def finalize_hash(self) -> None:
        body = {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "rows": self.rows,
            "extras": self.extras,
            "events_total": self.events_total,
            "outcome_digests": self.outcome_digests,
        }
        self.result_hash = hashlib.sha256(_canonical_json(body).encode()).hexdigest()

    @property
    def all_pass(self) -> bool:
        return all(row["verdict"] != "FAIL" for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "rows": self.rows,
            "extras": self.extras,
            "events_total": self.events_total,
            "outcome_digests": self.outcome_digests,
            "result_hash": self.result_hash,
            "timing": self.timing,
        }

    def write(self, out_dir, outcome_texts: Mapping[str, str] | None = None) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["experiment", "r", "t", "statistic", "value", "half_width", "verdict"])
            for row in self.rows:
                writer.writerow(
                    [
                        row["experiment"],
                        _csv_num(row["r"]),
                        _csv_num(row["t"]),
                        row["statistic"],
                        _csv_num(row["value"]),
                        _csv_num(row["half_width"]),
                        row["verdict"],
                    ]
                )
        if outcome_texts:
            odir = os.path.join(out_dir, "outcomes")
            os.makedirs(odir, exist_ok=True)
            for fname, text in outcome_texts.items():
                with open(os.path.join(odir, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)


def _csv_num(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _row(experiment, r, t, statistic, value, half_width, verdict) -> dict:
    return {
        "experiment": experiment,
        "r": r,
        "t": t,
        "statistic": statistic,
        "value": value,
        "half_width": half_width,
        "verdict": verdict,
    }


# ------------------------------------------------------------ task workers


def _task_worker(payload: dict) -> dict:
    """Run one chunk of replicas; pure function of its payload."""
    op = payload["op"]
    seed = payload["seed"]
    base = payload["base"]
    start, stop = payload["start"], payload["stop"]
    if op in ("fv_final", "fv_path", "absorption"):
        model = validate_model(payload["model"])
        init = EmpiricalMeasure.from_counts(payload["counts"])
        r = payload["r"]
        cap = payload["event_cap"]
    if op == "fv_final":
        d = model.num_states
        finals = np.empty((stop - start, d), dtype=np.int64)
        events = np.empty(stop - start, dtype=np.int64)
        for i in range(start, stop):
            rng = derive_replica_rng(seed, base + i)
            traj = simulate_fv(model, r, init, payload["t"], rng, record=False, event_cap=cap)
            finals[i - start] = traj.final.counts
            events[i - start] = traj.event_count
        return {"finals": finals, "events": events}
    if op == "fv_path":
        d = model.num_states
        T = payload["t"]
        integrals = np.empty(stop - start)
        avg_occ = np.empty((stop - start, d))
        events = np.empty(stop - start, dtype=np.int64)
        for i in range(start, stop):
            rng = derive_replica_rng(seed, base + i)
            traj = simulate_fv(model, r, init, T, rng, record=True, event_cap=cap)
            integrals[i - start] = traj.max_mass_integral()
            path = traj.occupancy_path()
            seg = np.diff(np.append(path.times, T))
            avg_occ[i - start] = seg @ path.values / T
            events[i - start] = traj.event_count
        return {"integrals": integrals, "avg_occ": avg_occ, "events": events}
    if op == "absorption":
        taus = np.empty(stop - start)
        sites = np.empty(stop - start, dtype=np.int64)
        events = np.empty(stop - start, dtype=np.int64)
        for i in range(start, stop):
            rng = derive_replica_rng(seed, base + i)
            res = simulate_selection_absorption(model, r, init, rng, event_cap=cap)
            taus[i - start] = res.tau
            sites[i - start] = model.index[res.site]
            events[i - start] = res.event_count
        return {"taus": taus, "sites": sites, "events": events}
    if op == "ctmc_path":
        rates = RateMatrix(tuple(payload["states"]), np.asarray(payload["rates"]))
        T = payload["t"]
        d = len(rates.states)
        init_spec = payload["init"]
        avg_occ = np.empty((stop - start, d))
        events = np.empty(stop - start, dtype=np.int64)
        for i in range(start, stop):
            rng = derive_replica_rng(seed, base + i)
            if isinstance(init_spec, list):
                law = exact_law(rates.states, np.asarray(init_spec))
                path = simulate_ctmc(rates, law, T, rng)
            else:
                path = simulate_ctmc(rates, init_spec, T, rng)
            occ = np.zeros(d)
            for (t0, s0), t1 in zip(path, [t for t, _ in path[1:]] + [T]):
                occ[s0] += (t1 - t0) / T
            avg_occ[i - start] = occ
            events[i - start] = len(path) - 1
        return {"avg_occ": avg_occ, "events": events}
    raise ValueError(f"unknown task op {op!r}")


def _run_point(payload_base: dict, M: int, threads: int):
    """Split a point into fixed chunks, run them, reassemble in order.

    Returns the reassembled per-replica arrays, or the
    :class:`EventCapError` if any replica hit the hard event cap (the
    point is aborted; callers record the failure and move on).
    """
    tasks = []
    for start in range(0, M, _CHUNK):
        task = dict(payload_base)
        task["start"], task["stop"] = start, min(start + _CHUNK, M)
        tasks.append(task)
    try:
        if threads <= 1 or len(tasks) == 1:
            parts = [_task_worker(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=threads) as ex:
                parts = list(ex.map(_task_worker, tasks))
    except EventCapError as err:
        return err
    out: dict[str, np.ndarray] = {}
    for key in parts[0]:
        out[key] = np.concatenate([p[key] for p in parts], axis=0)
    return out


def _abort_row(name: str, r, t, err: EventCapError) -> dict:
    return _row(name, r, t, "event_cap_abort", float(err.cap), "", "FAIL")


# ----------------------------------------------------- statistic helpers


def _dkw_half_width(M: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * M))


def _max_mass_site(finals: np.ndarray) -> np.ndarray:
    # lowest index wins ties (fixed deterministic convention)
    return np.argmax(finals, axis=1)


def _tv_standard_error(samples: np.ndarray) -> float:
    """Conservative 1-sigma error of a TV between a mean vector and a fixed law."""
    M, _ = samples.shape
    var = samples.var(axis=0, ddof=1) / M
    return float(np.sqrt(var.sum()))


def _occupation_csv(states, arrays: Mapping[str, np.ndarray]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    keys = list(arrays)
    header: list[str] = ["replica"]
    for key in keys:
        arr = arrays[key]
        if arr.ndim == 2:
            header.extend(f"{key}_{s}" for s in states)
        else:
            header.append(key)
    writer.writerow(header)
    M = len(arrays[keys[0]])
    for i in range(M):
        row: list = [i]
        for key in keys:
            arr = arrays[key]
            if arr.ndim == 2:
                row.extend(_csv_num(float(v)) if arr.dtype.kind == "f" else int(v) for v in arr[i])
            else:
                row.append(_csv_num(float(arr[i])) if arr.dtype.kind == "f" else int(arr[i]))
        writer.writerow(row)
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _lift_law(law: LawOnStates, states: tuple[str, ...]) -> LawOnStates:
    """Express a law over a subset of sites on the full state tuple."""
    if law.states == states:
        return law
    v = np.zeros(len(states))
    for s, p in zip(law.states, law.probs):
        v[states.index(s)] += p
    return exact_law(states, v)


def _chain_start(model: Model, counts: Sequence[int], r: float | None):
    """Initial condition for the condensate chain matching FV init counts.

    A Dirac initial measure starts the chain at its site.  Otherwise the
    chain starts from the absorbed-site law of the selection-only
    dynamics: committors at intensity r (finite) or the limiting
    condensation law (r None).
    """
    occupied = [i for i, c in enumerate(counts) if c > 0]
    if len(occupied) == 1:
        return model.states[occupied[0]]
    if r is None:
        return initial_condensation_law(model, counts).law
    weights = [model.killing_rate(r, i) for i in occupied]
    table = committor_numeric(weights, sum(counts), states=[model.states[i] for i in occupied])
    row = table.row([counts[i] for i in occupied])
    law = exact_law(table.states, row)
    return _lift_law(law, model.states)


# ------------------------------------------------------- experiment kinds


def _exp_theorem1(cfg: ExperimentConfig, threads: int, report: Report, outcomes: dict) -> None:
    model = cfg.validated_model()
    n, M = cfg.n, cfg.replicas
    times = cfg.resolve_times()
    counts = cfg.init_counts(model, n)
    eps = _dkw_half_width(M, cfg.delta)
    limit_rates = condensate_rates(model, n, None)
    limit_start = _chain_start(model, counts, None)

    points = [(r, t) for r in cfg.r_schedule for t in times]
    sup_tv_finite: dict[float, float] = {}
    sup_tv_limit: dict[float, float] = {}
    base = 0
    for pid, (r, t) in enumerate(points):
        payload = {
            "op": "fv_final", "model": model.config_dict(), "counts": counts,
            "r": r, "t": t, "seed": cfg.seed, "base": base, "event_cap": cfg.event_cap,
        }
        res = _run_point(payload, M, threads)
        base += M
        if isinstance(res, EventCapError):
            report.rows.append(_abort_row(report.name, r, t, res))
            continue
        report.events_total += int(res["events"].sum())
        sites = _max_mass_site(res["finals"])
        emp = empirical_law(sites.tolist(), model.states, cfg.delta)

        finite_rates = condensate_rates(model, n, r)
        finite_start = _chain_start(model, counts, r)
        tv_fin = tv_distance(emp, ctmc_marginal(finite_rates, finite_start, t))
        tv_lim = tv_distance(emp, ctmc_marginal(limit_rates, limit_start, t))
        sup_tv_finite[r] = max(sup_tv_finite.get(r, 0.0), tv_fin)
        sup_tv_limit[r] = max(sup_tv_limit.get(r, 0.0), tv_lim)

        report.rows.append(_row(report.name, r, t, "tv_vs_finite_chain", tv_fin, eps, "INFO"))
        report.rows.append(_row(report.name, r, t, "tv_vs_limit_chain", tv_lim, eps, "INFO"))
        text = _occupation_csv(model.states, {"final": res["finals"], "events": res["events"]})
        fname = f"point{pid:02d}_r{r:g}_t{t:g}.csv"
        outcomes[fname] = text
        report.outcome_digests[fname] = _digest(text)

    schedule = list(cfg.r_schedule)
    if len(sup_tv_finite) != len(schedule):
        return  # aborted points already carry FAIL rows
    sups = [sup_tv_finite[r] for r in schedule]
    # Adjacent sups are independent estimates with half-width eps each,
    # so differences below their combined half-widths are unresolvable;
    # demand non-increase only beyond that slack.
    slack = cfg.tolerance("monotone_slack", 2.0 * eps)
    worst_rise = max((b - a for a, b in zip(sups, sups[1:])), default=0.0)
    monotone = worst_rise <= slack
    report.rows.append(
        _row(report.name, "", "", "sup_tv_monotone_in_r", float(worst_rise), slack, "PASS" if monotone else "FAIL")
    )
    band = cfg.tolerance("limit_band", 3.0 * eps)
    worst = sup_tv_limit[schedule[-1]]
    report.rows.append(
        _row(report.name, schedule[-1], "", "sup_tv_vs_limit_at_rmax", worst, band, "PASS" if worst <= band else "FAIL")
    )
    report.extras["sup_tv_finite"] = {str(r): sup_tv_finite[r] for r in schedule}
    report.extras["sup_tv_limit"] = {str(r): sup_tv_limit[r] for r in schedule}
    report.extras["time_grid_note"] = (
        "supremum over [0,T] approximated by the max over the declared time grid"
    )


def _exp_theorem2(cfg: ExperimentConfig, threads: int, report: Report, outcomes: dict) -> None:
    model = cfg.validated_model()
    n, M, T = cfg.n, cfg.replicas, cfg.T
    counts = cfg.init_counts(model, n)
    means: list[float] = []
    base = 0
    for r in cfg.r_schedule:
        payload = {
            "op": "fv_path", "model": model.config_dict(), "counts": counts,
            "r": r, "t": T, "seed": cfg.seed, "base": base, "event_cap": cfg.event_cap,
        }
        res = _run_point(payload, M, threads)
        base += M
        if isinstance(res, EventCapError):
            report.rows.append(_abort_row(report.name, r, T, res))
            base += M  # keep the chain point's index block reserved
            continue
        report.events_total += int(res["events"].sum())

        mean_int = float(res["integrals"].mean())
        se_int = float(res["integrals"].std(ddof=1) / math.sqrt(M))
        means.append(mean_int)
        report.rows.append(
            _row(report.name, r, T, "mean_dirac_distance_integral", mean_int, 3.0 * se_int, "INFO")
        )

        chain = condensate_rates(model, n, r)
        start = _chain_start(model, counts, r)
        chain_init = start if isinstance(start, str) else list(np.asarray(start.probs, dtype=float))
        payload_c = {
            "op": "ctmc_path", "states": list(chain.states), "rates": chain.rates.tolist(),
            "init": chain_init, "t": T, "seed": cfg.seed, "base": base,
        }
        res_c = _run_point(payload_c, M, threads)
        base += M
        assert not isinstance(res_c, EventCapError)  # ctmc paths have no cap
        report.events_total += int(res_c["events"].sum())

        mean_fv = res["avg_occ"].mean(axis=0)
        mean_ch = res_c["avg_occ"].mean(axis=0)
        tv = float(np.abs(mean_fv - mean_ch).sum())
        se = math.sqrt(_tv_standard_error(res["avg_occ"]) ** 2 + _tv_standard_error(res_c["avg_occ"]) ** 2)
        tol = cfg.tolerance("avg_occupation_band", 3.0 * se)
        report.rows.append(
            _row(report.name, r, T, "tv_mean_avg_occupation_fv_vs_chain", tv, tol, "PASS" if tv <= tol else "FAIL")
        )

        text = _occupation_csv(
            model.states,
            {"integral": res["integrals"], "avg_occ": res["avg_occ"], "events": res["events"]},
        )
        fname = f"paths_r{r:g}.csv"
        outcomes[fname] = text
        report.outcome_digests[fname] = _digest(text)

    factor = cfg.tolerance("decay_factor", 5.0)
    if len(means) != len(cfg.r_schedule):
        return
    if means[-1] > 0:
        achieved = means[0] / means[-1]
        verdict = "PASS" if achieved >= factor else "FAIL"
    else:  # fully condensed at the largest intensity: decay is total
        achieved = None
        verdict = "PASS"
    report.rows.append(
        _row(report.name, "", "", "dirac_distance_decay_factor_first_to_last", achieved, "", verdict)
    )
    report.extras["mean_integrals"] = {str(r): v for r, v in zip(cfg.r_schedule, means)}


def _exp_theorem3(cfg: ExperimentConfig, threads: int, report: Report, outcomes: dict) -> None:
    model = cfg.validated_model()
    t = cfg.time_points[-1]
    M = cfg.replicas
    mut_rates = np.zeros((model.num_states, model.num_states))
    for i, j, q in model.mutation:
        mut_rates[i, j] = q
    mutation_chain = RateMatrix(model.states, mut_rates)

    m_sup = getattr(model.killing, "m_sup", None)
    if m_sup is None:
        raise ConfigError("theorem3_regime expects the uniform_plus killing family")

    cps: list[tuple[float, float, float]] = []  # (scale, lo, hi)
    base = 0
    for pid, point in enumerate(cfg.points):
        n, r = int(point["n"]), float(point["r"])
        counts = cfg.init_counts(model, n)
        lam_floor = model.min_killing_rate(r)
        scale = n / lam_floor
        payload = {
            "op": "fv_final", "model": model.config_dict(), "counts": counts,
            "r": r, "t": t, "seed": cfg.seed, "base": base, "event_cap": cfg.event_cap,
        }
        res = _run_point(payload, M, threads)
        base += M
        if isinstance(res, EventCapError):
            report.rows.append(_abort_row(report.name, r, t, res))
            continue
        report.events_total += int(res["events"].sum())
        occ = res["finals"] / n

        pair_corr = 1.0 - (occ**2).sum(axis=1)
        mean_pc = float(pair_corr.mean())
        se_pc = float(pair_corr.std(ddof=1) / math.sqrt(M))
        bound = (model.Q + n / (2.0 * (n - 1.0)) * m_sup) * scale
        verdict = "PASS" if mean_pc <= bound + 3.0 * se_pc else "FAIL"
        report.rows.append(_row(report.name, r, t, "mean_pair_correlation", mean_pc, 3.0 * se_pc, verdict))
        report.rows.append(_row(report.name, r, t, "pair_correlation_bound", bound, "", "INFO"))

        # the mutation chain starts from the initial empirical measure
        init_law = exact_law(model.states, np.asarray(counts, dtype=float) / n)
        exact_marginal = ctmc_marginal(mutation_chain, init_law, t)
        mean_occ = occ.mean(axis=0)
        tv = float(np.abs(mean_occ - exact_marginal.probs).sum())
        se_tv = _tv_standard_error(occ)
        report.rows.append(_row(report.name, r, t, "tv_mean_occupation_vs_mutation_chain", tv, 3.0 * se_tv, "INFO"))
        report.rows.append(_row(report.name, r, t, "cprime_point_estimate", tv / scale, "", "INFO"))
        lo = max(tv - 3.0 * se_tv, 0.0) / scale
        hi = (tv + 3.0 * se_tv) / scale
        cps.append((scale, lo, hi))

        text = _occupation_csv(model.states, {"final": res["finals"], "events": res["events"]})
        fname = f"point{pid:02d}_n{n}_r{r:g}.csv"
        outcomes[fname] = text
        report.outcome_digests[fname] = _digest(text)

    factor = cfg.tolerance("cprime_factor", 3.0)
    if len(cps) != len(cfg.points):
        return
    max_lo = max(lo for _, lo, _ in cps)
    min_hi = min(hi for _, _, hi in cps)
    # a single constant C' (up to `factor`) must be compatible with every
    # point's 3-sigma interval for TV / (n / lambda_floor)
    feasible = max_lo <= factor * min_hi
    spread = float(max_lo / min_hi) if min_hi > 0 else None
    report.rows.append(
        _row(report.name, "", "", "cprime_interval_consistency", spread, "", "PASS" if feasible else "FAIL")
    )
    report.extras["cprime_intervals"] = [
        {"scale": s, "lo": lo, "hi": hi} for s, lo, hi in cps
    ]


def _exp_absorption_tail(cfg: ExperimentConfig, threads: int, report: Report, outcomes: dict) -> None:
    model = cfg.validated_model()
    M = cfg.replicas
    counts = tuple(cfg.init)
    slopes: list[float] = []
    floors: list[float] = []
    base = 0
    for r in cfg.r_schedule:
        payload = {
            "op": "absorption", "model": model.config_dict(), "counts": counts,
            "r": r, "seed": cfg.seed, "base": base, "event_cap": cfg.event_cap,
        }
        res = _run_point(payload, M, threads)
        base += M
        if isinstance(res, EventCapError):
            report.rows.append(_abort_row(report.name, r, "", res))
            continue
        report.events_total += int(res["events"].sum())
        taus = res["taus"]
        # tail slope: exponential fit to exceedances over the 75th percentile
        t0 = float(np.quantile(taus, 0.75))
        excess = taus[taus > t0] - t0
        slope = 1.0 / float(excess.mean())
        se = slope / math.sqrt(len(excess))
        slopes.append(slope)
        floors.append(model.min_killing_rate(r))
        report.rows.append(_row(report.name, r, "", "tail_slope", slope, 3.0 * se, "INFO"))
        report.rows.append(_row(report.name, r, "", "mean_absorption_time", float(taus.mean()), "", "INFO"))

        text = _occupation_csv(model.states, {"tau": taus, "site": res["sites"], "events": res["events"]})
        fname = f"tail_r{r:g}.csv"
        outcomes[fname] = text
        report.outcome_digests[fname] = _digest(text)

    if len(slopes) != len(cfg.r_schedule):
        return
    expected = floors[-1] / floors[0]
    achieved = slopes[-1] / slopes[0]
    tol = cfg.tolerance("slope_ratio_rel_tol", 0.20)
    ok = abs(achieved / expected - 1.0) <= tol
    report.rows.append(
        _row(report.name, "", "", "tail_slope_ratio_vs_killing_floor_ratio", achieved, tol * expected, "PASS" if ok else "FAIL")
    )
    report.extras["expected_slope_ratio"] = expected


def _exp_eta_inf(cfg: ExperimentConfig, threads: int, report: Report, outcomes: dict) -> None:
    model = cfg.validated_model()
    M = cfg.replicas
    r = cfg.r_schedule[0]
    counts = tuple(cfg.init)
    exact = initial_condensation_law(model, counts)

    payload = {
        "op": "absorption", "model": model.config_dict(), "counts": counts,
        "r": r, "seed": cfg.seed, "base": 0, "event_cap": cfg.event_cap,
    }
    res = _run_point(payload, M, threads)
    if isinstance(res, EventCapError):
        report.rows.append(_abort_row(report.name, r, "", res))
        return
    report.events_total += int(res["events"].sum())
    emp = empirical_law(res["sites"].tolist(), model.states, cfg.delta)
    tv = tv_distance(emp, exact.law)
    tol = cfg.tolerance("tv_tol", 0.02)
    report.rows.append(
        _row(report.name, r, "", "tv_exact_vs_absorbed_site_law", tv, tol, "PASS" if tv <= tol else "FAIL")
    )
    report.extras["lambda_set"] = list(exact.lambda_set)
    report.extras["eta_infinity"] = exact.law.as_dict()

    text = _occupation_csv(model.states, {"tau": res["taus"], "site": res["sites"], "events": res["events"]})
    outcomes["absorbed_sites.csv"] = text
    report.outcome_digests["absorbed_sites.csv"] = _digest(text)


def _exp_committor_check(cfg: ExperimentConfig, threads: int, report: Report, outcomes: dict) -> None:
    tol = cfg.tolerance("grid_tol", 1e-9)
    worst = 0.0
    for n in cfg.grid["n"]:
        n = int(n)
        for alpha in cfg.grid["alpha"]:
            alpha = float(alpha)
            table = committor_numeric([1.0, alpha], n)
            g = gamblers_ruin_committor(n, alpha)
            err = 0.0
            for k in range(n + 1):
                err = max(err, abs(table.value((k, n - k), 0) - g[k]))
            hold, invade = committor_two_site(n, alpha)
            err = max(err, abs(table.value((n - 1, 1), 0) - hold))
            err = max(err, abs(table.value((1, n - 1), 0) - invade))
            worst = max(worst, err)
            report.rows.append(
                _row(report.name, "", "", f"max_abs_err_n{n}_alpha{alpha:g}", err, tol, "PASS" if err <= tol else "FAIL")
            )
    report.extras["grid_worst_error"] = worst

    if cfg.mc is not None:
        n = int(cfg.mc["n"])
        alpha = float(cfg.mc["alpha"])
        counts = tuple(int(c) for c in cfg.mc["counts"])
        M = int(cfg.mc["replicas"])
        r = float(cfg.mc.get("r", 1.0))
        model = validate_model(
            {
                "states": ["x", "y"],
                "mutation": [],
                "killing": {"kind": "power", "c": {"x": 1.0, "y": alpha}, "beta": {"x": 1, "y": 1}},
            }
        )
        payload = {
            "op": "absorption", "model": model.config_dict(), "counts": counts,
            "r": r, "seed": cfg.seed, "base": 0, "event_cap": cfg.event_cap,
        }
        res = _run_point(payload, M, threads)
        if isinstance(res, EventCapError):
            report.rows.append(_abort_row(report.name, r, "", res))
            return
        report.events_total += int(res["events"].sum())
        freq = float((res["sites"] == 0).mean())
        exact = float(gamblers_ruin_committor(n, alpha)[counts[0]])
        band = 3.0 * math.sqrt(exact * (1.0 - exact) / M)
        dev = abs(freq - exact)
        report.rows.append(
            _row(report.name, r, "", "mc_absorption_freq_abs_dev", dev, band, "PASS" if dev <= band else "FAIL")
        )
        report.extras["mc_frequency"] = freq
        report.extras["mc_exact"] = exact
        text = _occupation_csv(model.states, {"tau": res["taus"], "site": res["sites"], "events": res["events"]})
        outcomes["mc_absorption.csv"] = text
        report.outcome_digests["mc_absorption.csv"] = _digest(text)


def _exp_conjecture_probe(cfg: ExperimentConfig, threads: int, report: Report, outcomes: dict) -> None:
    model = cfg.validated_model()
    analysis, chain = conjectured_limit_rates(model, alt_reading=cfg.alt_c1_reading)
    report.extras["cascade"] = analysis.to_json_dict()
    report.extras["chain_states"] = list(chain.states)
    report.extras["chain_rates"] = chain.rates.tolist()

    if cfg.expect:
        if "stable_sites" in cfg.expect:
            want = tuple(cfg.expect["stable_sites"])
            got = analysis.stable_sites
            report.rows.append(
                _row(
                    report.name, "", "", "stable_sites_match",
                    float(got == want), "", "PASS" if got == want else "FAIL",
                )
            )
        for entry in cfg.expect.get("rates", ()):
            x, y, want = entry["from"], entry["to"], float(entry["rate"])
            present = x in chain.states and y in chain.states
            got = chain.entry(x, y) if present else None
            ok = present and abs(got - want) <= 1e-12
            report.rows.append(
                _row(report.name, "", "", f"rate_{x}_to_{y}", got, 1e-12, "PASS" if ok else "FAIL")
            )

    if cfg.sim is not None:
        n, r = int(cfg.sim["n"]), float(cfg.sim["r"])
        T = float(cfg.sim["T"])
        M = int(cfg.sim["replicas"])
        times = tuple(float(t) for t in cfg.sim.get("time_points", (T,)))
        init = cfg.sim["init"]
        if isinstance(init, Mapping) and "dirac" in init:
            counts = [0] * model.num_states
            counts[model.state_index(init["dirac"])] = n
            start_site = str(init["dirac"])
        else:
            raise ConfigError("conjecture_probe sim init must be {'dirac': site}")
        if start_site not in chain.states:
            raise ConfigError(
                f"sim start site {start_site!r} is not a stable site of the limit chain"
            )
        eps = _dkw_half_width(M, cfg.delta)
        gate = "sim_tv_tol" in cfg.tolerances
        base = 0
        for t in times:
            payload = {
                "op": "fv_final", "model": model.config_dict(), "counts": tuple(counts),
                "r": r, "t": t, "seed": cfg.seed, "base": base, "event_cap": cfg.event_cap,
            }
            res = _run_point(payload, M, threads)
            base += M
            if isinstance(res, EventCapError):
                report.rows.append(_abort_row(report.name, r, t, res))
                continue
            report.events_total += int(res["events"].sum())
            sites = _max_mass_site(res["finals"])
            emp = empirical_law(sites.tolist(), model.states, cfg.delta)
            marg = _lift_law(ctmc_marginal(chain, start_site, t), model.states)
            tv = tv_distance(emp, marg)
            if gate:
                tol = cfg.tolerance("sim_tv_tol", 3.0 * eps)
                verdict = "PASS" if tv <= tol else "FAIL"
            else:
                tol = 3.0 * eps
                verdict = "INFO"
            report.rows.append(_row(report.name, r, t, "tv_vs_conjectured_chain", tv, tol, verdict))
            text = _occupation_csv(model.states, {"final": res["finals"], "events": res["events"]})
            fname = f"probe_t{t:g}.csv"
            outcomes[fname] = text
            report.outcome_digests[fname] = _digest(text)


_KIND_IMPL = {
    "theorem1_marginal": _exp_theorem1,
    "theorem2_pathwise": _exp_theorem2,
    "theorem3_regime": _exp_theorem3,
    "absorption_tail": _exp_absorption_tail,
    "eta_inf_check": _exp_eta_inf,
    "committor_check": _exp_committor_check,
    "conjecture_probe": _exp_conjecture_probe,
}


def run_experiment(
    config: ExperimentConfig | Mapping[str, Any],
    *,
    threads: int = 1,
    out_dir=None,
) -> Report:
    """Run an experiment and (optionally) write report.json + summary.csv.

    The report's ``result_hash`` is independent of ``threads``; timings
    are recorded outside the hashed content.
    """
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    started = time.perf_counter()
    report = Report(
        name=config.name or config.kind,
        kind=config.kind,
        seed=config.seed,
        config=config.canonical_dict(),
    )
    outcomes: dict[str, str] = {}
    _KIND_IMPL[config.kind](config, threads, report, outcomes)
    report.finalize_hash()
    report.timing = {"wall_seconds": time.perf_counter() - started, "threads": threads}
    if out_dir is not None:
        report.write(out_dir, outcomes)
    return report
