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
    occupation of full trajectories must agree with the condensate
    chain's, which is exact (one block exponential per intensity).
``theorem3_regime``
    Particle count and killing floor grow together (uniform-plus-offset
    killing): at every (point, time) pair the measured pair correlation
    must stay under its explicit bound, and the total variation between
    the mean occupation and the mutation-chain marginal, maximized over
    the time grid, must scale like n/lambda_floor with a stable constant.
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

Each kind is declared once, in ``_KINDS``: its runner, the fields it
requires and may read, its tolerance keys and its checks across fields.
A valid value is declared once per entry name, in ``_VALUES``, and holds
wherever the name appears; :meth:`ExperimentConfig.validate` is one pass
over both tables and rejects any field the kind does not read.  Every
runner is a thin function over one point runner, :class:`_Run`:
``point`` runs the replicas of one point through a module-level chunk
function and records abort rows if a replica hits the event cap, and
``outcome`` stores a per-replica table with its digest.  Replicas are
deterministic: replica i of a run consumes the RNG stream derived from
(master seed, flat replica index), each point takes the next block of
indices, work is cut into fixed 256-replica chunks regardless of thread
count, and chunk results are reassembled in task order before any
statistic is computed, so reports hash identically for every
parallelism degree.  Wall-clock timings, overall and per point, live in
a separate block excluded from the hash.

The event loop reads each replica at its stops, strictly increasing
times whose last is the horizon: a final-state point's whole time grid,
a path point's T or an absorption point's ``math.inf``.  A replica
stopped at t and the same replica run on past t agree up to t draw for
draw, by the memoryless property of the waiting times, so theorem1,
theorem3 and conjecture_probe simulate one pass per intensity (per
theorem3 point), not one per (r, t) pair; rows and outcome tables stay
per (r, t).

Per-replica set-up is kept off the event loop's path.  Replica i's
stream is a Philox generator keyed by the master seed, started at
counter ``i << 128`` (:func:`derive_replica_rng`): counter-based, so
distinct replicas never share a block and each replays alone.  A chunk
keys one Philox and resets its counter per replica, and runs all its
replicas through one call of the engine's event loop, which prepares
what they share once and hands back flat per-replica lists (a replica
draws from its stream at its first step, so a zero-rate start draws
none); the engine keeps its rate layout once per (model, r, n), and its
duel tables once per pair of sites' rates and n.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .chains import _mean_occupation, condensate_rates, conjectured_limit_rates, ctmc_marginal
from .committor import committor_numeric, gamblers_ruin_committor
from .condensation import initial_condensation_law
from .engine import (
    DEFAULT_EVENT_CAP,
    EventCapError,
    _path_stats,
    _run_replicas,
    _Runs,
)
from .metrics import LawOnStates, empirical_law, tv_distance
from .model import Model, _integral, _is_int, _is_real, validate_model

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "derive_replica_rng",
    "run_experiment",
    "EXPERIMENT_KINDS",
]

_CHUNK = 256  # replicas per task; fixed so folding is schedule-independent
_PATH_ROWS = 2**16  # path rows a path chunk buffers before reducing them


class ConfigError(ValueError):
    """Invalid experiment configuration (raised before any simulation)."""


def derive_replica_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one replica.

    A Philox generator keyed by the master seed, started at counter
    ``index << 128``: each replica owns 2^128 counter blocks, far more
    than a replica draws, so streams of distinct indices never overlap
    and do not depend on scheduling or thread count.  Both arguments are
    Python or numpy integers; a bool or a float raises.
    """
    if not _integral(master_seed) or master_seed < 0:
        raise ValueError(f"master seed must be an integer >= 0, got {master_seed!r}")
    if not _integral(index) or not 0 <= int(index) < 2**128:  # Philox's counter holds 256 bits
        raise ValueError(f"replica index must be an integer in [0, 2**128), got {index!r}")
    return next(_replica_rngs(int(master_seed), int(index), 1))


def _is_dirac(v) -> bool:
    return isinstance(v, Mapping) and set(v) == {"dirac"} and isinstance(v["dirac"], str)


# ------------------------------------------------------------ config entries
# An entry is valid by its name wherever the name appears: a top-level field,
# a theorem3 point, a sim or mc key, a grid list item, an expect entry or a
# tolerance.  The config keeps each entry in its stored form, at any depth:
# a value as its ``store`` gives it (a float entry as a float, the model
# document as a deep copy), a list as a tuple and a block as a new dict, so
# it holds its own copy of the document.


@dataclass(frozen=True)
class _Value:
    desc: str
    ok: Callable[[Any], bool]
    store: Callable[[Any], Any] = lambda v: v


@dataclass(frozen=True)
class _List:
    """A nonempty list of ``item`` entries, strictly increasing if ``increasing``
    is not None: in the items themselves ("") or in their key of that name."""

    item: Any
    increasing: str | None = None


@dataclass(frozen=True)
class _Block:
    """A mapping with every ``required`` key and no other but ``optional`` ones;
    each key holds its own entry, or with ``lists`` a list of them."""

    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    lists: bool = False


def _integer(low: int) -> _Value:
    return _Value(f"an integer >= {low}", lambda v: _is_int(v, low))


_NONNEGATIVE = _Value("a finite number >= 0", lambda v: _is_real(v) and v >= 0, float)
_POSITIVE = _Value("a finite number > 0", lambda v: _is_real(v) and v > 0, float)
_AT_LEAST_ONE = _Value("a finite number >= 1", lambda v: _is_real(v) and v >= 1, float)
_LABEL = _Value("a site label (a string)", lambda v: isinstance(v, str))

_VALUES: dict[str, Any] = {
    "model": _Value("a model config block", lambda v: isinstance(v, Mapping), copy.deepcopy),  # then validate_model
    "name": _Value("a string", lambda v: isinstance(v, str)),
    "seed": _integer(0),
    "event_cap": _integer(1),
    "n": _integer(2),
    "replicas": _integer(100),
    "delta": _Value("a finite number in (0, 1)", lambda v: _is_real(v) and 0 < v < 1, float),
    "T": _POSITIVE,
    "r": _AT_LEAST_ONE,
    "alpha": _POSITIVE,
    "rate": _NONNEGATIVE,
    "from": _LABEL,
    "to": _LABEL,
    "r_schedule": _List(_AT_LEAST_ONE, increasing=""),
    "time_points": _List(_POSITIVE, increasing=""),
    "points": _List(_Block(("n", "r")), increasing="r"),
    "counts": _List(_integer(0)),
    "stable_sites": _List(_LABEL),
    "rates": _List(_Block(("from", "to", "rate"))),
    "init": _Value(
        "a list of counts (integers >= 0) holding at least two particles, or a {'dirac': site label} block",
        lambda v: _is_dirac(v)
        or isinstance(v, (list, tuple)) and all(_is_int(c, 0) for c in v) and sum(v) >= 2,
        lambda v: dict(v) if _is_dirac(v) else tuple(v),
    ),
    "tolerances": _Value(
        "a mapping of tolerance names to finite numbers",
        lambda v: isinstance(v, Mapping) and all(isinstance(k, str) and _is_real(x) for k, x in v.items()),
    ),  # then each key by its own entry
    "grid": _Block(("n", "alpha"), lists=True),
    "mc": _Block(("n", "alpha", "counts", "replicas")),
    "sim": _Block(("n", "r", "T", "replicas", "init"), ("time_points",)),
    "expect": _Block((), ("stable_sites", "rates")),
    # tolerance keys: a slack may be zero, a band must leave room, and a
    # factor below 1 would pass whatever the data
    "monotone_slack": _NONNEGATIVE,
    "limit_band": _POSITIVE,
    "avg_occupation_band": _POSITIVE,
    "slope_ratio_rel_tol": _POSITIVE,
    "tv_tol": _POSITIVE,
    "grid_tol": _POSITIVE,
    "decay_factor": _AT_LEAST_ONE,
    "cprime_factor": _AT_LEAST_ONE,
}

# the fields every kind reads
_COMMON = ("kind", "name", "seed", "event_cap", "tolerances")


def _checked(path: str, rule, value):
    """Check ``value`` against ``rule``, raising a :class:`ConfigError` that
    names ``path``, and return it in its stored form."""
    if isinstance(rule, _Block):
        keys = set(value) if isinstance(value, Mapping) else {None}
        if not set(rule.required) <= keys <= {*rule.required, *rule.optional}:
            extra = f" and optionally {list(rule.optional)}" if rule.optional else ""
            raise ConfigError(f"{path} must be a block with keys {list(rule.required)}{extra}, got {value!r}")
        stored = {
            key: _checked(f"{path}.{key}", _List(_VALUES[key]) if rule.lists else _VALUES[key], item)
            for key, item in value.items()
        }
        _check_horizon(f"{path}.", value)
        return stored
    if isinstance(rule, _List):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{path} must be a nonempty list, got {value!r}")
        stored = tuple(_checked(f"{path}[{i}]", rule.item, item) for i, item in enumerate(value))
        if rule.increasing is not None:
            keys = [item[rule.increasing] if rule.increasing else item for item in value]
            if any(b <= a for a, b in zip(keys, keys[1:])):
                by = f" in {rule.increasing}" if rule.increasing else ""
                raise ConfigError(f"{path} must be strictly increasing{by}, got {list(value)}")
        return stored
    if not rule.ok(value):
        raise ConfigError(f"{path} must be {rule.desc}, got {value!r}")
    return rule.store(value)


def _check_horizon(prefix: str, entries: Mapping[str, Any]) -> None:
    """Time points given beside a horizon ``T`` end by it."""
    T, times = entries.get("T"), entries.get("time_points")
    if T is not None and times is not None and times[-1] > T:
        raise ConfigError(f"{prefix}time_points must lie in (0, T], got {list(times)} with T = {T}")


def _default(f) -> Any:
    return f.default if f.default_factory is MISSING else f.default_factory()


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see module docstring for kinds).

    ``model`` is an inline model config document.  Construction runs
    :meth:`validate`, which checks each entry and keeps it in its stored
    form at any depth, so every instance is valid, holds its own copy of
    the document, and both entry points build equal configs from one
    document.  The validated :class:`Model` is kept outside the fields:
    it is neither compared nor hashed.
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
    expect: Mapping[str, Any] | None = None
    sim: Mapping[str, Any] | None = None
    grid: Mapping[str, Any] | None = None
    mc: Mapping[str, Any] | None = None

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ExperimentConfig":
        if not isinstance(doc, Mapping):
            raise ConfigError(f"config must be a mapping of fields, got {doc!r}")
        names = [f.name for f in fields(cls)]
        unknown = set(doc) - set(names) - {"model_path"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if doc.get("kind") is None:
            raise ConfigError("config must declare an experiment kind")
        values = {k: doc[k] for k in names if doc.get(k) is not None}
        if "model_path" in doc and not isinstance(doc["model_path"], str):
            raise ConfigError(f"model_path must be a path string, got {doc['model_path']!r}")
        if "model" not in values and "model_path" in doc:
            with open(doc["model_path"], "r", encoding="utf-8") as fh:
                values["model"] = json.load(fh)
        return cls(**values)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- validation -------------------------------------------------

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        spec = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if spec is None:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        reads = {*_COMMON, *spec.requires, *spec.optional}
        entries = {}  # every field but the optional ones left unset
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in reads and value != _default(f):
                raise ConfigError(f"{self.kind} does not read {f.name}, got {value!r}")
            if value is not None or f.default is not None:
                entries[f.name] = value
        missing = [name for name in spec.requires if name not in entries]
        if missing:
            raise ConfigError(f"{self.kind} requires {', '.join(missing)}")
        for name, value in entries.items():
            if name in _VALUES:  # all but kind, looked up above
                object.__setattr__(self, name, _checked(name, _VALUES[name], value))
        allowed = list(spec.tolerances)
        if set(self.tolerances) - set(allowed):
            raise ConfigError(f"{self.kind} reads only the tolerances {allowed}, got {list(self.tolerances)}")
        tolerances = {key: _checked(f"tolerances.{key}", _VALUES[key], x) for key, x in self.tolerances.items()}
        object.__setattr__(self, "tolerances", tolerances)
        _check_horizon("", entries)
        model = None if self.model is None else validate_model(self.model)  # raises ModelError
        object.__setattr__(self, "_model", model)
        init = self.init  # fits the model and holds every particle count the config names
        if _is_dirac(init):
            model.state_index(init["dirac"])  # raises ModelError on an unknown site
        elif init is not None:
            if len(init) != model.num_states:
                raise ConfigError(f"init counts must list one count per model state, got {list(init)}")
            for n in [self.n] if self.n else [p["n"] for p in self.points or ()]:
                if sum(init) != n:
                    raise ConfigError(f"init counts sum to {sum(init)}, expected n = {n}")
        sim_r = [self.sim["r"]] if self.sim else []
        for r in [*(self.r_schedule or ()), *(p["r"] for p in self.points or ()), *sim_r]:
            model.min_killing_rate(r)  # raises ModelError where a killing rate overflows
        spec.check(self, model)

    # -- helpers ----------------------------------------------------

    def validated_model(self) -> Model:
        return self._model

    def resolve_times(self) -> tuple[float, ...]:
        if self.time_points is not None:
            return self.time_points
        # default marginal grid: quarter, half and full horizon
        return tuple(f * self.T for f in (0.25, 0.5, 1.0))

    def canonical_dict(self) -> dict:
        """The hashed config: kind, seed and delta always, other fields unless
        default; in JSON types at every depth, its own copy."""
        doc: dict[str, Any] = {"kind": self.kind, "seed": self.seed, "delta": self.delta}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in doc and value != _default(f):
                doc[f.name] = value
        return json.loads(json.dumps(doc))


# ----------------------------------------------------------------- report


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


_HASHED_FIELDS = ("name", "kind", "seed", "config", "rows", "extras", "events_total", "outcome_digests")
_SUMMARY_COLUMNS = ("experiment", "r", "t", "statistic", "value", "half_width", "verdict")


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

    def _hashed(self) -> dict:
        return {key: getattr(self, key) for key in _HASHED_FIELDS}

    def finalize_hash(self) -> None:
        self.result_hash = hashlib.sha256(_canonical_json(self._hashed()).encode()).hexdigest()

    @property
    def all_pass(self) -> bool:
        return all(row["verdict"] != "FAIL" for row in self.rows)

    def to_json_dict(self) -> dict:
        return dict(self._hashed(), result_hash=self.result_hash, timing=self.timing)

    def write(self, out_dir, outcome_texts: Mapping[str, str] | None = None) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_SUMMARY_COLUMNS)
            for row in self.rows:
                writer.writerow([_csv_num(row[key]) for key in _SUMMARY_COLUMNS])
        if outcome_texts:
            odir = os.path.join(out_dir, "outcomes")
            os.makedirs(odir, exist_ok=True)
            for fname, text in outcome_texts.items():
                with open(os.path.join(odir, fname), "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)


def _csv_num(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# ------------------------------------------------------------ chunk workers
#
# Each worker runs replicas [start, stop) of one point and is a pure
# function of its payload.  They live at module level so a process pool
# pickles them by reference.


def _replica_rngs(seed, first: int, count: int):
    """Yield the streams of replicas ``first .. first+count-1``, laid out
    as :func:`derive_replica_rng` documents.

    One Philox keyed by ``seed`` serves the chunk: its public state is
    reset per replica to counter ``i << 128`` with the buffer empty, so a
    yielded generator is valid only until the next one is drawn.
    """
    bitgen = np.random.Philox(seed)
    rng = np.random.Generator(bitgen)
    state = dict(bitgen.state, buffer_pos=4, has_uint32=0)  # no buffered words
    for i in range(first, first + count):
        state["state"]["counter"] = [0, 0, i % 2**64, i >> 64]  # little-endian words of i << 128
        bitgen.state = state
        yield rng


def _particle_chunk(payload: dict, stops, runs: _Runs, streams=iter, record: bool = False) -> _Runs:
    """Run replicas [start, stop) of a particle point through the engine's
    event loop, with snapshots at ``stops``, into ``runs``.

    ``streams`` wraps the chunk's stream iterator.  The loop draws a
    replica's stream from it when that replica starts, after the previous
    replica's results are in ``runs``, so code in the wrapper runs
    between replicas.  An :class:`EventCapError` leaves with its flat
    replica index set.
    """
    first = payload["base"] + payload["start"]
    rngs = _replica_rngs(payload["seed"], first, payload["stop"] - payload["start"])
    try:
        _run_replicas(payload["model"], payload["r"], payload["counts"], stops, streams(rngs), runs,
                      record=record, event_cap=payload["event_cap"])
    except EventCapError as err:
        err.replica = first + len(runs.times)
        raise
    return runs


def _fv_final_chunk(payload: dict) -> dict:
    """Counts and events so far at each time of the tuple ``t`` of the full
    dynamics, from one pass per replica to the last time."""
    times = payload["t"]
    runs = _particle_chunk(payload, times, _Runs())
    shape = (len(runs.times), len(times))
    return {
        "final": np.array(runs.snaps, dtype=np.int64).reshape(*shape, len(payload["counts"])),
        "events": np.array(runs.snap_events, dtype=np.int64).reshape(shape),
    }


def _fv_path_chunk(payload: dict) -> dict:
    """Dirac-distance integral and time-average occupation over [0, t].

    Replicas' recorded columns are buffered and reduced together by
    :func:`_path_stats`, whose per-replica results do not depend on
    which replicas share a reduction.  Once a replica's events would
    take the buffer past ``_PATH_ROWS`` path rows, the replicas before
    it are reduced, so a chunk of long paths never holds all its events
    at once, and a longer replica is reduced alone.
    """
    T = payload["t"]
    runs = _Runs()
    integrals: list[float] = []
    occupations: list[np.ndarray] = []
    reduced = 0  # replicas whose paths are reduced and cleared from the columns

    def reduce(stop: int) -> None:
        nonlocal reduced
        rows = runs.snap_events[reduced:stop]
        k = sum(rows)
        integral, occupation = _path_stats(*(c[:k] for c in runs.columns[:3]), rows, payload["counts"], T)
        integrals.extend(integral)
        occupations.append(occupation)
        for column in runs.columns:
            del column[:k]
        reduced = stop

    def streams(rngs):
        for rng in rngs:
            yield rng  # resumed once this replica's events are in the columns
            latest = len(runs.times) - 1
            if latest > reduced and len(runs.columns[0]) + latest + 1 - reduced > _PATH_ROWS:
                reduce(latest)

    _particle_chunk(payload, (T,), runs, streams, record=True)
    reduce(len(runs.times))
    events = np.array(runs.snap_events, dtype=np.int64)
    return {"integral": np.array(integrals), "avg_occ": np.concatenate(occupations), "events": events}


def _absorption_chunk(payload: dict) -> dict:
    """Absorption time and site of the payload model's dynamics, run with no
    horizon; the kinds pass ``model.without_mutation``, whose dynamics are
    selection alone."""
    runs = _particle_chunk(payload, (math.inf,), _Runs())
    finals = np.array(runs.snaps, dtype=np.int64).reshape(len(runs.times), -1)
    site = finals.argmax(axis=1)  # the one site holding every particle
    return {"tau": np.array(runs.times), "site": site, "events": np.array(runs.snap_events, dtype=np.int64)}


def _cpu_count() -> int:
    """CPUs this process may run on: more workers than that only wait."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_point(worker, payload: dict, M: int, threads: int):
    """Split a point into fixed chunks, map ``worker`` over them, reassemble in order.

    A pool runs at most ``threads`` workers, one per chunk and per usable
    CPU.  Returns the reassembled per-replica arrays, or the
    :class:`EventCapError` if any replica hit the hard event cap.
    """
    tasks = [dict(payload, start=start, stop=min(start + _CHUNK, M)) for start in range(0, M, _CHUNK)]
    workers = min(threads, len(tasks), _cpu_count())
    try:
        if workers <= 1:
            parts = [worker(t) for t in tasks]
        else:
            # a fork pool starts all its workers at the first submit
            with ProcessPoolExecutor(max_workers=workers) as ex:
                parts = list(ex.map(worker, tasks))
    except EventCapError as err:
        return err
    return {key: np.concatenate([p[key] for p in parts], axis=0) for key in parts[0]}


@dataclass
class _Run:
    """One experiment in progress: the point runner every kind is declared over.

    ``base`` is the first flat replica index of the next point;
    ``aborted`` is set once any pass hits the event cap.
    """

    cfg: ExperimentConfig
    threads: int
    report: Report
    outcomes: dict = field(default_factory=dict)
    base: int = 0
    aborted: bool = False

    def row(self, r, t, statistic, value, half_width, verdict) -> None:
        values = (self.report.name, r, t, statistic, value, half_width, verdict)
        self.report.rows.append(dict(zip(_SUMMARY_COLUMNS, values)))

    def point(self, worker, M: int, r, t, **payload) -> dict | None:
        """Run M replicas of ``worker`` on the next index block.

        ``t`` is the point's time, or a tuple of times for
        :func:`_fv_final_chunk`, which takes every one in one pass.
        Returns the per-replica arrays, or None after recording an abort
        row at each of the point's times when a replica hit the event cap.
        """
        payload.update(r=r, t=t, seed=self.cfg.seed, base=self.base, event_cap=self.cfg.event_cap)
        started = time.perf_counter()
        res = _run_point(worker, payload, M, self.threads)
        stats = {"r": r, "t": t, "replicas": M, "wall_s": time.perf_counter() - started}
        self.report.timing.setdefault("points", []).append(stats)
        first, self.base = self.base, self.base + M
        if isinstance(res, EventCapError):
            self.aborted = True
            for row_t in t if isinstance(t, tuple) else (t,):
                self.row(r, row_t, "event_cap_abort", float(res.cap), "", "FAIL")
            aborts = self.report.timing.setdefault("event_cap_aborts", [])
            aborts.append({"r": r, "t": t, "replica": res.replica})
            return None
        events = res["events"].reshape(M, -1)[:, -1]  # over the whole pass
        total = int(events.sum())
        p50, p99 = (int(v) for v in np.quantile(events, [0.5, 0.99], method="inverted_cdf"))
        stats.update(
            events=total,
            events_per_s=total / stats["wall_s"],
            events_per_replica={"p50": p50, "p99": p99, "max": int(events.max())},
            max_events_replica=first + int(events.argmax()),
        )
        self.report.events_total += total
        return res

    def outcome(self, fname: str, states, arrays: Mapping[str, np.ndarray]) -> None:
        text = _occupation_csv(states, arrays)
        self.outcomes[fname] = text
        self.report.outcome_digests[fname] = _digest(text)


# ----------------------------------------------------- statistic helpers


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _dkw_half_width(M: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * M))


def _at(res: dict, j: int) -> dict:
    """Per-replica counts and events so far at the ``j``-th time of a pass."""
    return {key: res[key][:, j] for key in ("final", "events")}


def _max_mass_site(finals: np.ndarray) -> np.ndarray:
    # lowest index wins ties (fixed deterministic convention)
    return np.argmax(finals, axis=1)


def _tv_standard_error(samples: np.ndarray) -> float:
    """Root of the summed per-site variances of the mean vector.

    Not a bound on the standard error of a TV: without bias, the TV exceeded
    3 times it in 5.5 % of resampled means, not 0.3 % (ROADMAP N2).
    """
    M, _ = samples.shape
    var = samples.var(axis=0, ddof=1) / M
    return float(np.sqrt(var.sum()))


def _occupation_csv(states, arrays: Mapping[str, np.ndarray]) -> str:
    """Per-replica table: ``replica``, then each array's columns (``<key>_<state>``
    for a 2-D one).  A column's format follows its dtype: ``%d`` for int,
    ``%.17g`` (as ``format(v, ".17g")``) for float; the header is quoted by ``csv``."""
    header, columns = ["replica"], []
    for key, arr in arrays.items():
        header.extend([f"{key}_{s}" for s in states] if arr.ndim == 2 else [key])
        columns.extend(np.atleast_2d(arr.T))
    # numbers never need quoting; a row ends in "\r\n", as csv.writer ends it
    line = ",".join(["%d"] + ["%.17g" if c.dtype.kind == "f" else "%d" for c in columns]) + "\r\n"
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    buf.writelines(line % row for row in zip(range(len(columns[0])), *(c.tolist() for c in columns)))
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _lift_law(law: LawOnStates, states: tuple[str, ...]) -> LawOnStates:
    """Express a law over a subset of sites on the full state tuple."""
    v = np.zeros(len(states))
    for s, p in zip(law.states, law.probs):
        v[states.index(s)] += p
    return LawOnStates(states, v)


def _init_counts(model: Model, init, n: int) -> tuple[int, ...]:
    """Particle counts per model state of a stored ``init``: its counts, or n on its Dirac site."""
    if _is_dirac(init):
        return tuple(n if s == init["dirac"] else 0 for s in model.states)
    return init


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
    return _lift_law(LawOnStates(table.states, row), model.states)


# ------------------------------------------------------- experiment kinds


def _exp_theorem1(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    n, M = cfg.n, cfg.replicas
    counts = _init_counts(model, cfg.init, n)
    eps = _dkw_half_width(M, cfg.delta)
    limit_rates = condensate_rates(model, n, None)
    limit_start = _chain_start(model, counts, None)
    finite = {r: (condensate_rates(model, n, r), _chain_start(model, counts, r)) for r in cfg.r_schedule}

    times = cfg.resolve_times()
    limit_marginals = [ctmc_marginal(limit_rates, limit_start, t) for t in times]
    sup_tv_finite: dict[float, float] = {}
    sup_tv_limit: dict[float, float] = {}
    for i, r in enumerate(cfg.r_schedule):
        res = run.point(_fv_final_chunk, M, r, times, model=model, counts=counts)
        if res is None:
            continue
        for j, t in enumerate(times):
            at_t = _at(res, j)
            emp = empirical_law(_max_mass_site(at_t["final"]), model.states)
            tv_fin = tv_distance(emp, ctmc_marginal(*finite[r], t))
            tv_lim = tv_distance(emp, limit_marginals[j])
            sup_tv_finite[r] = max(sup_tv_finite.get(r, 0.0), tv_fin)
            sup_tv_limit[r] = max(sup_tv_limit.get(r, 0.0), tv_lim)

            run.row(r, t, "tv_vs_finite_chain", tv_fin, eps, "INFO")
            run.row(r, t, "tv_vs_limit_chain", tv_lim, eps, "INFO")
            run.outcome(f"point{i * len(times) + j:02d}_r{r:g}_t{t:g}.csv", model.states, at_t)

    if run.aborted:
        return  # aborted passes carry FAIL rows; a sup over the time grid needs them all
    schedule = list(cfg.r_schedule)
    sups = [sup_tv_finite[r] for r in schedule]
    # Adjacent sups are independent estimates with half-width eps each,
    # so differences below their combined half-widths are unresolvable;
    # demand non-increase only beyond that slack.
    slack = cfg.tolerances.get("monotone_slack", 2.0 * eps)
    worst_rise = max((b - a for a, b in zip(sups, sups[1:])), default=0.0)
    run.row("", "", "sup_tv_monotone_in_r", float(worst_rise), slack, _verdict(worst_rise <= slack))
    band = cfg.tolerances.get("limit_band", 3.0 * eps)
    worst = sup_tv_limit[schedule[-1]]
    run.row(schedule[-1], "", "sup_tv_vs_limit_at_rmax", worst, band, _verdict(worst <= band))
    run.report.extras["sup_tv_finite"] = {str(r): sup_tv_finite[r] for r in schedule}
    run.report.extras["sup_tv_limit"] = {str(r): sup_tv_limit[r] for r in schedule}
    run.report.extras["time_grid_note"] = (
        "supremum over [0,T] approximated by the max over the declared time grid"
    )


def _exp_theorem2(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    n, M, T = cfg.n, cfg.replicas, cfg.T
    counts = _init_counts(model, cfg.init, n)
    chain_means = {r: _mean_occupation(condensate_rates(model, n, r), _chain_start(model, counts, r), T)
                   for r in cfg.r_schedule}
    means: list[float] = []
    for r in cfg.r_schedule:
        res = run.point(_fv_path_chunk, M, r, T, model=model, counts=counts)
        run.base += M  # the block chain paths once took stays unused, so each r keeps its streams
        if res is None:
            continue

        mean_int = float(res["integral"].mean())
        se_int = float(res["integral"].std(ddof=1) / math.sqrt(M))
        means.append(mean_int)
        run.row(r, T, "mean_dirac_distance_integral", mean_int, 3.0 * se_int, "INFO")

        tv = float(np.abs(res["avg_occ"].mean(axis=0) - chain_means[r]).sum())
        tol = cfg.tolerances.get("avg_occupation_band", 3.0 * _tv_standard_error(res["avg_occ"]))
        run.row(r, T, "tv_mean_avg_occupation_fv_vs_chain", tv, tol, _verdict(tv <= tol))
        run.outcome(f"paths_r{r:g}.csv", model.states, res)

    run.report.extras["chain_mean_occupation"] = {
        str(r): dict(zip(model.states, v.tolist())) for r, v in chain_means.items()
    }
    factor = cfg.tolerances.get("decay_factor", 5.0)
    if run.aborted:
        return
    if means[-1] > 0:
        achieved = means[0] / means[-1]
        verdict = _verdict(achieved >= factor)
    else:  # fully condensed at the largest intensity: decay is total
        achieved = None
        verdict = "PASS"
    run.row("", "", "dirac_distance_decay_factor_first_to_last", achieved, "", verdict)
    run.report.extras["mean_integrals"] = {str(r): v for r, v in zip(cfg.r_schedule, means)}


def _exp_theorem3(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    M = cfg.replicas
    mutation_chain = conjectured_limit_rates(model)[1]  # every site is stable under uniform_plus: the chain is q

    m_sup = model.killing.m_sup  # validate() admits only uniform_plus killing
    times = cfg.time_points
    # the mutation chain starts from the initial measure, shared by every point (init counts sum to each n)
    start = _init_counts(model, cfg.init, cfg.points[0]["n"])
    init_law = LawOnStates(model.states, np.asarray(start, dtype=float) / sum(start))
    exact_marginals = [ctmc_marginal(mutation_chain, init_law, t).probs for t in times]
    sups: list[tuple[float, float, float]] = []  # (scale, max lo, max hi) per completed point
    for i, point in enumerate(cfg.points):
        n, r = point["n"], point["r"]
        counts = _init_counts(model, cfg.init, n)
        scale = n / model.min_killing_rate(r)
        res = run.point(_fv_final_chunk, M, r, times, model=model, counts=counts)
        if res is None:
            continue
        bound = (model.Q + n / (2.0 * (n - 1.0)) * m_sup) * scale
        los, his = [], []
        for j, t in enumerate(times):
            at_t = _at(res, j)
            occ = at_t["final"] / n

            pair_corr = 1.0 - (occ**2).sum(axis=1)
            mean_pc = float(pair_corr.mean())
            se_pc = float(pair_corr.std(ddof=1) / math.sqrt(M))
            run.row(r, t, "mean_pair_correlation", mean_pc, 3.0 * se_pc, _verdict(mean_pc <= bound + 3.0 * se_pc))
            run.row(r, t, "pair_correlation_bound", bound, "", "INFO")

            tv = float(np.abs(occ.mean(axis=0) - exact_marginals[j]).sum())
            se_tv = _tv_standard_error(occ)
            run.row(r, t, "tv_mean_occupation_vs_mutation_chain", tv, 3.0 * se_tv, "INFO")
            run.row(r, t, "cprime_point_estimate", tv / scale, "", "INFO")
            los.append(max(tv - 3.0 * se_tv, 0.0) / scale)
            his.append((tv + 3.0 * se_tv) / scale)
            run.outcome(f"point{i * len(times) + j:02d}_n{n}_r{r:g}.csv", model.states, at_t)
        # the supremum of TV over the time grid lies between the largest
        # lower and the largest upper 3-sigma bound
        sups.append((scale, max(los), max(his)))

    factor = cfg.tolerances.get("cprime_factor", 3.0)
    if run.aborted:
        return
    max_lo = max(lo for _, lo, _ in sups)
    min_hi = min(hi for _, _, hi in sups)
    # a single constant C' (up to `factor`) must be compatible with every
    # point's 3-sigma interval for sup TV / (n / lambda_floor)
    spread = float(max_lo / min_hi) if min_hi > 0 else None
    run.row("", "", "cprime_interval_consistency", spread, "", _verdict(max_lo <= factor * min_hi))
    run.report.extras["cprime_intervals"] = [{"scale": s, "lo": lo, "hi": hi} for s, lo, hi in sups]


def _exp_absorption_tail(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    M = cfg.replicas
    slopes: list[float] = []
    floors: list[float] = []
    for r in cfg.r_schedule:
        res = run.point(_absorption_chunk, M, r, "", model=model.without_mutation, counts=cfg.init)
        if res is None:
            continue
        taus = res["tau"]
        # tail slope: exponential fit to exceedances over the 75th percentile
        t0 = float(np.quantile(taus, 0.75))
        excess = taus[taus > t0] - t0
        slope = 1.0 / float(excess.mean())
        se = slope / math.sqrt(len(excess))
        slopes.append(slope)
        floors.append(model.min_killing_rate(r))
        run.row(r, "", "tail_slope", slope, 3.0 * se, "INFO")
        run.row(r, "", "mean_absorption_time", float(taus.mean()), "", "INFO")
        run.outcome(f"tail_r{r:g}.csv", model.states, res)

    if run.aborted:
        return
    expected = floors[-1] / floors[0]
    achieved = slopes[-1] / slopes[0]
    tol = cfg.tolerances.get("slope_ratio_rel_tol", 0.20)
    ok = abs(achieved / expected - 1.0) <= tol
    run.row("", "", "tail_slope_ratio_vs_killing_floor_ratio", achieved, tol * expected, _verdict(ok))
    run.report.extras["expected_slope_ratio"] = expected


def _exp_eta_inf(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    r = cfg.r_schedule[0]
    exact = initial_condensation_law(model, cfg.init)

    res = run.point(_absorption_chunk, cfg.replicas, r, "", model=model.without_mutation, counts=cfg.init)
    if res is None:
        return
    emp = empirical_law(res["site"], model.states)
    tv = tv_distance(emp, exact.law)
    tol = cfg.tolerances.get("tv_tol", 0.02)
    run.row(r, "", "tv_exact_vs_absorbed_site_law", tv, tol, _verdict(tv <= tol))
    run.report.extras.update(exact.to_json_dict())
    run.outcome("absorbed_sites.csv", model.states, res)


def _exp_committor_check(run: _Run) -> None:
    cfg = run.cfg
    tol = cfg.tolerances.get("grid_tol", 1e-9)
    worst = 0.0
    for n in cfg.grid["n"]:
        for alpha in cfg.grid["alpha"]:
            table = committor_numeric([1.0, alpha], n)
            g = gamblers_ruin_committor(n, alpha)
            err = 0.0
            for k in range(n + 1):
                err = max(err, abs(table.value((k, n - k), 0) - g[k]))
            worst = max(worst, err)
            run.row("", "", f"max_abs_err_n{n}_alpha{alpha:g}", err, tol, _verdict(err <= tol))
    run.report.extras["grid_worst_error"] = worst

    if cfg.mc is None:
        return
    n, alpha, counts, M = cfg.mc["n"], cfg.mc["alpha"], cfg.mc["counts"], cfg.mc["replicas"]
    r = 1.0  # the two sites die at rates r and alpha * r; only alpha matters
    model = validate_model(
        {
            "states": ["x", "y"],
            "mutation": [],
            "killing": {"kind": "power", "c": {"x": 1.0, "y": alpha}, "beta": {"x": 1, "y": 1}},
        }
    )
    res = run.point(_absorption_chunk, M, r, "", model=model, counts=counts)
    if res is None:
        return
    freq = float((res["site"] == 0).mean())
    exact = float(gamblers_ruin_committor(n, alpha)[counts[0]])
    band = 3.0 * math.sqrt(exact * (1.0 - exact) / M)
    dev = abs(freq - exact)
    run.row(r, "", "mc_absorption_freq_abs_dev", dev, band, _verdict(dev <= band))
    run.report.extras["mc_frequency"] = freq
    run.report.extras["mc_exact"] = exact
    run.outcome("mc_absorption.csv", model.states, res)


def _exp_conjecture_probe(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    analysis, chain = conjectured_limit_rates(model)
    run.report.extras["cascade"] = analysis.to_json_dict()
    run.report.extras["chain_states"] = list(chain.states)
    run.report.extras["chain_rates"] = chain.rates.tolist()

    if cfg.expect:
        if "stable_sites" in cfg.expect:
            same = analysis.stable_sites == cfg.expect["stable_sites"]
            run.row("", "", "stable_sites_match", float(same), "", _verdict(same))
        for entry in cfg.expect.get("rates", ()):
            x, y, want = entry["from"], entry["to"], entry["rate"]
            present = x in chain.states and y in chain.states
            got = chain.entry(x, y) if present else None
            run.row("", "", f"rate_{x}_to_{y}", got, 1e-12, _verdict(present and abs(got - want) <= 1e-12))

    if cfg.sim is None:
        return
    n, r, T, M = cfg.sim["n"], cfg.sim["r"], cfg.sim["T"], cfg.sim["replicas"]
    times = cfg.sim.get("time_points", (T,))
    start_site = cfg.sim["init"]["dirac"]  # a stable site, by validate()
    tol = 3.0 * _dkw_half_width(M, cfg.delta)
    res = run.point(_fv_final_chunk, M, r, times, model=model, counts=_init_counts(model, cfg.sim["init"], n))
    if res is None:
        return
    for j, t in enumerate(times):
        at_t = _at(res, j)
        emp = empirical_law(_max_mass_site(at_t["final"]), model.states)
        tv = tv_distance(emp, _lift_law(ctmc_marginal(chain, start_site, t), model.states))
        run.row(r, t, "tv_vs_conjectured_chain", tv, tol, "INFO")
        run.outcome(f"probe_t{t:g}.csv", model.states, at_t)


@dataclass(frozen=True)
class _Kind:
    """A kind's runner, the fields it requires and may read beside them and
    the common ones, its tolerance keys, and its checks across fields (run
    once the values, the model and the init are valid)."""

    run: Callable[[_Run], None]
    requires: tuple[str, ...]
    optional: tuple[str, ...]
    tolerances: tuple[str, ...]
    check: Callable[[ExperimentConfig, Any], None] = lambda cfg, model: None


def _check_uniform_plus(cfg: ExperimentConfig, model: Model) -> None:
    if getattr(model.killing, "m_sup", None) is None:
        raise ConfigError("theorem3_regime expects the uniform_plus killing family")


def _check_counts(cfg: ExperimentConfig, need: str, fits: bool) -> None:
    """Init counts, not a Dirac, and an r_schedule of ``need``."""
    if not fits:
        raise ConfigError(f"{cfg.kind} needs {need} in r_schedule, got {list(cfg.r_schedule)}")
    if _is_dirac(cfg.init):
        raise ConfigError(f"{cfg.kind} needs init as a list of counts, got {cfg.init!r}")


def _check_tail(cfg: ExperimentConfig, model: Model) -> None:
    _check_counts(cfg, ">= 2 intensities", len(cfg.r_schedule) >= 2)
    if sum(c > 0 for c in cfg.init) < 2:  # a Dirac mass is absorbed at t = 0: no tail to fit
        raise ConfigError(f"absorption_tail needs particles on at least two sites, got init {list(cfg.init)}")


def _check_mc(cfg: ExperimentConfig, model: None) -> None:
    mc = cfg.mc
    if mc is not None and (len(mc["counts"]) != 2 or sum(mc["counts"]) != mc["n"]):
        raise ConfigError(f"mc.counts must be two counts that sum to mc.n, got {dict(mc)}")


def _check_sim(cfg: ExperimentConfig, model: Model) -> None:
    if cfg.sim is None:
        return
    init = cfg.sim["init"]
    if not _is_dirac(init):
        raise ConfigError(f"sim.init must be a {{'dirac': site}} block, got {init!r}")
    if init["dirac"] not in conjectured_limit_rates(model)[1].states:
        raise ConfigError(f"sim start site {init['dirac']!r} is not a stable site")


_FIXED_N = ("model", "n", "r_schedule", "T", "replicas", "init")
_COUNTS = ("model", "r_schedule", "replicas", "init")
_KINDS = {
    "theorem1_marginal": _Kind(_exp_theorem1, _FIXED_N, ("delta", "time_points"),
                               ("monotone_slack", "limit_band")),
    "theorem2_pathwise": _Kind(_exp_theorem2, _FIXED_N, (), ("avg_occupation_band", "decay_factor")),
    "theorem3_regime": _Kind(_exp_theorem3, ("model", "points", "time_points", "replicas", "init"),
                             ("T",), ("cprime_factor",), _check_uniform_plus),  # T bounds time_points
    "absorption_tail": _Kind(_exp_absorption_tail, _COUNTS, ("n",), ("slope_ratio_rel_tol",), _check_tail),
    "eta_inf_check": _Kind(
        _exp_eta_inf, _COUNTS, ("n",), ("tv_tol",),
        lambda cfg, _: _check_counts(cfg, "exactly one intensity", len(cfg.r_schedule) == 1),
    ),
    "committor_check": _Kind(_exp_committor_check, ("grid",), ("mc",), ("grid_tol",), _check_mc),
    "conjecture_probe": _Kind(_exp_conjecture_probe, ("model",), ("delta", "expect", "sim"), (), _check_sim),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(
    config: ExperimentConfig | Mapping[str, Any],
    *,
    threads: int = 1,
    out_dir=None,
) -> Report:
    """Run an experiment and (optionally) write report.json + summary.csv.

    The report's ``result_hash`` is independent of ``threads``, an
    integer >= 1; timings are recorded outside the hashed content.
    """
    if not _is_int(threads, 1):  # checked before any point runs
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if not isinstance(config, ExperimentConfig):  # an instance is valid by construction
        config = ExperimentConfig.from_dict(config)
    if out_dir is not None:  # fail on an unusable directory before simulating
        os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    report = Report(
        name=config.name or config.kind,
        kind=config.kind,
        seed=config.seed,
        config=config.canonical_dict(),
    )
    run = _Run(config, threads, report)
    _KINDS[config.kind].run(run)
    report.finalize_hash()
    report.timing.update(wall_seconds=time.perf_counter() - started, threads=threads)
    if out_dir is not None:
        report.write(out_dir, run.outcomes)
    return report
