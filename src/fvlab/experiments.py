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

Every kind is a thin declaration over one point runner, :class:`_Run`:
``point`` runs the replicas of one point through a module-level chunk
function and records an abort row if a replica hits the event cap, and
``outcome`` stores a per-replica table with its digest.  Replicas are
deterministic: replica i of a run consumes the RNG stream derived from
(master seed, flat replica index), each point takes the next block of
indices, work is cut into fixed 256-replica chunks regardless of thread
count, and chunk results are reassembled in task order before any
statistic is computed, so reports hash identically for every
parallelism degree.  Wall-clock timings, overall and per point, live in
a separate block excluded from the hash.

Per-replica set-up is kept off the event loop's path.  A chunk hashes
the seed sequences of all its replicas in one numpy pass and resets one
generator per replica, bit for bit the stream
:func:`derive_replica_rng` gives, and the engine prepares its rate
layout once per (model, r), not once per replica.
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
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .chains import RateMatrix, condensate_rates, conjectured_limit_rates, ctmc_marginal, simulate_ctmc
from .committor import committor_numeric, gamblers_ruin_committor
from .condensation import initial_condensation_law
from .engine import (
    DEFAULT_EVENT_CAP,
    EmpiricalMeasure,
    EventCapError,
    _dirac_distance_integral,
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

_STATISTICAL_KINDS = frozenset(
    ("theorem1_marginal", "theorem2_pathwise", "theorem3_regime", "absorption_tail", "eta_inf_check")
)

_CHUNK = 256  # replicas per task; fixed so folding is schedule-independent

# The tolerance keys each kind reads; validate() rejects any other.
_TOLERANCE_KEYS = {
    "theorem1_marginal": ["monotone_slack", "limit_band"],
    "theorem2_pathwise": ["avg_occupation_band", "decay_factor"],
    "theorem3_regime": ["cprime_factor"],
    "absorption_tail": ["slope_ratio_rel_tol"],
    "eta_inf_check": ["tv_tol"],
    "committor_check": ["grid_tol"],
    "conjecture_probe": [],
}


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


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _is_int(v, low: int) -> bool:
    """An integer >= ``low`` (a bool is not one)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _is_ratio(v) -> bool:
    """A finite positive number (a bool is not one)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < math.inf


# How from_dict coerces a present, non-null field; fields not listed, the
# integer ones among them, are kept as given for validate() to check.
_COERCE: dict[str, Callable[[Any], Any]] = {
    "delta": float,
    "r_schedule": _floats,
    "points": lambda points: tuple(dict(p) for p in points),
    "T": float,
    "time_points": _floats,
    "tolerances": lambda tol: {str(k): float(v) for k, v in dict(tol).items()},
}


def _default(f) -> Any:
    return f.default_factory() if f.default is MISSING else f.default


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see module docstring for kinds).

    ``model`` is an inline model config document.  Kind-specific fields
    are optional at the type level and enforced by :meth:`validate`,
    which construction runs, so every instance is valid.  The validated
    :class:`Model` is kept outside the fields: it is neither compared
    nor hashed.
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
        names = [f.name for f in fields(cls)]
        unknown = set(doc) - set(names) - {"model_path"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if doc.get("kind") is None:
            raise ConfigError("config must declare an experiment kind")
        values = {k: doc[k] for k in names if doc.get(k) is not None}
        if "model" not in values and "model_path" in doc:
            with open(doc["model_path"], "r", encoding="utf-8") as fh:
                values["model"] = json.load(fh)
        return cls(**{k: _COERCE[k](v) if k in _COERCE else v for k, v in values.items()})

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- validation -------------------------------------------------

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not _is_int(self.seed, 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _is_int(self.event_cap, 1):
            raise ConfigError(f"event_cap must be an integer >= 1, got {self.event_cap!r}")
        if self.n is not None and not _is_int(self.n, 2):
            raise ConfigError(f"{self.kind} needs an integer n >= 2, got {self.n!r}")
        if self.delta <= 0 or self.delta >= 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        allowed = _TOLERANCE_KEYS[self.kind]
        if set(self.tolerances) - set(allowed):
            raise ConfigError(f"{self.kind} reads only the tolerances {allowed}, got {list(self.tolerances)}")
        if self.r_schedule and min(self.r_schedule) < 1:
            raise ConfigError(f"r_schedule intensities must be >= 1, got {list(self.r_schedule)}")
        model = None
        if self.kind != "committor_check":
            if self.model is None:
                raise ConfigError(f"{self.kind} requires a model")
            model = validate_model(self.model)  # raises ModelError on bad input
        object.__setattr__(self, "_model", model)
        if (self.kind in _STATISTICAL_KINDS or self.replicas is not None) and not _is_int(self.replicas, 100):
            raise ConfigError(f"{self.kind} needs an integer replicas >= 100, got {self.replicas!r}")
        if self.kind in ("theorem1_marginal", "theorem2_pathwise"):
            if not self.r_schedule:
                raise ConfigError(f"{self.kind} needs a nonempty r schedule")
            self._check_increasing(self.r_schedule, "r_schedule")
            if self.n is None:
                raise ConfigError(f"{self.kind} needs n >= 2")
            if self.T is None or self.T <= 0:
                raise ConfigError(f"{self.kind} needs a positive horizon T")
            if self.init is None:
                raise ConfigError(f"{self.kind} needs an init block")
            if self.time_points is not None:
                self._check_increasing(self.time_points, "time_points")
                if self.time_points[0] <= 0 or self.time_points[-1] > self.T:
                    raise ConfigError("time_points must lie in (0, T]")
            self._check_init_for(model, [self.n])
        if self.kind == "theorem3_regime":
            if getattr(model.killing, "m_sup", None) is None:
                raise ConfigError("theorem3_regime expects the uniform_plus killing family")
            if not self.points:
                raise ConfigError("theorem3_regime needs a nonempty points schedule")
            prev = None
            for p in self.points:
                if "n" not in p or "r" not in p:
                    raise ConfigError(f"each point needs n and r, got {p}")
                if not _is_int(p["n"], 2) or float(p["r"]) < 1:
                    raise ConfigError(f"point out of range: {p}")
                if prev is not None and float(p["r"]) <= prev:
                    raise ConfigError("points must have increasing r")
                prev = float(p["r"])
            if self.init is None:
                raise ConfigError("theorem3_regime needs an init block ({'dirac': site})")
            if self.time_points is None or len(self.time_points) == 0:
                raise ConfigError("theorem3_regime needs time_points")
            self._check_increasing(self.time_points, "time_points")
            if self.time_points[0] <= 0:
                raise ConfigError(f"time_points must be positive, got {self.time_points}")
            self._check_init_for(model, [int(p["n"]) for p in self.points])
        if self.kind == "absorption_tail":
            if not self.r_schedule or len(self.r_schedule) < 2:
                raise ConfigError("absorption_tail needs >= 2 intensities in r_schedule")
            self._check_increasing(self.r_schedule, "r_schedule")
            if self.init is None:
                raise ConfigError("absorption_tail needs init counts")
            self._check_count_list(model.num_states, () if self.n is None else (self.n,))
        if self.kind == "eta_inf_check":
            if not self.r_schedule or len(self.r_schedule) != 1:
                raise ConfigError("eta_inf_check needs exactly one intensity in r_schedule")
            if self.init is None:
                raise ConfigError("eta_inf_check needs init counts")
            self._check_count_list(model.num_states, () if self.n is None else (self.n,))
        if self.kind == "committor_check":
            grid = self._block("grid", ("n", "alpha"))
            if not isinstance(grid["n"], (list, tuple)) or not all(_is_int(n, 2) for n in grid["n"]):
                raise ConfigError(f"grid n must list integers >= 2, got {grid['n']!r}")
            if not isinstance(grid["alpha"], (list, tuple)) or not all(map(_is_ratio, grid["alpha"])):
                raise ConfigError(f"grid alpha must list finite ratios > 0, got {grid['alpha']!r}")
            if self.mc is not None:
                mc = self._block("mc", ("n", "alpha", "counts", "replicas"))
                n, counts = mc["n"], mc["counts"]
                if not (_is_int(n, 2) and _is_ratio(mc["alpha"])):
                    raise ConfigError(f"mc needs an integer n >= 2 and a finite alpha > 0, got {dict(mc)}")
                if not (isinstance(counts, (list, tuple)) and len(counts) == 2
                        and all(_is_int(c, 0) for c in counts) and sum(counts) == n):
                    raise ConfigError(f"mc counts must be two nonnegative integers that sum to n: {counts}")
        if self.kind == "conjecture_probe" and self.expect is not None:
            self._block("expect", (), ("stable_sites", "rates"))
        if self.kind == "conjecture_probe" and self.sim is not None:
            sim = self._block("sim", ("n", "r", "T", "replicas", "init"), ("time_points",))
            n, r, T = sim["n"], sim["r"], sim["T"]
            if not (_is_int(n, 2) and _is_ratio(r) and r >= 1 and _is_ratio(T)):
                raise ConfigError(f"sim needs integer n >= 2, finite r >= 1, finite T > 0, got {dict(sim)}")
            times = [float(t) for t in sim.get("time_points", (T,))]
            self._check_increasing(times, "sim time_points")
            if not times or times[0] <= 0 or times[-1] > T:
                raise ConfigError(f"sim time_points must lie in (0, T], got {times}")
            if not (isinstance(sim["init"], Mapping) and "dirac" in sim["init"]):
                raise ConfigError("conjecture_probe sim init must be {'dirac': site}")
            if str(sim["init"]["dirac"]) not in conjectured_limit_rates(model)[1].states:
                raise ConfigError(f"sim start site {sim['init']['dirac']!r} is not a stable site")

    def _block(self, what: str, required: Sequence[str], optional: Sequence[str] = ()) -> Mapping[str, Any]:
        """The ``what`` block, holding every required key, no other but optional ones, and replicas >= 100."""
        block, allowed = getattr(self, what), [*required, *optional]
        if not isinstance(block, Mapping) or any(key not in block for key in required):
            raise ConfigError(f"{self.kind} needs a {what} block with keys {list(required)}, got {block!r}")
        if set(block) - set(allowed):
            raise ConfigError(f"{self.kind} reads only the {what} keys {allowed}, got {sorted(block)}")
        if "replicas" in block and not _is_int(block["replicas"], 100):
            raise ConfigError(f"{self.kind} {what} block needs replicas >= 100")
        return block

    def _check_count_list(self, num_states: int, ns: Sequence[int] = ()) -> None:
        init = self.init
        if not isinstance(init, (list, tuple)):
            raise ConfigError(f"{self.kind} needs init as a list of counts, got {init!r}")
        if len(init) != num_states:
            raise ConfigError(
                f"init counts must list one count per model state ({num_states}), got {list(init)}"
            )
        if not all(_is_int(c, 0) for c in init):
            raise ConfigError(f"init counts must be nonnegative integers, got {list(init)}")
        if sum(init) < 2:
            raise ConfigError(f"init counts must hold at least two particles, got {list(init)}")
        for n in ns:
            if sum(init) != n:
                raise ConfigError(f"init counts sum to {sum(init)}, expected n = {n}")

    def _check_init_for(self, model: Model, ns: Sequence[int]) -> None:
        """``init`` is a Dirac on a model site, or counts holding n particles at every n."""
        if isinstance(self.init, Mapping) and "dirac" in self.init:
            model.state_index(self.init["dirac"])  # raises ModelError on an unknown site
            return
        self._check_count_list(model.num_states, ns)

    @staticmethod
    def _check_increasing(values: Sequence[float], what: str) -> None:
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{what} must be strictly increasing, got {values}")

    # -- helpers ----------------------------------------------------

    def validated_model(self) -> Model:
        return self._model

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
        return tuple(int(c) for c in init)

    def tolerance(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def canonical_dict(self) -> dict:
        """The hashed config: kind, seed and delta always, other fields unless default."""
        doc: dict[str, Any] = {"kind": self.kind, "seed": self.seed, "delta": self.delta}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in doc and value != _default(f):
                doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc


# ----------------------------------------------------------------- report


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


_HASHED_FIELDS = ("name", "kind", "seed", "config", "rows", "extras", "events_total", "outcome_digests")


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


# ------------------------------------------------------------ chunk workers
#
# Each worker runs replicas [start, stop) of one point and is a pure
# function of its payload.  They live at module level so a process pool
# pickles them by reference.


# numpy's SeedSequence hash (a pool of 4 uint32 words) and PCG64's
# seeding step, for _pcg64_states
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _uint32_words(value: int) -> int:
    return max(1, -(-value.bit_length() // 32))


def _pcg64_states(seed, first: int, count: int) -> list[tuple[int, int]] | None:
    """PCG64 ``(state, inc)`` of ``derive_replica_rng(seed, i)`` for i in ``first .. first+count-1``.

    SeedSequence hashes its entropy words (the seed's, zero-padded to the
    pool size because a spawn key follows, then the index's) with uint32
    arithmetic whose multipliers do not depend on the data, so the hash
    runs once over the whole block as numpy columns.  None when the
    block is outside what this reproduces: a seed that is not an int
    >= 0, or indices of different uint32 word counts or of more than two.
    """
    last = first + count - 1
    if not (_is_int(seed, 0) and first >= 0):
        return None
    n_index = _uint32_words(first)
    if n_index != _uint32_words(last) or n_index > 2:
        return None
    idx = np.uint64(first) + np.arange(count, dtype=np.uint64)
    seed_words = [(seed >> (32 * k)) & _M32 for k in range(_uint32_words(seed))]
    entropy = [np.full(count, w, dtype=np.uint32) for w in seed_words + [0] * (_POOL - len(seed_words))]
    entropy += [((idx >> np.uint64(32 * k)) & np.uint64(_M32)).astype(np.uint32) for k in range(n_index)]

    def hasher(const: int, mult: int):
        """SeedSequence's hashmix; its multiplier advances by ``mult`` per call."""

        def hashmix(value):
            nonlocal const
            xor, const = const, const * mult & _M32
            value = (value ^ np.uint32(xor)) * np.uint32(const)
            return value ^ (value >> np.uint32(16))

        return hashmix

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words cycling over the pool
    output = hasher(_INIT_B, _MULT_B)
    words = [output(pool[k % _POOL]).tolist() for k in range(8)]
    states = []
    for w in zip(*words):
        # uint64 words are little-endian pairs; state word 0 is the high half
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = ((w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 | 1) & _M128
        states.append((((initstate + inc) * _PCG_MULT + inc) & _M128, inc))
    return states


def _replica_rngs(seed, first: int, count: int):
    """Yield the streams of replicas ``first .. first+count-1``, bit for bit
    those of :func:`derive_replica_rng`.

    One PCG64 is reset per replica from :func:`_pcg64_states`, so a yielded
    generator is valid only until the next one is drawn.  Blocks that
    function cannot hash take the reference path.
    """
    states = _pcg64_states(seed, first, count)
    if states is None:
        for i in range(first, first + count):
            yield derive_replica_rng(seed, i)
        return
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for state, inc in states:
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _collect(payload: dict, replica, **dtypes) -> dict:
    """Run ``replica(rng)`` over a chunk; stack each tuple field into an array.

    An :class:`EventCapError` leaves with its flat replica index set.
    """
    start, stop = payload["start"], payload["stop"]
    first = payload["base"] + start
    rows = []
    for i, rng in enumerate(_replica_rngs(payload["seed"], first, stop - start), first):
        try:
            rows.append(replica(rng))
        except EventCapError as err:
            err.replica = i
            raise
    return {key: np.array(col, dtype=dtype) for (key, dtype), col in zip(dtypes.items(), zip(*rows))}


def _particle_inputs(payload: dict):
    init = EmpiricalMeasure.from_counts(payload["counts"])
    return payload["model"], init, payload["r"], payload["event_cap"]


def _fv_final_chunk(payload: dict) -> dict:
    """Final counts at time ``t`` of the full dynamics."""
    model, init, r, cap = _particle_inputs(payload)
    t = payload["t"]

    def replica(rng):
        traj = simulate_fv(model, r, init, t, rng, record=False, event_cap=cap)
        return traj.final.counts, traj.event_count

    return _collect(payload, replica, final=np.int64, events=np.int64)


def _fv_path_chunk(payload: dict) -> dict:
    """Dirac-distance integral and time-average occupation over [0, t]."""
    model, init, r, cap = _particle_inputs(payload)
    T = payload["t"]

    def replica(rng):
        traj = simulate_fv(model, r, init, T, rng, record=True, event_cap=cap)
        times, values = traj.occupancy_path()
        integral = _dirac_distance_integral(times, values, T)
        return integral, np.diff(np.append(times, T)) @ values / T, traj.event_count

    return _collect(payload, replica, integral=float, avg_occ=float, events=np.int64)


def _absorption_chunk(payload: dict) -> dict:
    """Absorption time and site of the selection-only dynamics."""
    model, init, r, cap = _particle_inputs(payload)

    def replica(rng):
        res = simulate_selection_absorption(model, r, init, rng, event_cap=cap)
        return res.tau, model.index[res.site], res.event_count

    return _collect(payload, replica, tau=float, site=np.int64, events=np.int64)


def _ctmc_path_chunk(payload: dict) -> dict:
    """Time-average occupation over [0, t] of a condensate-chain path."""
    rates, T, init = payload["rates"], payload["t"], payload["init"]
    d = len(rates.states)

    def replica(rng):
        path = simulate_ctmc(rates, init, T, rng)
        occ = np.zeros(d)
        for (t0, s0), t1 in zip(path, [t for t, _ in path[1:]] + [T]):
            occ[s0] += (t1 - t0) / T
        return occ, len(path) - 1

    return _collect(payload, replica, avg_occ=float, events=np.int64)


def _run_point(worker, payload: dict, M: int, threads: int):
    """Split a point into fixed chunks, map ``worker`` over them, reassemble in order.

    Returns the reassembled per-replica arrays, or the
    :class:`EventCapError` if any replica hit the hard event cap.
    """
    tasks = [dict(payload, start=start, stop=min(start + _CHUNK, M)) for start in range(0, M, _CHUNK)]
    try:
        if threads <= 1 or len(tasks) == 1:
            parts = [worker(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=threads) as ex:
                parts = list(ex.map(worker, tasks))
    except EventCapError as err:
        return err
    return {key: np.concatenate([p[key] for p in parts], axis=0) for key in parts[0]}


@dataclass
class _Run:
    """One experiment in progress: the point runner every kind is declared over.

    ``base`` is the first flat replica index of the next point.
    """

    cfg: ExperimentConfig
    threads: int
    report: Report
    outcomes: dict = field(default_factory=dict)
    base: int = 0

    def row(self, r, t, statistic, value, half_width, verdict) -> None:
        self.report.rows.append(
            {
                "experiment": self.report.name,
                "r": r,
                "t": t,
                "statistic": statistic,
                "value": value,
                "half_width": half_width,
                "verdict": verdict,
            }
        )

    def point(self, worker, M: int, r, t, **payload) -> dict | None:
        """Run M replicas of ``worker`` on the next index block.

        Returns the per-replica arrays, or None after recording the
        point's abort row when a replica hit the event cap.
        """
        payload.update(r=r, t=t, seed=self.cfg.seed, base=self.base, event_cap=self.cfg.event_cap)
        started = time.perf_counter()
        res = _run_point(worker, payload, M, self.threads)
        stats = {"r": r, "t": t, "replicas": M, "wall_s": time.perf_counter() - started}
        self.report.timing.setdefault("points", []).append(stats)
        first, self.base = self.base, self.base + M
        if isinstance(res, EventCapError):
            self.row(r, t, "event_cap_abort", float(res.cap), "", "FAIL")
            aborts = self.report.timing.setdefault("event_cap_aborts", [])
            aborts.append({"r": r, "t": t, "replica": res.replica})
            return None
        events = res["events"]
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


def _max_mass_site(finals: np.ndarray) -> np.ndarray:
    # lowest index wins ties (fixed deterministic convention)
    return np.argmax(finals, axis=1)


def _tv_standard_error(samples: np.ndarray) -> float:
    """Root of the summed per-site variances of the mean vector.

    Not a bound on the standard error of a TV: without bias, the TV exceeded
    3 times it in 5.5 % of resampled means, not 0.3 % (ROADMAP open item 5).
    """
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


def _exp_theorem1(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    n, M = cfg.n, cfg.replicas
    counts = cfg.init_counts(model, n)
    eps = _dkw_half_width(M, cfg.delta)
    limit_rates = condensate_rates(model, n, None)
    limit_start = _chain_start(model, counts, None)
    finite = {r: (condensate_rates(model, n, r), _chain_start(model, counts, r)) for r in cfg.r_schedule}

    points = [(r, t) for r in cfg.r_schedule for t in cfg.resolve_times()]
    sup_tv_finite: dict[float, float] = {}
    sup_tv_limit: dict[float, float] = {}
    completed = 0
    for pid, (r, t) in enumerate(points):
        res = run.point(_fv_final_chunk, M, r, t, model=model, counts=counts)
        if res is None:
            continue
        completed += 1
        emp = empirical_law(_max_mass_site(res["final"]).tolist(), model.states)
        tv_fin = tv_distance(emp, ctmc_marginal(*finite[r], t))
        tv_lim = tv_distance(emp, ctmc_marginal(limit_rates, limit_start, t))
        sup_tv_finite[r] = max(sup_tv_finite.get(r, 0.0), tv_fin)
        sup_tv_limit[r] = max(sup_tv_limit.get(r, 0.0), tv_lim)

        run.row(r, t, "tv_vs_finite_chain", tv_fin, eps, "INFO")
        run.row(r, t, "tv_vs_limit_chain", tv_lim, eps, "INFO")
        run.outcome(f"point{pid:02d}_r{r:g}_t{t:g}.csv", model.states, res)

    if completed != len(points):
        return  # aborted points carry FAIL rows; a sup over the time grid needs them all
    schedule = list(cfg.r_schedule)
    sups = [sup_tv_finite[r] for r in schedule]
    # Adjacent sups are independent estimates with half-width eps each,
    # so differences below their combined half-widths are unresolvable;
    # demand non-increase only beyond that slack.
    slack = cfg.tolerance("monotone_slack", 2.0 * eps)
    worst_rise = max((b - a for a, b in zip(sups, sups[1:])), default=0.0)
    run.row("", "", "sup_tv_monotone_in_r", float(worst_rise), slack, _verdict(worst_rise <= slack))
    band = cfg.tolerance("limit_band", 3.0 * eps)
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
    counts = cfg.init_counts(model, n)
    means: list[float] = []
    for r in cfg.r_schedule:
        res = run.point(_fv_path_chunk, M, r, T, model=model, counts=counts)
        if res is None:
            run.base += M  # keep the chain point's index block reserved
            continue

        mean_int = float(res["integral"].mean())
        se_int = float(res["integral"].std(ddof=1) / math.sqrt(M))
        means.append(mean_int)
        run.row(r, T, "mean_dirac_distance_integral", mean_int, 3.0 * se_int, "INFO")

        chain = condensate_rates(model, n, r)
        res_c = run.point(_ctmc_path_chunk, M, r, T, rates=chain, init=_chain_start(model, counts, r))
        assert res_c is not None  # ctmc paths have no cap

        mean_fv = res["avg_occ"].mean(axis=0)
        mean_ch = res_c["avg_occ"].mean(axis=0)
        tv = float(np.abs(mean_fv - mean_ch).sum())
        se = math.sqrt(_tv_standard_error(res["avg_occ"]) ** 2 + _tv_standard_error(res_c["avg_occ"]) ** 2)
        tol = cfg.tolerance("avg_occupation_band", 3.0 * se)
        run.row(r, T, "tv_mean_avg_occupation_fv_vs_chain", tv, tol, _verdict(tv <= tol))
        run.outcome(f"paths_r{r:g}.csv", model.states, res)

    factor = cfg.tolerance("decay_factor", 5.0)
    if len(means) != len(cfg.r_schedule):
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
    mut_rates = np.zeros((model.num_states, model.num_states))
    for i, j, q in model.mutation:
        mut_rates[i, j] = q
    mutation_chain = RateMatrix(model.states, mut_rates)

    m_sup = model.killing.m_sup  # validate() admits only uniform_plus killing
    times = cfg.time_points
    pairs = [(point, t) for point in cfg.points for t in times]
    cps: list[tuple[float, float, float]] = []  # (scale, lo, hi) per completed pair
    for pid, (point, t) in enumerate(pairs):
        n, r = int(point["n"]), float(point["r"])
        counts = cfg.init_counts(model, n)
        scale = n / model.min_killing_rate(r)
        res = run.point(_fv_final_chunk, M, r, t, model=model, counts=counts)
        if res is None:
            continue
        occ = res["final"] / n

        pair_corr = 1.0 - (occ**2).sum(axis=1)
        mean_pc = float(pair_corr.mean())
        se_pc = float(pair_corr.std(ddof=1) / math.sqrt(M))
        bound = (model.Q + n / (2.0 * (n - 1.0)) * m_sup) * scale
        run.row(r, t, "mean_pair_correlation", mean_pc, 3.0 * se_pc, _verdict(mean_pc <= bound + 3.0 * se_pc))
        run.row(r, t, "pair_correlation_bound", bound, "", "INFO")

        # the mutation chain starts from the initial empirical measure
        init_law = exact_law(model.states, np.asarray(counts, dtype=float) / n)
        exact_marginal = ctmc_marginal(mutation_chain, init_law, t)
        tv = float(np.abs(occ.mean(axis=0) - exact_marginal.probs).sum())
        se_tv = _tv_standard_error(occ)
        run.row(r, t, "tv_mean_occupation_vs_mutation_chain", tv, 3.0 * se_tv, "INFO")
        run.row(r, t, "cprime_point_estimate", tv / scale, "", "INFO")
        cps.append((scale, max(tv - 3.0 * se_tv, 0.0) / scale, (tv + 3.0 * se_tv) / scale))
        run.outcome(f"point{pid:02d}_n{n}_r{r:g}.csv", model.states, res)

    factor = cfg.tolerance("cprime_factor", 3.0)
    if len(cps) != len(pairs):
        return
    # per point, the supremum of TV over the time grid lies between the
    # largest lower and the largest upper 3-sigma bound
    per_point = [cps[i : i + len(times)] for i in range(0, len(cps), len(times))]
    sups = [(grp[0][0], max(lo for _, lo, _ in grp), max(hi for _, _, hi in grp)) for grp in per_point]
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
    counts = tuple(cfg.init)
    slopes: list[float] = []
    floors: list[float] = []
    for r in cfg.r_schedule:
        res = run.point(_absorption_chunk, M, r, "", model=model, counts=counts)
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

    if len(slopes) != len(cfg.r_schedule):
        return
    expected = floors[-1] / floors[0]
    achieved = slopes[-1] / slopes[0]
    tol = cfg.tolerance("slope_ratio_rel_tol", 0.20)
    ok = abs(achieved / expected - 1.0) <= tol
    run.row("", "", "tail_slope_ratio_vs_killing_floor_ratio", achieved, tol * expected, _verdict(ok))
    run.report.extras["expected_slope_ratio"] = expected


def _exp_eta_inf(run: _Run) -> None:
    cfg = run.cfg
    model = cfg.validated_model()
    r = cfg.r_schedule[0]
    counts = tuple(cfg.init)
    exact = initial_condensation_law(model, counts)

    res = run.point(_absorption_chunk, cfg.replicas, r, "", model=model, counts=counts)
    if res is None:
        return
    emp = empirical_law(res["site"].tolist(), model.states)
    tv = tv_distance(emp, exact.law)
    tol = cfg.tolerance("tv_tol", 0.02)
    run.row(r, "", "tv_exact_vs_absorbed_site_law", tv, tol, _verdict(tv <= tol))
    run.report.extras["lambda_set"] = list(exact.lambda_set)
    run.report.extras["eta_infinity"] = exact.law.as_dict()
    run.outcome("absorbed_sites.csv", model.states, res)


def _exp_committor_check(run: _Run) -> None:
    cfg = run.cfg
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
            worst = max(worst, err)
            run.row("", "", f"max_abs_err_n{n}_alpha{alpha:g}", err, tol, _verdict(err <= tol))
    run.report.extras["grid_worst_error"] = worst

    if cfg.mc is None:
        return
    n = int(cfg.mc["n"])
    alpha = float(cfg.mc["alpha"])
    counts = tuple(int(c) for c in cfg.mc["counts"])
    M = int(cfg.mc["replicas"])
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
            same = analysis.stable_sites == tuple(cfg.expect["stable_sites"])
            run.row("", "", "stable_sites_match", float(same), "", _verdict(same))
        for entry in cfg.expect.get("rates", ()):
            x, y, want = entry["from"], entry["to"], float(entry["rate"])
            present = x in chain.states and y in chain.states
            got = chain.entry(x, y) if present else None
            run.row("", "", f"rate_{x}_to_{y}", got, 1e-12, _verdict(present and abs(got - want) <= 1e-12))

    if cfg.sim is None:
        return
    n, r = int(cfg.sim["n"]), float(cfg.sim["r"])
    T = float(cfg.sim["T"])
    M = int(cfg.sim["replicas"])
    times = tuple(float(t) for t in cfg.sim.get("time_points", (T,)))
    start_site = str(cfg.sim["init"]["dirac"])  # a stable site, by validate()
    counts = [0] * model.num_states
    counts[model.state_index(start_site)] = n
    tol = 3.0 * _dkw_half_width(M, cfg.delta)
    for t in times:
        res = run.point(_fv_final_chunk, M, r, t, model=model, counts=tuple(counts))
        if res is None:
            continue
        emp = empirical_law(_max_mass_site(res["final"]).tolist(), model.states)
        tv = tv_distance(emp, _lift_law(ctmc_marginal(chain, start_site, t), model.states))
        run.row(r, t, "tv_vs_conjectured_chain", tv, tol, "INFO")
        run.outcome(f"probe_t{t:g}.csv", model.states, res)


_KIND_IMPL = {
    "theorem1_marginal": _exp_theorem1,
    "theorem2_pathwise": _exp_theorem2,
    "theorem3_regime": _exp_theorem3,
    "absorption_tail": _exp_absorption_tail,
    "eta_inf_check": _exp_eta_inf,
    "committor_check": _exp_committor_check,
    "conjecture_probe": _exp_conjecture_probe,
}

EXPERIMENT_KINDS = tuple(_KIND_IMPL)


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
    if not isinstance(config, ExperimentConfig):  # an instance is valid by construction
        config = ExperimentConfig.from_dict(config)
    started = time.perf_counter()
    report = Report(
        name=config.name or config.kind,
        kind=config.kind,
        seed=config.seed,
        config=config.canonical_dict(),
    )
    run = _Run(config, threads, report)
    _KIND_IMPL[config.kind](run)
    report.finalize_hash()
    report.timing.update(wall_seconds=time.perf_counter() - started, threads=threads)
    if out_dir is not None:
        report.write(out_dir, run.outcomes)
    return report
