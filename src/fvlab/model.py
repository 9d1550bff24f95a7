"""State space, mutation kernel, and parametric killing-rate families.

A model couples a finite set of sites, a conservative mutation kernel
``q(x, y)`` and a family of killing rates ``lambda_r(x)`` indexed by an
intensity parameter ``r >= 1``.  Two parametric families are supported:

* power law: ``lambda_r(x) = c(x) * r**beta(x)`` with ``c(x) > 0`` and
  ``beta(x) > 0``.  The large-``r`` ratio ``lambda_r(y)/lambda_r(x)`` then
  converges to ``0``, ``c(y)/c(x)`` or ``inf`` according to the exponent
  comparison, which realizes every possible limit class.
* uniform plus bounded offset: ``lambda_r(x) = r + m(x)`` with
  ``m(x) >= 0``; all large-``r`` ratios equal 1.

Exponents are stored as exact rationals so the limit trichotomy is decided
by exact comparison, never by floating-point noise.  Rate ratios are
plain floats in [0, inf]: ``0.0``, a positive finite value or
``math.inf``, which float comparison already orders.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

__all__ = [
    "ModelError",
    "Model",
    "validate_model",
    "load_model",
]


class ModelError(ValueError):
    """Raised when a model configuration violates a structural constraint."""


def _integral(v) -> bool:
    """A Python or numpy integer (a bool is not one)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _integers(values: Sequence[int], what: str) -> list[int]:
    """``values``, Python or numpy integers (not floats, bools or strings),
    as a list of ints; else :class:`ValueError` naming ``what``."""
    values = list(values)
    if not all(map(_integral, values)):
        raise ValueError(f"{what} must be integers, got {values}")
    return [int(v) for v in values]


def _site_index(site, states: Sequence[str]) -> int:
    """``site``, a label in ``states`` or an index into them (a Python or
    numpy integer, not a bool), as its index; else :class:`ValueError`."""
    if isinstance(site, str):
        if site not in states:
            raise ValueError(f"unknown state {site!r}, not one of {list(states)}")
        return states.index(site)
    if not _integral(site) or not 0 <= site < len(states):
        raise ValueError(f"site index must be an integer in [0, {len(states)}), got {site!r}")
    return int(site)


_TINY = sys.float_info.min  # the smallest normal double: the floor of a positive rate or c
_TOTAL_MAX = sys.float_info.max / 2  # the event loop's totals stay below it, with room for rounding


def _check_intensity(r: float) -> None:
    if not 1 <= r < math.inf:  # also false for NaN
        raise ModelError(f"intensity r must be finite and >= 1, got {r}")


def _as_fraction(value) -> Fraction:
    # Accept ints, exact decimal floats and strings like "3/2" or "0.5".
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):  # "abc", "nan", "1/0"
            pass
    raise ModelError(f"exponent must be a finite rational, got {value!r}")


@dataclass(frozen=True)
class PowerLawKilling:
    """Killing rates ``c(x) * r**beta(x)`` per site index."""

    c: tuple[float, ...]
    beta: tuple[Fraction, ...]

    kind = "power"

    def rate(self, r: float, i: int) -> float:
        return self.c[i] * r ** float(self.beta[i])

    def limit_ratio(self, i: int, j: int) -> float:
        """Large-r limit of rate(r, j) / rate(r, i), in [0, inf]."""
        if self.beta[j] > self.beta[i]:
            return math.inf
        if self.beta[j] < self.beta[i]:
            return 0.0
        return self.c[j] / self.c[i]

    def config_dict(self, states: Sequence[str]) -> dict:
        return {
            "kind": "power",
            "c": {s: v for s, v in zip(states, self.c)},
            "beta": {s: str(b) for s, b in zip(states, self.beta)},
        }


@dataclass(frozen=True)
class UniformPlusBoundedKilling:
    """Killing rates ``r + m(x)`` per site index."""

    m: tuple[float, ...]

    kind = "uniform_plus"

    def rate(self, r: float, i: int) -> float:
        return r + self.m[i]

    def limit_ratio(self, i: int, j: int) -> float:
        return 1.0

    @property
    def m_sup(self) -> float:
        """Largest pairwise rate gap sup_{x,y} |rate(r,x) - rate(r,y)| = max(m) - min(m)."""
        return max(self.m) - min(self.m)

    def config_dict(self, states: Sequence[str]) -> dict:
        return {"kind": "uniform_plus", "m": {s: v for s, v in zip(states, self.m)}}


KillingFamily = Union[PowerLawKilling, UniformPlusBoundedKilling]


@dataclass(frozen=True, eq=False)
class Model:
    """Validated, immutable model: sites, mutation kernel, killing family.

    Attributes
    ----------
    states : tuple of str
        Site labels in declaration order; internal arrays are indexed by
        position in this tuple.
    mutation : tuple of (int, int, float)
        Sparse mutation entries (source index, target index, rate), each
        rate positive, no self loops.
    killing : KillingFamily
    Q : float
        ``max_x sum_y q(x, y)``, the uniform bound on mutation exit rates.
    """

    states: tuple[str, ...]
    mutation: tuple[tuple[int, int, float], ...]
    killing: KillingFamily
    Q: float
    out_targets: tuple[tuple[int, ...], ...] = field(repr=False)
    out_rates: tuple[tuple[float, ...], ...] = field(repr=False)
    exit_rate: tuple[float, ...] = field(repr=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def state_index(self, x: Union[str, int]) -> int:
        """A site, by label or by index, as its index; else :class:`ModelError`."""
        try:
            return _site_index(x, self.states)
        except ValueError as err:
            raise ModelError(str(err)) from None

    def mutation_rate(self, x: Union[str, int], y: Union[str, int]) -> float:
        i, j = self.state_index(x), self.state_index(y)
        for t, rate in zip(self.out_targets[i], self.out_rates[i]):
            if t == j:
                return rate
        return 0.0

    def killing_rate(self, r: float, x: Union[str, int]) -> float:
        """Evaluate lambda_r(x) at ``float(r)``; requires a finite r >= 1 at
        which the rate is finite, else raises :class:`ModelError`."""
        _check_intensity(r)
        i = self.state_index(x)
        try:
            rate = self.killing.rate(float(r), i)
        except OverflowError:  # a float power out of range raises; a product out of range gives inf
            rate = math.inf
        if not rate < math.inf:
            raise ModelError(f"killing rate at {self.states[i]!r} overflows at r={r}")
        return rate

    def min_killing_rate(self, r: float) -> float:
        """The uniform floor min_x lambda_r(x); raises :class:`ModelError`
        where a rate overflows."""
        return min(self.killing_rate(r, i) for i in range(self.num_states))

    def alpha(self, x: Union[str, int], y: Union[str, int], r: float | None = None) -> float:
        """Rate ratio lambda_r(y)/lambda_r(x) in [0, inf]; ``r=None`` gives the large-r limit."""
        i, j = self.state_index(x), self.state_index(y)
        if i == j:
            return 1.0
        if r is None:
            return self.killing.limit_ratio(i, j)
        return self.killing_rate(r, j) / self.killing_rate(r, i)

    def config_dict(self) -> dict:
        """Canonical JSON-ready form (mutation entries sorted)."""
        entries = [
            {"from": self.states[i], "to": self.states[j], "rate": rate}
            for i, j, rate in self.mutation
        ]
        entries.sort(key=lambda e: (e["from"], e["to"]))
        return {
            "states": list(self.states),
            "mutation": entries,
            "killing": self.killing.config_dict(self.states),
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.config_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @functools.cached_property
    def without_mutation(self) -> "Model":
        """The model with the same sites and killing and no mutation (q = 0),
        whose dynamics are selection alone; ``self`` if it has no mutation."""
        if not self.mutation:
            return self
        return validate_model(dict(self.config_dict(), mutation=[]))


def _killing_rates(model: Model, r: float, n: int) -> list[float]:
    """The killing rates at r, one per site, for the event loop on n
    particles; :class:`ModelError` where a rate overflows, or where ``n *
    Q + n * n * max(rate)``, which bounds every total the loop forms,
    exceeds half the largest double (room for the sums' rounding)."""
    lam = [model.killing_rate(r, i) for i in range(model.num_states)]
    if n > _TOTAL_MAX or not n * (model.Q + n * max(lam)) <= _TOTAL_MAX:
        raise ModelError(
            f"event rates overflow: n * Q + n * n * max killing rate exceeds {_TOTAL_MAX:.6g} at n={n}, r={r}"
        )
    return lam


def _is_int(v, low: int) -> bool:
    """An integer >= ``low`` (a bool is not one)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _is_real(v) -> bool:
    """A number that a float holds finitely; a bool is not one, nor is a
    numeric string.  ``abs(v) <= max`` compares an int exactly, where
    ``math.isfinite`` would raise OverflowError on a very large one."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number(value, what: str) -> float:
    if not _is_real(value):
        raise ModelError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _only(block, keys, what: str) -> None:
    """Reject a ``block`` that is not a mapping or holds a key outside ``keys``."""
    if not isinstance(block, Mapping):
        raise ModelError(f"{what} must be a mapping, got {block!r}")
    extra = set(block) - set(keys)
    if extra:
        raise ModelError(f"unknown {what} keys {sorted(extra, key=str)}; allowed: {list(keys)}")


def validate_model(config: Mapping) -> Model:
    """Build a validated :class:`Model` from a configuration mapping.

    The expected document shape is::

        {"states": [...],
         "mutation": [{"from": ..., "to": ..., "rate": ...}, ...],
         "killing": {"kind": "power", "c": {...}, "beta": {...}}
                  | {"kind": "uniform_plus", "m": {...}}}

    Raises
    ------
    ModelError
        On a key outside this shape (a killing map may name states
        only), states that are not distinct strings, a mutation that is
        not a list, a rate, ``c`` or ``m`` that is not a finite number
        (bools and strings are not), negative or self-loop mutation
        rates, non-positive power-law parameters, negative offsets, a
        positive rate or ``c`` below the smallest normal double (so every
        rate the event loop forms is normal), or an exit rate that overflows.
    """
    _only(config, ("states", "mutation", "killing"), "model")
    if "states" not in config:
        raise ModelError("config must list states")
    states = config["states"]
    if not isinstance(states, (list, tuple)) or not all(isinstance(s, str) for s in states):
        raise ModelError(f"states must be a list of strings, got {states!r}")
    states = tuple(states)
    if len(states) == 0:
        raise ModelError("states must be nonempty")
    if len(set(states)) != len(states):
        raise ModelError("duplicate state identifiers")
    index = {s: i for i, s in enumerate(states)}

    mutation = config.get("mutation", ())
    if not isinstance(mutation, (list, tuple)):
        raise ModelError(f"mutation must be a list of entries, got {mutation!r}")
    seen: set[tuple[int, int]] = set()
    entries: list[tuple[int, int, float]] = []
    for entry in mutation:
        _only(entry, ("from", "to", "rate"), "mutation entry")
        for key in ("from", "to", "rate"):
            if key not in entry:
                raise ModelError(f"mutation entry missing {key!r}: {entry!r}")
        fx, ty = entry["from"], entry["to"]
        for label in (fx, ty):
            if not isinstance(label, str) or label not in index:
                raise ModelError(f"unknown state in mutation entry: {label!r}")
        rate = _number(entry["rate"], f"rate q({fx},{ty})")
        if rate < 0:
            raise ModelError(f"negative rate q({fx},{ty}) = {rate}")
        if 0 < rate < _TINY:
            raise ModelError(f"rate q({fx},{ty}) = {rate} is below the smallest normal double {_TINY}")
        i, j = index[fx], index[ty]
        if i == j:
            raise ModelError(f"self-loop mutation entry at {fx!r}")
        if (i, j) in seen:
            raise ModelError(f"duplicate mutation entry ({fx},{ty})")
        seen.add((i, j))
        if rate > 0:  # zero entries are legal input but carry no dynamics
            entries.append((i, j, rate))
    entries.sort()

    killing_cfg = config.get("killing")
    if not isinstance(killing_cfg, Mapping) or "kind" not in killing_cfg:
        raise ModelError("config must declare a killing family with a 'kind'")
    kind = killing_cfg["kind"]
    maps = {"power": ("c", "beta"), "uniform_plus": ("m",)}.get(str(kind))
    if maps is None:
        raise ModelError(f"unknown killing kind {kind!r}")
    _only(killing_cfg, ("kind", *maps), f"{kind} killing")
    for name in maps:
        _only(killing_cfg.get(name, {}), states, f"{kind} killing {name!r}")
    if kind == "power":
        c_map, beta_map = killing_cfg.get("c", {}), killing_cfg.get("beta", {})
        c, beta = [], []
        for s in states:
            if s not in c_map or s not in beta_map:
                raise ModelError(f"power-law killing missing parameters for state {s!r}")
            cv = _number(c_map[s], f"c({s})")
            if cv <= 0:
                raise ModelError(f"c({s}) must be positive, got {cv}")
            if cv < _TINY:
                raise ModelError(f"c({s}) = {cv} is below the smallest normal double {_TINY}")
            bv = _as_fraction(beta_map[s])
            if bv <= 0:
                raise ModelError(f"beta({s}) must be positive, got {beta_map[s]!r}")
            c.append(cv)
            beta.append(bv)
        killing: KillingFamily = PowerLawKilling(tuple(c), tuple(beta))
    else:
        m_map = killing_cfg.get("m", {})
        m = []
        for s in states:
            if s not in m_map:
                raise ModelError(f"uniform_plus killing missing offset for state {s!r}")
            mv = _number(m_map[s], f"m({s})")
            if mv < 0:
                raise ModelError(f"m({s}) must be nonnegative, got {mv}")
            m.append(mv)
        killing = UniformPlusBoundedKilling(tuple(m))

    out_targets: list[tuple[int, ...]] = []
    out_rates: list[tuple[float, ...]] = []
    exit_rate: list[float] = []
    for i in range(len(states)):
        row = [(j, rate) for (src, j, rate) in entries if src == i]
        out_targets.append(tuple(j for j, _ in row))
        out_rates.append(tuple(rate for _, rate in row))
        try:
            exit_rate.append(math.fsum(rate for _, rate in row))
        except OverflowError:
            raise ModelError(f"mutation exit rate at {states[i]!r} overflows") from None
    Q = max(exit_rate) if exit_rate else 0.0

    return Model(
        states=states,
        mutation=tuple(entries),
        killing=killing,
        Q=Q,
        out_targets=tuple(out_targets),
        out_rates=tuple(out_rates),
        exit_rate=tuple(exit_rate),
    )


def load_model(path) -> Model:
    """Read and validate a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_model(json.load(fh))
