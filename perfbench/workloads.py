"""The benchmark's workloads: generated inputs, timed calls, output checks.

Each workload puts most of its time on a different layer:

``replica_bound``
    theorem1_marginal on the 3-site power-law cycle (acceptance
    criterion 3's model) through ``run_experiment(threads=2)``.  About
    4.5 events per replica, so per-replica set-up (RNG derivation,
    killing rates, measures), chunk pickling, the per-point process pool
    and outcome CSVs dominate.  The only workload that uses the pool.
``duel_bound``
    theorem3_regime on the uniform-plus cycle at criterion 5's points,
    one worker.  Nearly all time is the event loop inside two-site duels.
``pathwise_record``
    theorem2_pathwise at n=10: the only workload that records events
    (``record=True``), builds occupancy paths and samples the condensate
    chain with ``simulate_ctmc``.
``exact_solve``
    No simulation: committor solves, initial-condensation laws (both urn
    branches), condensate-chain marginals and the cascade construction.

Simulation workloads take the workload seed as the experiment's master
seed.  ``exact_solve`` has no random input: it runs a fixed list of
calls in a fixed order whatever the seed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

SIM_WORKLOADS = ("replica_bound", "duel_bound", "pathwise_record")
WORKLOADS = SIM_WORKLOADS + ("exact_solve",)

# Replicas per point; sized so one call takes a few seconds on a 2-core
# machine, leaving room for several fresh-process repetitions per run.
REPLICA_BOUND_REPLICAS = 6_000
DUEL_BOUND_REPLICAS = 256
PATHWISE_REPLICAS = 2_048

THREADS = {"replica_bound": 2, "duel_bound": 1, "pathwise_record": 1, "exact_solve": 1}


def _cycle(states, rate=1.0):
    return [
        {"from": a, "to": b, "rate": rate}
        for a, b in zip(states, states[1:] + states[:1])
    ]


def power_cycle() -> dict:
    """Acceptance criterion 3's model: 3-site cycle, lambda = c r."""
    return {
        "states": ["a", "b", "c"],
        "mutation": _cycle(["a", "b", "c"]),
        "killing": {"kind": "power", "c": {"a": 1.0, "b": 2.0, "c": 4.0},
                    "beta": {"a": "1", "b": "1", "c": "1"}},
    }


def uplus_cycle() -> dict:
    """Acceptance criterion 5's model: 3-site cycle, lambda = r + m."""
    return {
        "states": ["a", "b", "c"],
        "mutation": _cycle(["a", "b", "c"]),
        "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0, "c": 2.0}},
    }


def sim_config(workload: str, seed: int) -> dict:
    """Experiment document for a simulation workload."""
    if workload == "replica_bound":
        return {
            "kind": "theorem1_marginal", "name": workload, "model": power_cycle(),
            "seed": seed, "n": 3, "r_schedule": [10.0, 100.0, 1000.0], "T": 1.0,
            "time_points": [0.25, 0.5, 1.0], "replicas": REPLICA_BOUND_REPLICAS,
            "init": {"dirac": "a"},
        }
    if workload == "duel_bound":
        return {
            "kind": "theorem3_regime", "name": workload, "model": uplus_cycle(),
            "seed": seed, "T": 1.0, "time_points": [1.0],
            "replicas": DUEL_BOUND_REPLICAS, "init": {"dirac": "a"},
            "points": [{"n": 10, "r": 1.0e3}, {"n": 32, "r": 1.0e4}, {"n": 100, "r": 1.0e5}],
            "tolerances": {"cprime_factor": 3.0},
        }
    if workload == "pathwise_record":
        return {
            "kind": "theorem2_pathwise", "name": workload, "model": power_cycle(),
            "seed": seed, "n": 10, "r_schedule": [10.0, 1000.0], "T": 1.0,
            "replicas": PATHWISE_REPLICAS, "init": {"dirac": "a"},
        }
    raise ValueError(f"not a simulation workload: {workload!r}")


def sim_points(doc: dict) -> list[tuple[float, float]]:
    """The (r, t) points the experiment runs; each is one operation."""
    if doc["kind"] == "theorem1_marginal":
        return [(r, t) for r in doc["r_schedule"] for t in doc["time_points"]]
    if doc["kind"] == "theorem2_pathwise":
        return [(r, doc["T"]) for r in doc["r_schedule"]]
    return [(float(p["r"]), doc["time_points"][-1]) for p in doc["points"]]


def sim_operations(doc: dict, rows: list[dict] | None, error: str | None) -> list[dict]:
    """Score each point, plus the cross-point verdicts, as one operation.

    A point fails if the run raised, if it has no rows (never ran), or
    if any of its rows is a FAIL verdict (gated statistic or event-cap
    abort).  The ``summary`` operation carries the verdicts that span
    several points.
    """
    ops = []
    for r, t in sim_points(doc):
        if error is not None:
            ops.append({"op": f"r{r:g}_t{t:g}", "ok": False, "why": error})
            continue
        mine = [row for row in rows if row["r"] == r and row["t"] == t]
        bad = [row["statistic"] for row in mine if row["verdict"] == "FAIL"]
        ok = bool(mine) and not bad
        ops.append({"op": f"r{r:g}_t{t:g}", "ok": ok,
                    "why": "" if ok else (f"FAIL: {bad}" if bad else "no rows")})
    if error is not None:
        ops.append({"op": "summary", "ok": False, "why": error})
    else:
        summary = [row for row in rows if row["r"] == "" or row["t"] == ""]
        bad = [row["statistic"] for row in summary if row["verdict"] == "FAIL"]
        ok = bool(summary) and not bad
        ops.append({"op": "summary", "ok": ok,
                    "why": "" if ok else (f"FAIL: {bad}" if bad else "no summary rows")})
    return ops


# ------------------------------------------------------------- exact mix

def mixed_order_model() -> dict:
    """4 sites, h of higher killing order: the urn relocates h's particles."""
    return {
        "states": ["a", "b", "h", "c"],
        "mutation": [],
        "killing": {"kind": "power", "c": {"a": 1.0, "b": 2.0, "h": 1.0, "c": 3.0},
                    "beta": {"a": "1", "b": "1", "h": "2", "c": "1"}},
    }


def criterion7_model() -> dict:
    return {
        "states": ["a", "b", "c"],
        "mutation": [],
        "killing": {"kind": "power", "c": {"a": 1.0, "b": 2.0, "c": 1.0},
                    "beta": {"a": "1", "b": "1", "c": "2"}},
    }


CYCLE8 = [f"s{i}" for i in range(8)]
CYCLE8_N, CYCLE8_R = 100, 100.0
CYCLE8_T = 7_500.0  # mu = 1.01 * max rate * T, about 5e4 uniformization steps


def cycle8_model() -> dict:
    return {
        "states": CYCLE8,
        "mutation": _cycle(CYCLE8),
        "killing": {"kind": "uniform_plus", "m": {s: float(i) for i, s in enumerate(CYCLE8)}},
    }


def branching_model() -> dict:
    """8 sites whose cascade from z branches twice before reaching v1..v3."""
    edges = [
        ("x", "y", 1.0), ("x", "z", 2.0), ("y", "x", 1.0),
        ("z", "w1", 1.0), ("z", "w2", 3.0),
        ("w1", "v1", 1.0), ("w1", "v2", 1.0), ("w2", "v2", 1.0), ("w2", "v3", 2.0),
        ("v1", "v2", 1.0), ("v2", "v3", 1.0), ("v3", "v1", 1.0), ("v3", "x", 0.5),
    ]
    beta = {"x": "1", "y": "1", "z": "1", "w1": "1/2", "w2": "1/2",
            "v1": "1/4", "v2": "1/4", "v3": "1/4"}
    return {
        "states": list(beta),
        "mutation": [{"from": a, "to": b, "rate": q} for a, b, q in edges],
        "killing": {"kind": "power", "c": {s: 1.0 for s in beta}, "beta": beta},
    }


# Hand-derived: z relays to w1 (1/4) and w2 (3/4); w1 splits 1/2-1/2 over
# v1, v2 and w2 splits 1/3-2/3 over v2, v3; x reaches z at rate 2.
BRANCHING_RATES = {
    ("x", "y"): 1.0, ("x", "v1"): 0.25, ("x", "v2"): 0.75, ("x", "v3"): 1.0,
    ("y", "x"): 1.0, ("v1", "v2"): 1.0, ("v2", "v3"): 1.0, ("v3", "v1"): 1.0,
}

RAW_R = (10.0, 1.0e3, 1.0e5)


def exact_models(fv) -> dict:
    """Validated models of the exact mix (part of set-up)."""
    return {
        "mixed": fv.validate_model(mixed_order_model()),
        "crit7": fv.validate_model(criterion7_model()),
        "cycle8": fv.validate_model(cycle8_model()),
        "branch": fv.validate_model(branching_model()),
    }


def exact_calls(fv, models: dict) -> list[tuple[str, object]]:
    """The exact mix as (name, thunk) pairs, in the order they run."""
    calls = [
        ("committor_d3_n200", lambda: fv.committor_numeric([1.0, 2.0, 4.0], 200)),
        ("committor_d4_n30", lambda: fv.committor_numeric([1.0, 2.0, 4.0, 8.0], 30)),
    ]
    for r in RAW_R:
        # the raw killing rates _chain_start passes for criterion 3's model
        calls.append((f"committor_raw_r{r:g}",
                      lambda r=r: fv.committor_numeric([r, 2.0 * r, 4.0 * r], 100)))
    for name, counts in (("icl_mixed_20_20_100_20", [20, 20, 100, 20]),
                         ("icl_mixed_3_3_50_4", [3, 3, 50, 4])):
        calls.append((name, lambda c=counts: fv.initial_condensation_law(models["mixed"], c)))
    calls.append(("icl_criterion7", lambda: fv.initial_condensation_law(models["crit7"], [1, 2, 1])))

    def cycle8_marginal():
        chain = fv.condensate_rates(models["cycle8"], CYCLE8_N, CYCLE8_R)
        return chain, fv.ctmc_marginal(chain, CYCLE8[0], CYCLE8_T)

    calls.append(("cycle8_marginal", cycle8_marginal))
    calls.append(("cascade_branching", lambda: fv.conjectured_limit_rates(models["branch"])))
    return calls


def _committor_errors(table, n: int) -> list[str]:
    psi = table.psi
    errs = []
    if abs(psi.sum(axis=1) - 1.0).max() > 1e-9:
        errs.append("rows do not sum to 1")
    if psi.min() < -1e-9 or psi.max() > 1.0 + 1e-9:
        errs.append("values outside [0, 1]")
    # the face without the last site is a gambler's ruin with ratio w1/w0
    w0, w1 = table.weights[0], table.weights[1]
    alpha = w1 / w0
    if abs(alpha - 1.0) > 1e-12:
        worst = 0.0
        rest = [0] * (len(table.weights) - 2)
        for k in range(n + 1):
            q = alpha ** -k
            g = (q - 1.0) / (alpha ** -n - 1.0)
            worst = max(worst, abs(table.value([k, n - k] + rest, 0) - g))
        if worst > 1e-9:
            errs.append(f"two-site face off the closed form by {worst:.3g}")
    return errs


def _urn_errors(law, counts) -> list[str]:
    errs = []
    if abs(float(law.law.probs.sum()) - 1.0) > 1e-12:
        errs.append("law does not sum to 1")
    if law.law.prob("h") != 0.0:
        errs.append("higher-order site has mass")
    urn = law.urn
    inside = [counts[i] for i in (0, 1, 3)]
    draws, total = counts[2], sum(inside)
    if abs(math.fsum(urn.outcomes.values()) - 1.0) > 1e-12:
        errs.append("urn law does not sum to 1")
    if len(urn.outcomes) != comb(draws + 2, 2):
        errs.append("urn outcome count is not C(m+2, 2)")
    # Polya urn mean: a_i + m a_i / A
    for i, a in enumerate(inside):
        mean = math.fsum(p * out[i] for out, p in urn.outcomes.items())
        if abs(mean - (a + draws * a / total)) > 1e-9 * draws:
            errs.append(f"urn mean of colour {i} is {mean}")
    return errs


def _cycle8_errors(result) -> list[str]:
    chain, marginal = result
    m = [float(i) for i in range(8)]
    rates = []
    for i in range(8):
        alpha = (CYCLE8_R + m[(i + 1) % 8]) / (CYCLE8_R + m[i])
        rates.append(CYCLE8_N * (alpha - 1.0) / (alpha ** CYCLE8_N - 1.0))
    errs = []
    for i, want in enumerate(rates):
        got = chain.entry(i, (i + 1) % 8)
        if abs(got - want) > 1e-12 * want:
            errs.append(f"edge {i} rate {got} != closed form {want}")
    # a one-way cycle is stationary at pi_i proportional to 1 / rate_i
    inv = [1.0 / a for a in rates]
    pi = [v / math.fsum(inv) for v in inv]
    worst = max(abs(p - q) for p, q in zip(marginal.probs, pi))
    if worst > 1e-9:
        errs.append(f"marginal off the stationary law by {worst:.3g}")
    return errs


def _cascade_errors(result) -> list[str]:
    analysis, chain = result
    errs = []
    for z, law in analysis.absorption_weights.items():
        if abs(math.fsum(law.values()) - 1.0) > 1e-12:
            errs.append(f"cascade law of {z} does not sum to 1")
    for i, x in enumerate(chain.states):
        for j, y in enumerate(chain.states):
            want = BRANCHING_RATES.get((x, y), 0.0)
            if abs(chain.rates[i, j] - want) > 1e-12:
                errs.append(f"rate {x}->{y} is {chain.rates[i, j]}, expected {want}")
    return errs


def exact_errors(results: dict) -> dict[str, list[str]]:
    """Output checks of the exact mix; ``results`` maps call name to result."""
    errs: dict[str, list[str]] = {}
    for name in ("committor_d3_n200", "committor_d4_n30"):
        if results[name] is not None:
            errs[name] = _committor_errors(results[name], results[name].n)
    ref = None
    for r in RAW_R:
        name = f"committor_raw_r{r:g}"
        table = results[name]
        if table is None:
            continue
        errs[name] = _committor_errors(table, table.n)
        # only weight ratios matter: every raw table equals the first one
        if ref is None:
            ref = table
        elif abs(table.psi - ref.psi).max() > 1e-9:
            errs[name].append("table changes under rescaling the weights")
    for name, counts in (("icl_mixed_20_20_100_20", [20, 20, 100, 20]),
                         ("icl_mixed_3_3_50_4", [3, 3, 50, 4])):
        if results[name] is not None:
            errs[name] = _urn_errors(results[name], counts)
    if results["icl_criterion7"] is not None:
        law = results["icl_criterion7"].law
        want = (Fraction(28, 45), Fraction(17, 45), Fraction(0))
        worst = max(abs(p - float(w)) for p, w in zip(law.probs, want))
        errs["icl_criterion7"] = [] if worst <= 1e-12 else [f"law off (28/45, 17/45, 0) by {worst:.3g}"]
    if results["cycle8_marginal"] is not None:
        errs["cycle8_marginal"] = _cycle8_errors(results["cycle8_marginal"])
    if results["cascade_branching"] is not None:
        errs["cascade_branching"] = _cascade_errors(results["cascade_branching"])
    return errs


# ---------------------------------------------------- engine regime table

# A half fraction of the 2^4 grid d x n x r x family: every level of each
# factor appears four times and every pair of levels twice.
# r is written as in the metric names; float() reads it.
REGIME_CELLS = (
    (3, 3, "10", "uplus"), (3, 3, "1e5", "power"),
    (3, 100, "10", "power"), (3, 100, "1e5", "uplus"),
    (8, 3, "10", "power"), (8, 3, "1e5", "uplus"),
    (8, 100, "10", "uplus"), (8, 100, "1e5", "power"),
)
REGIME_REPLICAS = {3: 2_000, 100: 12}


def regime_name(d: int, n: int, r: str, family: str) -> str:
    return f"d{d}-n{n}-r{r}-{family}"


def regime_model(d: int, family: str) -> dict:
    states = [f"s{i}" for i in range(d)]
    if family == "power":
        killing = {"kind": "power", "c": {s: 1.0 + i for i, s in enumerate(states)},
                   "beta": {s: "1" for s in states}}
    else:
        killing = {"kind": "uniform_plus", "m": {s: float(i) for i, s in enumerate(states)}}
    return {"states": states, "mutation": _cycle(states), "killing": killing}
