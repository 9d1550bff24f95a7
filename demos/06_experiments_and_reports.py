"""
Experiments: verdicts, reports, and reproducibility
===================================================

An experiment is a JSON-style config naming a check (one of the built-in
kinds), a model, a schedule of intensities, and replica counts.  The
runner executes every replica on its own derived RNG stream, compares
statistics against declared tolerances, and emits a report whose hash
is independent of how many worker processes were used.
"""

import json
import tempfile
from pathlib import Path

from fvlab import EXPERIMENT_KINDS, ExperimentConfig, run_experiment

print("available experiment kinds:", ", ".join(EXPERIMENT_KINDS))

# The flagship check: does the law of the mostly-occupied site track the
# condensate chain, and does the agreement improve with r?
config = ExperimentConfig.from_dict(
    {
        "kind": "theorem1_marginal",
        "name": "cycle-demo",
        "model": {
            "states": ["a", "b", "c"],
            "mutation": [
                {"from": "a", "to": "b", "rate": 1.0},
                {"from": "b", "to": "c", "rate": 1.0},
                {"from": "c", "to": "a", "rate": 1.0},
            ],
            "killing": {
                "kind": "power",
                "c": {"a": 1.0, "b": 2.0, "c": 4.0},
                "beta": {"a": "1", "b": "1", "c": "1"},
            },
        },
        "seed": 11,
        "n": 3,
        "r_schedule": [10.0, 100.0],
        "T": 0.5,
        "time_points": [0.25, 0.5],
        "replicas": 1000,
        "init": {"dirac": "a"},
    }
)

out_dir = Path(tempfile.mkdtemp(prefix="fvlab-demo-"))
report = run_experiment(config, out_dir=out_dir)
print(f"\nreport rows (events simulated: {report.events_total}):")
for row in report.rows:
    point = f"r={row['r']}" + (f" t={row['t']}" if row["t"] != "" else "")
    print(f"  [{row['verdict']:4s}] {row['statistic']:28s} {point:18s} value={row['value']}")
print("all verdicts pass:", report.all_pass)

# Everything lands on disk: the full report, a flat CSV of the rows, and
# per-point outcome tables from which each statistic can be recomputed.
print("\nfiles written:", sorted(p.name for p in out_dir.iterdir()))
print("outcome tables:", sorted(p.name for p in (out_dir / "outcomes").iterdir()))

# Reproducibility contract: the hash covers config, seed, rows, and the
# outcome digests -- and a replica's row does not depend on which replicas
# share its worker, so a process pool cannot change any result.
again = run_experiment(config, threads=4)
print("\nresult hash, sequential:", report.result_hash[:32], "...")
print("result hash, 4 workers:  ", again.result_hash[:32], "...")
print("identical:", report.result_hash == again.result_hash)

# Same config, different seed: different draws, different hash -- the
# provenance is in the report itself.
doc = config.canonical_dict()
doc["seed"] = 12
reseeded = run_experiment(ExperimentConfig.from_dict(doc))
print("reseeded hash differs:", reseeded.result_hash != report.result_hash)
print("\nreport.json header:")
head = json.loads((out_dir / "report.json").read_text())
print(json.dumps({k: head[k] for k in ("name", "kind", "seed", "result_hash")}, indent=2))
