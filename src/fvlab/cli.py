"""Command-line interface.

Subcommands
-----------
``fvlab validate <model.json>``
    Check a model config document and print a short summary.
``fvlab run <experiment.json> --out <dir> [--threads N] [--seed S]``
    Run an experiment; write ``report.json``, ``summary.csv`` and
    per-replica outcome files.  Exit code 0 iff no verdict is FAIL, 1 if
    one is.
``fvlab committor --n <n> --alpha <a>``
    Print the closed-form two-site committor column (CSV on stdout).
``fvlab limit-chain <model.json> [--n N] [--r R] [--conjecture]``
    Print the condensate chain at fixed n (finite r or the large-r
    limit), or with ``--conjecture`` (and neither ``--n`` nor ``--r``)
    the many-particle limit chain and its cascade analysis (JSON on
    stdout).
``fvlab eta-inf <model.json> --counts k1 k2 ...``
    Print the initial-condensation law as JSON:
    ``{"lambda_set": [...], "eta_infinity": {state: prob}}``.

Every subcommand exits 2 with an ``error:`` message on bad input, a
failed computation (a solver residual, an event cap hit outside an
experiment point) or a size too large for memory, never 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .chains import condensate_rates, conjectured_limit_rates
from .committor import gamblers_ruin_committor
from .condensation import initial_condensation_law
from .experiments import ExperimentConfig, run_experiment
from .model import load_model

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fvlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model config document")
    p.add_argument("model", help="path to model JSON")

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("experiment", help="path to experiment JSON")
    p.add_argument("--out", required=True, help="output directory for report files")
    p.add_argument("--threads", type=int, default=1, help="worker processes, at most one per usable CPU (default 1)")
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")

    p = sub.add_parser("committor", help="closed-form two-site committor table")
    p.add_argument("--n", type=int, required=True, help="particle count (>= 2)")
    p.add_argument("--alpha", type=float, required=True, help="killing-rate ratio (> 0)")

    p = sub.add_parser("limit-chain", help="condensate / limit chain rates")
    p.add_argument("model", help="path to model JSON")
    p.add_argument("--n", type=int, default=None, help="particle count for the fixed-n chain")
    p.add_argument("--r", type=float, default=None, help="killing intensity (omit for the large-r limit)")
    p.add_argument("--conjecture", action="store_true", help="many-particle limit chain instead of fixed n")

    p = sub.add_parser("eta-inf", help="initial condensation law for given counts")
    p.add_argument("model", help="path to model JSON")
    p.add_argument("--counts", type=int, nargs="+", required=True, help="particle counts, one per state")
    return parser


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    print(f"states: {', '.join(model.states)}")
    print(f"mutation entries: {len(model.mutation)}  max exit rate: {model.Q:.17g}")
    print(f"killing: {model.killing.kind}")
    print(f"content hash: {model.content_hash()}")
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json_file(args.experiment)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)  # validated again
    report = run_experiment(config, threads=args.threads, out_dir=args.out)
    for row in report.rows:
        point = " ".join(
            f"{k}={row[k]:g}" if isinstance(row[k], float) else f"{k}={row[k]}"
            for k in ("r", "t")
            if row[k] != ""
        )
        hw = f" (half_width {row['half_width']:.3g})" if isinstance(row["half_width"], float) else ""
        value = f"{row['value']:.6g}" if isinstance(row["value"], float) else row["value"]
        print(f"[{row['verdict']:4s}] {row['statistic']} {point}: value {value}{hw}")
    print(f"events: {report.events_total}  result_hash: {report.result_hash}")
    print(f"report written to {args.out}")
    return 0 if report.all_pass else 1


def _cmd_committor(args) -> int:
    n, alpha = args.n, args.alpha
    g = gamblers_ruin_committor(n, alpha)  # raises ValueError on bad n or alpha
    print("k,psi_first_site")
    for k, v in enumerate(g):
        print(f"{k},{v:.17g}")
    print(f"# hold (n-1 vs 1): {g[n - 1]:.17g}")
    print(f"# invade (1 vs n-1): {g[1]:.17g}")
    return 0


def _cmd_limit_chain(args) -> int:
    if args.conjecture and (args.n is not None or args.r is not None):
        raise ValueError("--n and --r do not apply with --conjecture, whose chain is the n -> infinity limit")
    model = load_model(args.model)
    if args.conjecture:
        analysis, chain = conjectured_limit_rates(model)
        doc = {
            "states": list(chain.states),
            "rates": _rate_entries(chain),
            "cascade": analysis.to_json_dict(),
        }
    else:
        if args.n is None:
            raise ValueError("--n is required unless --conjecture is given")
        chain = condensate_rates(model, args.n, args.r)
        doc = {
            "states": list(chain.states),
            "n": args.n,
            "r": args.r,
            "rates": _rate_entries(chain),
        }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _rate_entries(chain) -> list[dict]:
    entries = []
    for i, x in enumerate(chain.states):
        for j, y in enumerate(chain.states):
            if i != j and chain.rates[i, j] != 0.0:
                entries.append({"from": x, "to": y, "rate": float(chain.rates[i, j])})
    return entries


def _cmd_eta_inf(args) -> int:
    model = load_model(args.model)
    law = initial_condensation_law(model, args.counts)
    json.dump(law.to_json_dict(), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "committor": _cmd_committor,
    "limit-chain": _cmd_limit_chain,
    "eta-inf": _cmd_eta_inf,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError, MemoryError) as err:
        # bad input (ModelError, ConfigError, malformed JSON are ValueErrors),
        # unreadable files, solver or engine failures (EventCapError is a
        # RuntimeError) and sizes past memory (a committor column at n = 1e11):
        # exit 2, so that 1 only ever means a verdict FAILed
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
