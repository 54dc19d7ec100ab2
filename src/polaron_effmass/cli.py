"""Command-line entry point.

    polaron-effmass <subcommand> --config <path> [--out DIR] [--seed S]

Subcommands: dispersion, staticmass, sandwich, oracle-check, converge,
validate, docs-tables.  `--config` accepts a file path or a shipped preset
name (free, toy, small, powerlaw_g01, powerlaw_g03, oracle).

Exit codes: 0 all verdicts pass; 1 a verdict failed (or docs drifted);
2 configuration/validation error, including a truncation over the size
budget; 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import load_config, validate_config
from .errors import (CapacityError, ConfigError, DomainError, PolaronError,
                     SolverError)

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polaron-effmass",
        description=("Numerical laboratory for the dynamic/static "
                     "effective-mass identity in truncated particle-field "
                     "models."),
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True,
                        help="config file path or preset name")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    for name, blurb in (
        ("dispersion", "scan E(P), fit the dynamic mass, emit certificates"),
        ("staticmass", "coupled e(lambda) solves, bounds and extrapolation"),
        ("sandwich", "full two-sided check: L2 <= L1 <= e <= U*"),
        ("oracle-check", "frame-equivalence and solver cross-checks"),
        ("converge", "re-run headline numbers at perturbed truncations"),
    ):
        add_common(sub.add_parser(name, help=blurb))

    v = sub.add_parser("validate", help="schema + physics-range diagnostics")
    v.add_argument("--config", required=True)

    d = sub.add_parser("docs-tables",
                       help="regenerate or check the reference tables")
    d.add_argument("--docs-dir", default="docs")
    d.add_argument("--write", action="store_true",
                   help="rewrite the tables instead of checking for drift")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "validate":
            notes = validate_config(args.config)
            worst = 0
            for severity, message in notes:
                print(f"{severity}: {message}")
            if any(severity == "error" for severity, _ in notes):
                worst = 2
            print("validation " + ("FAILED" if worst else "OK"))
            return worst

        if args.subcommand == "docs-tables":
            from .docsgen import generate_reference_tables
            # check mode raises DocsDriftError naming the drifted table
            generate_reference_tables(args.docs_dir, write=args.write)
            print(f"reference tables {'written' if args.write else 'in sync'}"
                  f" under {args.docs_dir}")
            return 0

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=int(args.seed))
        from .pipeline import run
        passed = run(args.subcommand, cfg, out_dir=args.out)
        out = args.out or cfg.out_dir
        print(f"{args.subcommand}: {'PASS' if passed else 'FAIL'} "
              f"(report in {os.path.join(out, 'report.json')})")
        return 0 if passed else 1

    except (ConfigError, DomainError, CapacityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except PolaronError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
