#!/usr/bin/env python3
"""Run every audit subcommand against a common config and summarize.

Usage:
    python3 scripts/run_all_audits.py [--out-dir OUT] [--seed N] [--theta a b c]

Writes one report per subcommand into OUT (default ./audit-out) and prints
a one-line verdict per subcommand.  Exit status is the worst exit code seen.
"""

import argparse
import json
import os
import sys
import tempfile

from ahrenvol import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="audit-out")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--theta", type=float, nargs=3, default=[0.0, 0.0, 0.0],
                        help="radial profile coefficients (all zero = hyperbolic ball)")
    args = parser.parse_args()

    config = {
        "family": "radial",
        "seed": args.seed,
        "profile": {"theta": list(args.theta)},
        "flow": {"theta0": [0.05, 0.05, 0.05], "steps": 200, "eta": 1e-3,
                 "target_fraction": 0.01},
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        json.dump(config, handle)
        cfg_path = handle.name

    worst = 0
    try:
        for sub in cli.SUBCOMMANDS:
            code = cli.main([sub, "--config", cfg_path, "--out-dir", args.out_dir,
                             "--format", "csv"])
            print(f"== {sub}: exit {code}")
            worst = max(worst, code)
    finally:
        os.unlink(cfg_path)
    print(f"reports written to {args.out_dir}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
