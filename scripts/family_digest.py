#!/usr/bin/env python3
"""Print one SHA-256 per eps-family, finite part and check row of the audits.

Usage:
    python3 scripts/family_digest.py

Runs the benchmark's operations on its three configs (the hyperbolic ball,
the radial profile theta = (0.05, 0.05, 0.05) and the torus collar
``random_jet(3)`` at n_grid 8), plus a flow of one step, all at seed 3,
and prints one line ``<config>/<operation>/<item> <sha256>`` per number or
array they produce:

* ``family[k]``: the k-th eps-family handed to ``renorm.finite_part``, and
  ``fit[k]``: every float field of its fit (finite part, coefficients,
  residual, condition number, floor ratio and selection gaps, with the kept
  powers);
* ``<row>``: the value of each check row of a subcommand's report, and
  ``artifacts``: the report's artifacts, as written;
* ``rewrite_deviation`` and ``rewrite_fp_deviation`` of
  ``renorm.renormalized_action``.

Each digest is of the float64 bytes, so it changes with the last bit.  Run it
in two checkouts, each with its own ``src`` on PYTHONPATH, and diff the
outputs to show that a change kept every bit, or to list what moved.
Reports go to a temporary directory that is removed.  numpy only.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from ahrenvol import cli, renorm

RADIAL = ("collar-audit", "renvol", "gauss-bonnet", "linearize-check", "el-residual")
TORUS = ("collar-audit", "renvol", "linearize-check", "el-residual")

# label -> (config, operations); an operation is a subcommand name or 'renormalized_action'
CONFIGS = {
    "ball": ({"family": "radial", "seed": 3}, ("algebra-suite",) + RADIAL),
    "theta": ({"family": "radial", "seed": 3, "profile": {"theta": [0.05] * 3}},
              RADIAL + ("renormalized_action",)),
    "torus": ({"family": "torus-collar", "seed": 3, "jet": {"n_grid": 8, "amplitude": 0.05}},
              TORUS + ("renormalized_action",)),
    "flow": ({"family": "radial", "seed": 3, "flow": {"steps": 1}}, ("flow",)),
}


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def fit_digest(fit) -> str:
    fields = [fit.c0, fit.c2, fit.log_coeff, fit.finite, fit.fit_residual, fit.cond,
              fit.floor_ratio, *fit.selection_gaps]
    kept = repr(tuple(fit.kept_powers)).encode()
    return hashlib.sha256(np.array(fields, dtype=float).tobytes() + kept).hexdigest()


@contextlib.contextmanager
def recorded_fits():
    """Every (family, fit) that renorm.finite_part returns inside the block."""
    fits, original = [], renorm.finite_part

    def record(values):
        fit = original(values)
        fits.append((np.asarray(values[1], dtype=float), fit))
        return fit

    renorm.finite_part = record
    try:
        yield fits
    finally:
        renorm.finite_part = original


def run(label: str, raw: dict, op: str, workdir: str) -> list:
    """(item, digest) lines of one operation."""
    lines = []
    with recorded_fits() as fits:
        if op == "renormalized_action":
            out = renorm.renormalized_action(cli.AuditConfig.from_dict(raw).geometry())
            for key in ("rewrite_deviation", "rewrite_fp_deviation"):
                lines.append((key, digest(out[key])))
        else:
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            out_dir = os.path.join(workdir, label)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([op, "--config", path, "--out-dir", out_dir])
            with open(os.path.join(out_dir, f"{op}-report.json"), encoding="utf-8") as handle:
                report = json.load(handle)
            lines += [(row["name"], digest(row["value"])) for row in report["checks"]]
            text = json.dumps(report["artifacts"], sort_keys=True).encode()
            lines.append(("artifacts", hashlib.sha256(text).hexdigest()))
    for k, (family, fit) in enumerate(fits):
        lines += [(f"family[{k}]", digest(family)), (f"fit[{k}]", fit_digest(fit))]
    return [f"{label}/{op}/{item} {value}" for item, value in lines]


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for label, (raw, ops) in CONFIGS.items():
            for op in ops:
                print("\n".join(run(label, raw, op, workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
