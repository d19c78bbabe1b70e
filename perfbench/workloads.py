"""The benchmark's workloads, their operations and the correctness gate.

Every operation goes through the public API: a subcommand of
``ahrenvol.cli.main`` (its verdicts and deviations are read back from the
report it wrote) or a library call (``renorm.renormalized_action`` and, on
the flow, a re-quadrature of the flow's end point).  An operation fails when
it exits non-zero, raises, or has a failing check row.  A run is correct when
every report is well formed, every exit code agrees with its rows, every
graded value is finite, and no row fails except a known defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ahrenvol import cli, collar, dfalg, renorm, variation
from speed import REF_NOMINAL_S, SpeedProbe

# Rows whose verdict is set by a flag, not by a deviation under a tolerance.
FLAG_ROWS = frozenset({"flow_monotone", "flow_target", "slice_norms_finite"})

# Rows that fail at the commit the benchmark was written against.  The torus
# backend's r'g == 0 check sees aliasing from spectral derivatives of
# nonlinear fields at n_grid=8 (ROADMAP.md, torus resolution).  It counts as
# a failed audit in every run; it does not make a run incorrect.
KNOWN_DEFECTS = frozenset({("torus/linearize-check", "scaling_ric")})

# Headroom is capped at this many decades.  Deviations that far below their
# tolerance are roundoff, and the cap also makes an exact zero read finite.
HEADROOM_CAP = 4.0

RADIAL_SUBCOMMANDS = ("collar-audit", "renvol", "gauss-bonnet", "linearize-check", "el-residual")
TORUS_SUBCOMMANDS = ("collar-audit", "renvol", "linearize-check", "el-residual")

OPERATIONS = {
    "radial-audit": [
        ("ball", "algebra-suite"),
        *[("ball", sub) for sub in RADIAL_SUBCOMMANDS],
        *[("theta", sub) for sub in RADIAL_SUBCOMMANDS],
        ("theta", "renormalized_action"),
    ],
    "torus-audit": [
        *[("torus", sub) for sub in TORUS_SUBCOMMANDS],
        ("torus", "renormalized_action"),
    ],
    "flow": [("flow", "flow"), ("flow", "flow_endpoint")],
}

# The ROADMAP baseline jet: renormalized_action takes 756 curvature evaluations.
TORUS_JET_SEED = 3

# Two accepted steps reach Z <= 0.2 Z(0) from theta0 ~ (0.05, 0.05, 0.05)
# (Z falls to about 0.43 and then 0.15 of its start), with one line-search
# halving on the second step; the budget leaves two steps spare.
FLOW_STEPS = 4
FLOW_TARGET = 0.2
# Gauss nodes per segment for the end-point oracle (the flow uses 32).
FLOW_ENDPOINT_NODES = 48
FLOW_ENDPOINT_TOL = 1e-8
# renormalized_action raises beyond these; they grade its two deviations.
REWRITE_TOL = 1e-8
REWRITE_FP_TOL = 1e-5


def configs(workload: str, seed: int) -> dict:
    """Audit configs of a workload, keyed by label; inputs come from ``seed``."""
    if workload == "radial-audit":
        return {
            "ball": {"family": "radial", "seed": seed},
            "theta": {"family": "radial", "seed": seed, "profile": {"theta": [0.05] * 3}},
        }
    if workload == "torus-audit":
        # The jet stays fixed: its worst oracle row moves by half a decade
        # from one random jet to the next (1.07 to 1.57 decades over five),
        # more than any bound on oracle_headroom allows.
        return {
            "torus": {
                "family": "torus-collar",
                "seed": TORUS_JET_SEED,
                "jet": {"n_grid": 8, "amplitude": 0.05},
            }
        }
    if workload == "flow":
        rng = np.random.default_rng(seed)
        theta0 = [0.05 * (1.0 + 0.02 * u) for u in rng.uniform(-1.0, 1.0, 3)]
        return {
            "flow": {
                "family": "radial",
                "seed": seed,
                # the profile is the flow's start, so set-up builds that geometry
                "profile": {"theta": theta0},
                "flow": {"theta0": theta0, "steps": FLOW_STEPS, "target_fraction": FLOW_TARGET},
            }
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Context:
    """A workload's inputs on disk and the directory its reports go to."""

    workload: str
    seed: int
    workdir: str
    raw: dict = field(init=False)

    def __post_init__(self):
        self.raw = configs(self.workload, self.seed)
        for label, raw in self.raw.items():
            os.makedirs(self.out_dir(label), exist_ok=True)
            with open(self.config_path(label), "w", encoding="utf-8") as handle:
                json.dump(raw, handle)

    def config_path(self, label: str) -> str:
        return os.path.join(self.workdir, f"{label}.json")

    def out_dir(self, label: str) -> str:
        return os.path.join(self.workdir, label)

    def config(self, label: str) -> cli.AuditConfig:
        return cli.AuditConfig.from_dict(self.raw[label])


@dataclass
class OpResult:
    op: str
    seconds: float
    rows: list
    failed: bool
    problems: list
    report_bytes: int = 0

    @property
    def subcommand(self) -> str | None:
        name = self.op.split("/", 1)[1]
        return name if name in cli.SUBCOMMANDS else None


@dataclass
class PassResult:
    ops: list
    ref_s: float = 0.0
    ref_calls: int = 0

    @property
    def seconds(self) -> float:
        """Raw wall time of the operations."""
        return sum(op.seconds for op in self.ops)

    @property
    def adjusted_seconds(self) -> float:
        """Wall time rescaled to the reference speed (see REF_NOMINAL_S)."""
        return self.seconds * REF_NOMINAL_S * self.ref_calls / self.ref_s

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    @property
    def problems(self) -> list:
        return [f"{op.op}: {p}" for op in self.ops for p in op.problems]


# -- operations -------------------------------------------------------------------


def _outputs(sub: str) -> list:
    names = [f"{sub}-report.json"]
    if sub == "flow":
        names.append("flow-progress.csv")
    return names


def _run_cli(ctx: Context, label: str, sub: str, tracer=None):
    out_dir = ctx.out_dir(label)
    for name in _outputs(sub):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    argv = [sub, "--config", ctx.config_path(label), "--out-dir", out_dir, "--threads", "1"]
    log = io.StringIO()
    region = tracer.region("cli.main") if tracer else contextlib.nullcontext()
    with region, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = cli.main(argv)
    return code, log.getvalue()


def _renormalized_action(ctx: Context, label: str):
    return renorm.renormalized_action(ctx.config(label).geometry())


def _flow_endpoint(ctx: Context, label: str):
    with open(os.path.join(ctx.out_dir(label), "flow-report.json"), encoding="utf-8") as handle:
        last = json.load(handle)["artifacts"]["history"][-1]
    fine = variation.z2_functional(last["theta"], n_per=FLOW_ENDPOINT_NODES)
    return last["value"], fine


LIBRARY_OPS = {
    "renormalized_action": _renormalized_action,
    "flow_endpoint": _flow_endpoint,
}


def run_op(ctx: Context, label: str, name: str, tracer=None, probe=None) -> OpResult:
    """Run one operation (timed, less any probe samples), then gate it (untimed)."""
    probed = probe.seconds if probe else 0.0
    start = time.perf_counter()
    try:
        if name in cli.SUBCOMMANDS:
            out = _run_cli(ctx, label, name, tracer)
        else:
            out = LIBRARY_OPS[name](ctx, label)
    except Exception as exc:  # an operation that raises is a failed audit
        out = exc
    seconds = time.perf_counter() - start
    if probe:
        seconds -= probe.seconds - probed  # the probe's ticks inside the operation
    return _gate(ctx, label, name, seconds, out)


def run_pass(ctx: Context) -> PassResult:
    """One untraced pass, with the machine-speed probe running."""
    with SpeedProbe() as probe:
        ops = [run_op(ctx, label, name, probe=probe) for label, name in OPERATIONS[ctx.workload]]
    return PassResult(ops, probe.seconds, probe.calls)


def run_paired_pass(ctx: Context, tracer) -> tuple:
    """Each operation untraced and then traced, so both see the same machine load.

    Returns the untraced and the traced pass.
    """
    plain, traced = [], []
    for label, name in OPERATIONS[ctx.workload]:
        plain.append(run_op(ctx, label, name))
        with tracer:
            traced.append(run_op(ctx, label, name, tracer))
    return PassResult(plain), PassResult(traced)


def warm_up(ctx: Context) -> None:
    """Call each layer the workload uses once before anything is timed.

    Pays for LAPACK and FFT initialisation, scipy's lazy imports, dfalg's
    combination caches, the CLI report path and the speed probe's kernel, at
    a small fraction of a pass.
    """
    dfalg.decompose_curvature(dfalg.hyperbolic_curvature(4))
    SpeedProbe().sample()
    warm = os.path.join(ctx.workdir, "warm-up")
    for label in ctx.raw:
        geom = ctx.config(label).geometry()
        collar.curvature_in_frame(geom, 0.3)
        collar.curvature_bar(geom, 0.3)
        # volume_family, finite_part and the report writer
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["renvol", "--config", ctx.config_path(label), "--out-dir", warm])


# -- correctness gate ----------------------------------------------------------------


def row_headroom(row: dict) -> float:
    """log10(tolerance / deviation), capped at HEADROOM_CAP decades."""
    value = row["value"] - 1.0 if row["name"] == "interior_finite_part_chi" else row["value"]
    deviation = abs(value)
    if deviation == 0.0:
        return HEADROOM_CAP
    return min(HEADROOM_CAP, math.log10(row["tolerance"] / deviation))


def graded(row: dict) -> bool:
    return row["name"] not in FLAG_ROWS


def _row(name, value, tolerance):
    return {"name": name, "value": float(value), "tolerance": tolerance,
            "passed": bool(abs(value) < tolerance)}


def _gate(ctx: Context, label: str, name: str, seconds: float, out) -> OpResult:
    op = f"{label}/{name}"
    rows, problems, report_bytes, exit_ok = [], [], 0, True
    if isinstance(out, Exception):
        problems.append(f"raised {type(out).__name__}: {out}")
    elif name in cli.SUBCOMMANDS:
        code, log = out
        exit_ok = code == cli.EXIT_OK
        rows, report_bytes, problems = _read_report(ctx, label, name, code, log)
    elif name == "renormalized_action":
        if not all(math.isfinite(out[k].finite) for k in ("s2", "z2", "w2", "action")):
            problems.append("non-finite finite part")
        rows = [
            _row("rewrite_deviation", out["rewrite_deviation"], REWRITE_TOL),
            _row("rewrite_fp_deviation", out["rewrite_fp_deviation"], REWRITE_FP_TOL),
        ]
    elif name == "flow_endpoint":
        reported, fine = out
        rows = [_row("endpoint_requadrature", abs(fine - reported) / abs(reported),
                     FLOW_ENDPOINT_TOL)]
    for row in rows:
        if graded(row) and not math.isfinite(row["value"]):
            problems.append(f"non-finite value in {row['name']}")
        if not row["passed"] and (op, row["name"]) not in KNOWN_DEFECTS:
            problems.append(f"check {row['name']} failed: {row['value']:.3e} "
                            f"(tol {row['tolerance']:.1e})")
    failed = bool(problems) or not exit_ok or not all(row["passed"] for row in rows)
    return OpResult(op, seconds, rows, failed, problems, report_bytes)


def _read_report(ctx: Context, label: str, sub: str, code: int, log: str):
    out_dir = ctx.out_dir(label)
    problems = []
    try:
        with open(os.path.join(out_dir, f"{sub}-report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        tail = log.strip().splitlines()[-1:] or [""]
        return [], 0, [f"exit {code}, no readable report ({exc}); {tail[0]}"]
    if report.get("subcommand") != sub or report.get("seed") != ctx.raw[label]["seed"]:
        problems.append("report does not echo its subcommand and seed")
    rows = report.get("checks") or []
    if not rows:
        problems.append("report has no check rows")
    want = cli.EXIT_OK if all(row["passed"] for row in rows) else cli.EXIT_CHECK_FAILED
    if code != want:
        problems.append(f"exit {code} but the rows imply {want}")
    report_bytes = sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in _outputs(sub)
        if os.path.exists(os.path.join(out_dir, name))
    )
    return rows, report_bytes, problems
