"""Tests of the benchmark itself: exact work counts, names, and the gate.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes; the torus count test alone evaluates 756 curvatures).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ahrenvol import cli, collar, renorm, variation  # noqa: E402

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Context, PassResult, _gate, row_headroom, run_paired_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_pass(workload, seed, tmp_path):
    ctx = Context(workload, seed, str(tmp_path))
    tracer = Tracer()
    return *run_paired_pass(ctx, tracer), tracer


@pytest.mark.parametrize("workload", ["radial-audit", "flow"])
def test_same_seed_gives_identical_counts(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    plain_a, first, tracer_a = traced_pass(workload, 3, tmp_path / "a")
    plain_b, second, tracer_b = traced_pass(workload, 3, tmp_path / "b")
    layers_a = run.per_layer(plain_a, first, tracer_a)
    layers_b = run.per_layer(plain_b, second, tracer_b)
    # cli.report_bytes is left out: reports carry elapsed_seconds and a timestamp
    counts_a = {k: m["value"] for k, m in layers_a.items() if m["unit"] == "count"}
    counts_b = {k: m["value"] for k, m in layers_b.items() if m["unit"] == "count"}
    assert counts_a == counts_b
    assert counts_a["collar.curvature_in_frame.calls"] > 0
    assert not first.problems and not second.problems
    assert set(layers_a) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end, _ = run.end_to_end([PassResult(first.ops, ref_s=1.0, ref_calls=1)], [1.0], [1.0])
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize(
    "source, evals",
    [
        (lambda: collar.RadialGeometry(collar.perturbed_profile((0.05, 0.05, 0.05))), 840),
        (lambda: collar.TorusJetGeometry(collar.random_jet(3, 8, 0.05)), 756),
    ],
    ids=["radial-theta", "torus-seed3"],
)
def test_renormalized_action_curvature_evals_match_baseline(source, evals):
    tracer = Tracer()
    with tracer:
        renorm.renormalized_action(source())
    assert tracer.layer_metrics()["renorm.curvature_evals"] == evals


def test_tracer_reaches_imported_names_and_defaults_and_restores_them():
    step, flow = variation.gradient_flow_step, variation.run_flow
    originals = (collar.curvature_in_frame, variation.curvature_in_frame, step,
                 step.__defaults__, flow.__defaults__)
    with Tracer():
        assert variation.curvature_in_frame is collar.curvature_in_frame
        assert variation.curvature_in_frame is not originals[0]
        assert step.__defaults__[-1] is variation.z2_functional
        assert flow.__defaults__[-1] is variation.z2_functional
    assert (collar.curvature_in_frame, variation.curvature_in_frame, variation.gradient_flow_step,
            step.__defaults__, flow.__defaults__) == originals


def test_row_headroom():
    assert row_headroom({"name": "x", "value": -1e-11, "tolerance": 1e-8}) == pytest.approx(3.0)
    assert row_headroom({"name": "x", "value": 1e-15, "tolerance": 1e-8}) == 4.0
    assert row_headroom({"name": "x", "value": 0.0, "tolerance": 1e-8}) == 4.0
    chi = {"name": "interior_finite_part_chi", "value": 1.0 + 1e-7, "tolerance": 1e-4}
    assert row_headroom(chi) == pytest.approx(3.0, abs=1e-6)


def fake_report(ctx, label, sub, rows):
    report = {"subcommand": sub, "seed": ctx.raw[label]["seed"], "checks": [
        {"name": name, "value": value, "tolerance": 1e-10, "passed": value < 1e-10}
        for name, value in rows]}
    (Path(ctx.out_dir(label)) / f"{sub}-report.json").write_text(json.dumps(report))


def test_known_defect_fails_the_audit_but_not_the_run(tmp_path):
    ctx = Context("torus-audit", 3, str(tmp_path))
    fake_report(ctx, "torus", "linearize-check", [("scaling_riem", 0.0), ("scaling_ric", 4.5e-4)])
    op = _gate(ctx, "torus", "linearize-check", 0.1, (cli.EXIT_CHECK_FAILED, ""))
    assert op.failed and not op.problems


@pytest.mark.parametrize("code, rows", [
    (cli.EXIT_CHECK_FAILED, [("scaling_riem", 1e-3)]),  # not a known defect
    (cli.EXIT_OK, [("scaling_ric", 4.5e-4)]),  # exit code disagrees with the rows
    (cli.EXIT_NONCONVERGENCE, None),  # no report written
])
def test_gate_flags_unexpected_outcomes(tmp_path, code, rows):
    ctx = Context("torus-audit", 3, str(tmp_path))
    if rows is not None:
        fake_report(ctx, "torus", "linearize-check", rows)
    op = _gate(ctx, "torus", "linearize-check", 0.1, (code, ""))
    assert op.failed and op.problems


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
