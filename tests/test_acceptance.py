"""Acceptance gate: the ten top-level criteria, one printed verdict line each.

Each criterion is a separate test with its stated tolerance and runtime
budget.  Criteria whose as-stated form is refuted by the numerics (4, 5 and
the normal-form half of 10) are kept faithfully as strict expected failures,
with a companion test asserting the corrected identity to tight tolerance;
see the decisions ledger for the analysis.  Run with `pytest -s` to see the
verdict lines on passing tests.
"""

import math
import time

import numpy as np
import pytest

from ahrenvol import cli, collar, dfalg, renorm, variation
from ahrenvol.collar import (
    ChebyshevRhoBasis,
    RadialGeometry,
    TorusJetGeometry,
    chebyshev_rho_nodes,
    curvature_in_frame,
    hyperbolic_profile,
    jet_identity_report,
    perturbed_profile,
    random_jet,
)
from ahrenvol.dfalg import (
    contract,
    contract_k,
    decompose_curvature,
    inner_full,
    kn_product,
    metric_g,
    pfaffian_density,
)
from ahrenvol.renorm import (
    boundary_II,
    default_eps_grid,
    finite_part,
    gauss_bonnet_audit,
    renormalized_action,
    volume_family,
)
from ahrenvol.variation import (
    CutoffPerturbation,
    functional_gradient,
    run_flow,
    zprime_display,
)
from oracles import fd_zprime

PI2 = math.pi**2


def announce(num, label, passed=True):
    verdict = "PASS" if passed else "FAIL (expected, documented)"
    print(f"[{verdict}] criterion {num:2d}: {label}")


class Budget:
    """Context manager asserting a wall-clock runtime budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.1f}s exceeds budget {self.seconds}s"
            )


def test_criterion_01_algebra_suite():
    """Contraction/metric/twist identities on >= 100 seeded inputs, n in 3..5."""
    with Budget(10.0):
        config = cli.AuditConfig(family="radial", seed=20260823)
        report = cli.run_algebra_suite(config)
    assert report.checks, "empty algebra suite"
    worst = max(abs(row["value"]) for row in report.checks)
    assert report.passed and worst < 1e-10, report.checks
    announce(1, f"algebra suite, max deviation {worst:.2e} < 1e-10")


def test_criterion_02_contraction_constants():
    """c(g)=4, c(g^2)=6g, c^4(g^4)=576 at n=4; c^3(gamma^3)=36 at n=3."""
    with Budget(1.0):
        g = metric_g(4)
        dev = abs(contract(g) - 4.0)
        cg2 = contract(kn_product(g, g))
        dev = max(dev, float(np.max(np.abs(cg2.coeffs - 6.0 * g.coeffs))))
        g4 = kn_product(kn_product(g, g), kn_product(g, g))
        dev = max(dev, abs(contract_k(g4, 4) - 576.0))
        gam = metric_g(3)
        gam3 = kn_product(kn_product(gam, gam), gam)
        dev = max(dev, abs(contract_k(gam3, 3) - 36.0))
    assert dev < 1e-12, dev
    announce(2, f"contraction constants (4, 6g, 576, 36), max deviation {dev:.2e}")


def test_criterion_03_hyperbolic_ball_volume():
    """Fitted (C0, C2, L, V) = (2pi^2/3, -3pi^2/2, 0, 4pi^2/3), rel 1e-6."""
    with Budget(5.0):
        volumes, _ = volume_family(RadialGeometry(hyperbolic_profile()))
        fit = finite_part((default_eps_grid(), volumes))
    want = (2 * PI2 / 3, -1.5 * PI2, 0.0, 4 * PI2 / 3)
    dev = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(fit.as_tuple(), want))
    assert dev < 1e-6, (fit.as_tuple(), want)
    announce(3, f"hyperbolic-ball volume coefficients, max rel deviation {dev:.2e}")


def _seeded_thetas(n=5, amplitude=0.02, seed=20260823):
    rng = np.random.default_rng(seed)
    return [amplitude * rng.uniform(-1.0, 1.0, size=3) for _ in range(n)]


def _gauss_bonnet_report(theta=(0.0, 0.0, 0.0)):
    """The gauss-bonnet subcommand's report: its rows judge the audit."""
    config = cli.AuditConfig(family="radial", seed=0, theta=tuple(map(float, theta)))
    return cli.run_gauss_bonnet(config)


@pytest.mark.xfail(
    strict=True,
    reason="documented discrepancy: for profiles with v3 != 0 the boundary "
    "finite part is (1/2pi^2) int v3 dvol_gamma, not 0, and the interior "
    "finite part shifts by the same amount (decisions ledger)",
)
def test_criterion_04_gauss_bonnet_as_stated():
    """Ball + 5 seeded perturbations: sum constant, FP int II = 0, FP int Pff = 1."""
    announce(4, "Gauss-Bonnet finite-part claims as stated on v3 != 0 profiles",
             passed=False)
    with Budget(60.0):
        reports = [_gauss_bonnet_report()]
        reports += [_gauss_bonnet_report(t) for t in _seeded_thetas()]
    assert all(rep.passed for rep in reports), [r.checks for r in reports]


def test_criterion_04_validated_parts_and_correction():
    """What does hold: exactness at every eps, the ball case, and the
    corrected finite-part identity FP int Pff = chi - (1/2pi^2) int v3."""
    with Budget(60.0):
        ball = _gauss_bonnet_report()
        assert ball.passed, ball.checks
        sum_dev = fp_dev = 0.0
        for theta in _seeded_thetas():
            rep = gauss_bonnet_audit(RadialGeometry(perturbed_profile(theta)))
            sum_dev = max(sum_dev, float(np.max(np.abs(rep["total"] - 1.0))))
            v3 = float(collar.det_series(RadialGeometry(perturbed_profile(theta)))["v3"][0])
            fp_dev = max(
                fp_dev,
                abs(rep["fp_interior"].finite - (1.0 - v3)),
                abs(rep["fp_boundary"].finite - v3),
            )
    assert sum_dev < 1e-6, sum_dev
    assert fp_dev < 2e-5, fp_dev
    announce(4, "Gauss-Bonnet: ball as stated; exactness in eps on 5 seeded "
                f"perturbations ({sum_dev:.2e}); corrected finite-part "
                f"identity ({fp_dev:.2e})")


def _phi_finite_parts(jet):
    eps = default_eps_grid()
    bt = boundary_II(TorusJetGeometry(jet), eps)
    return finite_part((eps, bt["phi0"])), finite_part((eps, bt["phi1"]))


def _int_v3(jet):
    """L = int v3 dvol_gamma."""
    geom = TorusJetGeometry(jet)
    v3 = collar.det_series(geom)["v3"]
    return collar.slice_integral(geom, 0.0, v3, collar._slice_frame(geom, 0.0)["dvol"])


@pytest.mark.xfail(
    strict=True,
    reason="documented discrepancy: the Phi-family eps^0 coefficients equal "
    "-12 int v3 dvol_gamma, not 0, on jets with nonzero mean v3 "
    "(decisions ledger)",
)
def test_criterion_05_transgression_cancellation_as_stated():
    """eps^0 coefficients of Phi0 / Phi1 vanish on 20 random jets (< 1e-5)."""
    announce(5, "transgression eps^0 cancellation as stated on random jets",
             passed=False)
    with Budget(60.0):
        devs = []
        for seed in range(20):
            fp0, fp1 = _phi_finite_parts(random_jet(500 + seed, n_grid=8,
                                                    amplitude=0.05))
            devs.append(max(abs(fp0.finite), abs(fp1.finite)))
    assert max(devs) < 1e-5, max(devs)


def test_criterion_05_corrected_eps0_coefficients():
    """Both Phi-family eps^0 coefficients equal -12 int v3 dvol_gamma."""
    with Budget(60.0):
        dev = 0.0
        for seed in (101, 202, 303):
            jet = random_jet(seed, n_grid=8, amplitude=0.05)
            fp0, fp1 = _phi_finite_parts(jet)
            want = -12.0 * _int_v3(jet)
            scale = max(1.0, abs(want))
            dev = max(dev, abs(fp0.finite - want) / scale,
                      abs(fp1.finite - want) / scale)
    assert dev < 1e-3, dev
    announce(5, "transgression eps^0 coefficients == -12 int v3 dvol_gamma "
                f"(corrected), max rel deviation {dev:.2e}")


def test_criterion_06_collar_identities():
    """tr_gamma g3 = 2 v3 (50 jets, rel 1e-8); parity of s, |r|^2, |R|^2;
    g3/v3 ambient-curvature identities at 32^3 x 16 resolution."""
    with Budget(120.0):
        trace_dev = 0.0
        for seed in range(50):
            jet = random_jet(700 + seed, n_grid=8, amplitude=0.05)
            det = collar.det_series(TorusJetGeometry(jet))
            tr_g3 = np.einsum(
                "...ij,...ij->...", np.linalg.inv(jet.gamma), jet.g3
            ).reshape(-1)
            scale = max(1.0, float(np.max(np.abs(det["v3"]))))
            trace_dev = max(trace_dev, float(
                np.max(np.abs(tr_g3 - 2.0 * det["v3"]))) / scale)
        assert trace_dev < 1e-8, trace_dev

        geom = TorusJetGeometry(random_jet(31, n_grid=8, amplitude=0.05))
        nodes = chebyshev_rho_nodes()
        parity_dev = 0.0
        stacks = {"s": [], "r2": [], "R2": []}
        for rho in nodes:
            inv = curvature_in_frame(geom, float(rho))["invariants"]
            for name in stacks:
                stacks[name].append(inv[name])
        for name, stack in stacks.items():
            arr = np.stack(stack)
            (slope,) = ChebyshevRhoBasis(nodes, 0.2).derivatives(arr, 0.0)
            scale = max(1.0, float(np.max(np.abs(arr))))
            parity_dev = max(parity_dev, float(np.max(np.abs(slope))) / scale)
        assert parity_dev < 1e-6, parity_dev

        rep = jet_identity_report(TorusJetGeometry(random_jet(9, n_grid=32, amplitude=0.02)))
        jet_dev = max(rep["dev_g3_identity"], rep["dev_v3_identity"])
        assert jet_dev < 1e-6, rep
    announce(6, f"collar identities: trace {trace_dev:.2e}, parity "
                f"{parity_dev:.2e}, jet-vs-curvature {jet_dev:.2e}")


def test_criterion_07_linearized_curvature():
    """FD order 2.0 +/- 0.2 on 5 background/perturbation pairs; exact
    scaling cases s'g = -s and r'g = 0 to 1e-10."""
    with Budget(120.0):
        orders = [cli._linearize_trial(900 + k) for k in range(5)]
        assert all(abs(o - 2.0) < 0.2 for o in orders), orders

        config = cli.AuditConfig(family="radial", seed=900, trials=1)
        report = cli.run_linearize_check(config)
        rows = {c["name"]: c for c in report.checks}
        for name in ("scaling_riem", "scaling_ric", "scaling_scal"):
            assert rows[name]["value"] < 1e-10, rows[name]
    announce(7, f"linearized curvature: FD orders {[round(o, 3) for o in orders]}, "
                "metric-direction scaling exact to 1e-10")


def test_criterion_08_gradient_and_einstein_residual():
    """E == 0 on the hyperbolic background (1e-8); gradient pairing vs FD of
    the regularized functional, rel < 1e-3, on 3 perturbations."""
    with Budget(180.0):
        residual = np.max(functional_gradient(RadialGeometry(hyperbolic_profile()))["slice_norms"])
        assert residual < 1e-8, residual

        rng = np.random.default_rng(21)
        geom = RadialGeometry(perturbed_profile([0.03, -0.02, 0.015]))
        rel = 0.0
        for _ in range(3):
            m = rng.uniform(-1.0, 1.0, (1, 3, 3))
            pert = CutoffPerturbation(0.5 * (m + m.transpose(0, 2, 1)))
            disp = zprime_display(geom, pert)
            fd = fd_zprime(geom, pert)
            rel = max(rel, abs(disp - fd) / abs(fd))
        assert rel < 1e-3, rel
    announce(8, f"Einstein residual {residual:.2e} < 1e-8; gradient "
                f"FD pairing rel deviation {rel:.2e} < 1e-3")


def test_criterion_09_gradient_flow():
    """From amplitude 0.05 the energy decreases monotonically and falls
    below 1% of its initial value within 200 steps."""
    with Budget(600.0):
        history = run_flow((0.05, 0.05, 0.05), steps=200, target_fraction=0.01)
    values = [step.value for step in history]
    assert all(b <= a for a, b in zip(values, values[1:])), values
    ratio = values[-1] / values[0]
    assert ratio <= 0.01 and history[-1].step <= 200, (ratio, history[-1].step)
    announce(9, f"gradient flow: monotone, ratio {ratio:.2e} <= 1e-2 after "
                f"{history[-1].step} steps")


@pytest.mark.xfail(
    strict=True,
    reason="documented discrepancy: the displayed normal-form coefficients "
    "integrate to 4*chi on the hyperbolic ball, not chi (decisions ledger)",
)
def test_criterion_10_normal_form_as_stated():
    """(1/12pi^2) * FP int (s^2 - 3|r|^2) == chi on the hyperbolic ball."""
    announce(10, "normal-form Euler-characteristic display as stated",
             passed=False)
    action = renormalized_action(RadialGeometry(hyperbolic_profile()))["action"].finite
    assert abs(action / (12.0 * PI2) - 1.0) < 1e-6, action / (12.0 * PI2)


def test_criterion_10_documented_discrepancies():
    """The normal form evaluates to exactly 4*chi; the least-squares Pfaffian
    coefficients over random decomposed curvatures have s^2 term 1/48."""
    action = renormalized_action(RadialGeometry(hyperbolic_profile()))["action"].finite
    assert abs(action / (12.0 * PI2) - 4.0) < 1e-6, action / (12.0 * PI2)

    rng = np.random.default_rng(20260823)
    rows, target = [], []
    for _ in range(24):
        R = cli._random_curvature(rng.standard_normal((4,) * 4))
        dec = decompose_curvature(R)
        rows.append([
            inner_full(dec.w, dec.w),
            float(np.sum(dec.z.entries**2)),
            dec.s**2,
        ])
        target.append(4.0 * PI2 * pfaffian_density(R))
    coeffs, res, *_ = np.linalg.lstsq(np.array(rows), np.array(target), rcond=None)
    fit_residual = float(np.sqrt(res[0])) if len(res) else 0.0
    s2_dev = abs(coeffs[2] - 1.0 / 48.0)
    assert s2_dev < 1e-10, coeffs
    assert fit_residual < 1e-10, fit_residual
    announce(10, "normal form == 4*chi as predicted; fitted Pfaffian "
                 f"coefficients {np.round(coeffs, 12).tolist()} with s^2 "
                 f"term 1/48 to {s2_dev:.1e}")
