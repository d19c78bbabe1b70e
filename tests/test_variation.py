"""Tests for the variational calculus: Hessians, linearized curvature,
functional gradient, slice diagnostics, and the profile gradient flow."""

import math

import numpy as np
import pytest

from ahrenvol import collar, dfalg, variation
from ahrenvol.collar import (
    InvalidProfile,
    NonConvergence,
    PerturbedGeometry,
    PolynomialPerturbation,
    RadialGeometry,
    TorusJetGeometry,
    curvature_in_frame,
    frame_curvature,
    hyperbolic_profile,
    perturbed_profile,
    random_jet,
)
from ahrenvol.variation import (
    CutoffPerturbation,
    MetricPerturbation,
    convergence_order,
    el_slice_analysis,
    fd_curvature_derivative,
    fd_zprime,
    fh_dense,
    frame_covariant_derivative,
    functional_gradient,
    gradient_field,
    gradient_flow_step,
    hessian11,
    linearized_curvature,
    run_flow,
    z2_functional,
    zprime_display,
)
from ahrenvol.variation import _einstein_t2_on, _embed_jet, _frame_z
from oracles import (
    FlatTorus4,
    fd_jet,
    fh_dense_einsum,
    frame_covariant_derivative_einsum,
    frame_ricci_einsum,
    gradient_field_einsum,
    hessian11_einsum,
    hessian_ops,
    stencil_el_residual,
    symmetric_frame,
    zprime_display_stated,
)


# -- flat-torus fixtures -------------------------------------------------------


def torus_and_grid(n=8):
    torus = FlatTorus4(n)
    x = np.arange(n) * 2.0 * math.pi / n
    return torus, np.meshgrid(x, x, x, x, indexing="ij")


def smooth_scalar(rng, X, pool):
    """Low-mode trig scalar drawn from a shared wavevector pool (so that
    independently drawn fields are not accidentally L2-orthogonal)."""
    f = np.zeros(X[0].shape)
    for _ in range(3):
        k = pool[rng.integers(0, len(pool))]
        phase = rng.uniform(0.0, 2.0 * math.pi)
        f += rng.uniform(-1, 1) * np.cos(sum(k[a] * X[a] for a in range(4)) + phase)
    return f


def random_11(rng, X, pool):
    om = np.zeros(X[0].shape + (4, 4))
    for i in range(4):
        for j in range(i, 4):
            s = smooth_scalar(rng, X, pool)
            om[..., i, j] = s
            om[..., j, i] = s
    return om


def random_22(rng, X, pool):
    th = np.zeros(X[0].shape + (4, 4, 4, 4))
    for _ in range(4):
        a = smooth_scalar(rng, X, pool)
        m1 = rng.standard_normal((4, 4))
        m1 -= m1.T
        m2 = rng.standard_normal((4, 4))
        m2 -= m2.T
        th += a[..., None, None, None, None] * np.einsum("ab,cd->abcd", m1, m2)
    return th


class TestFlatTorusHessian:
    def test_single_mode_matches_hand_derivatives(self):
        torus, X = torus_and_grid()
        n = torus.n_grid
        h = np.zeros((n, n, n, n, 4, 4))
        h[..., 0, 0] = np.sin(X[0])
        got = torus.hessian(h, 1, 1)
        # d_a d_b h_{cd} has the single entry (0,0,0,0) = -sin(x_0)
        dd = np.zeros((n, n, n, n, 4, 4, 4, 4))
        dd[..., 0, 0, 0, 0] = -np.sin(X[0])
        want = -2.0 * (
            np.einsum("...acbd->...abcd", dd)
            - np.einsum("...adbc->...abcd", dd)
            - np.einsum("...bcad->...abcd", dd)
            + np.einsum("...bdac->...abcd", dd)
        )
        assert np.max(np.abs(got - want)) < 1e-12

    def test_metric_is_hessian_parallel(self):
        torus, _ = torus_and_grid()
        n = torus.n_grid
        g = np.broadcast_to(np.eye(4), (n, n, n, n, 4, 4)).copy()
        assert np.max(np.abs(torus.hessian(g, 1, 1))) == 0.0

    def test_flat_linearized_curvature_pin(self):
        """-1/4 (DDt+DtD) h equals the standard flat linearized curvature
        1/2 (dd_ik h_jl + dd_jl h_ik - dd_il h_jk - dd_jk h_il)."""
        torus, X = torus_and_grid()
        rng = np.random.default_rng(11)
        pool = [rng.integers(-2, 3, size=4) for _ in range(4)]
        h = random_11(rng, X, pool)
        dd = np.stack(
            [np.stack([torus.deriv(torus.deriv(h, a), b) for b in range(4)], 4) for a in range(4)],
            axis=4,
        )
        want = 0.5 * (
            np.einsum("...ikjl->...ijkl", dd)
            + np.einsum("...jlik->...ijkl", dd)
            - np.einsum("...iljk->...ijkl", dd)
            - np.einsum("...jkil->...ijkl", dd)
        )
        got = -0.25 * torus.hessian(h, 1, 1)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_adjoint_is_star_conjugate(self):
        """deltat delta + delta deltat = *(DDt+DtD)* pointwise on (2,2)."""
        torus, X = torus_and_grid()
        rng = np.random.default_rng(3)
        pool = [rng.integers(-2, 3, size=4) for _ in range(4)]
        th = random_22(rng, X, pool)
        ops = hessian_ops(torus, th, 2, 2)
        via_star = torus.star(torus.hessian(torus.star(th, 2, 2), 2, 2), 3, 3)
        scale = max(1.0, np.max(np.abs(via_star)))
        assert np.max(np.abs(ops["adjoint"] - via_star)) < 1e-10 * scale

    def test_integrated_adjointness(self):
        """<(DDt+DtD) w, th> = <w, (deltat delta + delta deltat) th>."""
        torus, X = torus_and_grid()
        rng = np.random.default_rng(7)
        pool = [rng.integers(-2, 3, size=4) for _ in range(4)]
        om = random_11(rng, X, pool)
        th = random_22(rng, X, pool)
        lhs = torus.inner(torus.hessian(om, 1, 1), th, 2, 2)
        rhs = torus.inner(om, torus.adjoint_hessian(th, 2, 2), 1, 1)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_double_star_is_identity_on_11(self):
        torus, X = torus_and_grid()
        rng = np.random.default_rng(5)
        pool = [rng.integers(-2, 3, size=4) for _ in range(4)]
        om = random_11(rng, X, pool)
        back = torus.star(torus.star(om, 1, 1), 3, 3)
        assert np.max(np.abs(back - om)) < 1e-12 * max(1.0, np.max(np.abs(om)))

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="insufficient stencil width"):
            FlatTorus4(3)

    def test_adjoint_needs_bidegree(self):
        torus, _ = torus_and_grid(4)
        with pytest.raises(ValueError, match="bidegree"):
            hessian_ops(torus, np.zeros((4, 4, 4, 4, 4)), 1, 0)


# -- collar covariant derivatives ----------------------------------------------


def metric_block(geom, rho, order=0):
    blocks = geom.spatial(rho)
    out = np.zeros((geom.npts, 4, 4))
    out[:, :3, :3] = blocks[order]
    if order == 0:
        out[:, 3, 3] = 1.0
    return out


def metric_jet(geom, rho):
    return tuple(metric_block(geom, rho, order) for order in range(3))


class TestCollarCovariantDerivative:
    def test_metric_parallel(self):
        geom = TorusJetGeometry(random_jet(5, 4, 0.05))
        cur = frame_curvature(geom, 0.2)
        christ = (cur["gamma"], cur["dgamma"])
        nabla, dnabla = frame_covariant_derivative(geom, 0.2, metric_jet(geom, 0.2), christ)
        assert np.max(np.abs(nabla)) < 1e-13
        assert np.max(np.abs(dnabla)) < 1e-13

    def test_metric_hessian_vanishes(self):
        geom = RadialGeometry(perturbed_profile([0.05, -0.03, 0.02]))
        cur = frame_curvature(geom, 0.25)
        H = hessian11(geom, metric_jet(geom, 0.25), 0.25, (cur["gamma"], cur["dgamma"]))
        assert np.max(np.abs(H)) < 1e-12

    def test_jet_matches_fd_stencil(self):
        """Analytic-jet and finite-difference-jet Hessians agree to the
        stencil's own truncation error."""
        rng = np.random.default_rng(21)
        geom = RadialGeometry(perturbed_profile([0.03, -0.02, 0.015]))
        m = rng.uniform(-1.0, 1.0, (1, 3, 3))
        pert = CutoffPerturbation(0.5 * (m + m.transpose(0, 2, 1)))
        jet = _embed_jet(pert, 0.2)
        step = 0.00125
        stencil = 0.2 + step * np.arange(-2, 3)
        fd = fd_jet([_embed_jet(pert, r)[0] for r in stencil], step)
        cur = frame_curvature(geom, 0.2)
        christ = (cur["gamma"], cur["dgamma"])
        H_jet = hessian11(geom, jet, 0.2, christ)
        H_fd = hessian11(geom, fd, 0.2, christ)
        scale = max(1.0, np.max(np.abs(H_jet)))
        assert np.max(np.abs(H_jet - H_fd)) < 1e-5 * scale

    @pytest.mark.parametrize(
        "geom",
        [
            RadialGeometry(perturbed_profile([0.03, -0.02, 0.015])),
            TorusJetGeometry(random_jet(17, n_grid=4)),
        ],
        ids=["radial", "torus"],
    )
    def test_hessian_matches_eight_permutation_sum(self, geom):
        """The double antisymmetrization of n2 = nabla nabla h equals the sum
        of its eight index permutations (tests/oracles.py) on two slices."""
        rng = np.random.default_rng(23)
        m = rng.uniform(-1.0, 1.0, (geom.npts, 3, 3))
        pert = PolynomialPerturbation({2: m + m.transpose(0, 2, 1), 3: m.transpose(0, 2, 1)})
        rho = np.array([0.2, 0.35])
        cur = frame_curvature(geom, rho)
        christ = (cur["gamma"], cur["dgamma"])
        jet = _embed_jet(pert, rho)
        nabla = frame_covariant_derivative(geom, rho, jet, christ)
        (n2,) = frame_covariant_derivative(geom, rho, nabla, christ)
        want = hessian11_einsum(n2)
        got = hessian11(geom, jet, rho, christ)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _sym_field(seed, npts):
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, (npts, 3, 3))
    return m + m.transpose(0, 2, 1)


# a radial profile, a torus jet, and a radial profile whose g_rho is not
# conformal to the round metric, so the structure constants of S^3 meet it
REFERENCE_GEOMETRIES = {
    "radial": lambda: RadialGeometry(perturbed_profile([0.03, -0.02, 0.015])),
    "torus": lambda: TorusJetGeometry(random_jet(17, n_grid=4)),
    "radial-polynomial": lambda: PerturbedGeometry(
        RadialGeometry(perturbed_profile([0.03, -0.02, 0.015])),
        PolynomialPerturbation({2: _sym_field(4, 1), 3: _sym_field(5, 1)}), 0.3,
    ),
}


def _close_relative(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestReferenceKernels:
    """The batched-matmul contractions reproduce their einsum form
    (tests/oracles.py) on two rho-slices at once."""

    RHOS = np.array([0.2, 0.35])

    @staticmethod
    def _setup(name):
        geom = REFERENCE_GEOMETRIES[name]()
        m = _sym_field(23, geom.npts)
        pert = PolynomialPerturbation({2: m, 3: 0.5 * m.transpose(0, 2, 1) @ m})
        return geom, curvature_in_frame(geom, TestReferenceKernels.RHOS), pert

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_covariant_derivative_matches_einsum_form(self, name):
        geom, cur, pert = self._setup(name)
        christ = (cur["gamma"], cur["dgamma"])
        jet = _embed_jet(pert, self.RHOS)
        got = frame_covariant_derivative(geom, self.RHOS, jet, christ)
        want = frame_covariant_derivative_einsum(geom, self.RHOS, jet, christ)
        for g, w in zip(got, want, strict=True):
            _close_relative(g, w)
        # the second derivative runs the three-slot contraction
        (n2,) = frame_covariant_derivative(geom, self.RHOS, got, christ)
        (n2_want,) = frame_covariant_derivative_einsum(geom, self.RHOS, want, christ)
        _close_relative(n2, n2_want)
        _close_relative(hessian11(geom, jet, self.RHOS, christ), hessian11_einsum(n2_want))

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_frame_ricci_matches_einsum_form(self, name):
        _, cur, _ = self._setup(name)
        got = collar.frame_ricci(cur["ginv"], cur["riem"])
        want = frame_ricci_einsum(cur["ginv"], cur["riem"])
        for g, w in zip(got, want, strict=True):
            _close_relative(g, w)

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_gradient_field_matches_einsum_form(self, name):
        _, cur, _ = self._setup(name)
        inv = cur["invariants"]
        args = (inv["z"], cur["riem_on"], inv["ric"])
        _close_relative(gradient_field(*args), gradient_field_einsum(*args))

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_fh_dense_matches_einsum_form(self, name):
        geom, cur, pert = self._setup(name)
        h_on = collar.to_on2(_embed_jet(pert, self.RHOS)[0], cur["q"])
        _close_relative(fh_dense(h_on, cur["riem_on"]), fh_dense_einsum(h_on, cur["riem_on"]))


# -- linearized curvature --------------------------------------------------------


class TestLinearizedCurvature:
    def test_scaling_cases(self):
        """h = g: R'g = R, r'g = 0, s'g = -s, all to 1e-10."""
        for geom in (
            RadialGeometry(perturbed_profile([0.05, -0.03, 0.02])),
            # resolution 32 keeps the aliasing error of the inverse-metric
            # spectral products below the 1e-10 bar
            TorusJetGeometry(random_jet(9, 32, 0.02)),
        ):
            class GJet:
                def __init__(self, g):
                    self.g = g

                def value(self, rho, order=0):
                    return metric_block(self.g, rho, order)

            lin = linearized_curvature(geom, GJet(geom), 0.3)
            cur = lin["background"]
            inv = cur["invariants"]
            scale = max(1.0, np.max(np.abs(cur["riem_on"])))
            assert np.max(np.abs(lin["riem_p"] - cur["riem_on"])) < 1e-10 * scale
            assert np.max(np.abs(lin["ric_p"])) < 1e-10 * scale
            assert np.max(np.abs(lin["s_p"] + inv["s"])) < 1e-10 * scale

    def test_fd_convergence_order(self):
        """Central-difference deviation of all three formulas has observed
        order 2.0 +/- 0.2 over t in {1e-2, 5e-3, 2.5e-3} on 5 random
        background/perturbation pairs."""
        rng = np.random.default_rng(17)
        steps = (1e-2, 5e-3, 2.5e-3)
        for trial in range(5):
            theta = 0.05 * rng.uniform(-1.0, 1.0, 3)
            geom = RadialGeometry(perturbed_profile(theta))

            def sym(a):
                return 0.5 * (a + a.transpose(0, 2, 1))

            pert = PolynomialPerturbation(
                {
                    2: sym(1.5 * rng.uniform(-1, 1, (1, 3, 3))),
                    3: sym(1.5 * rng.uniform(-1, 1, (1, 3, 3))),
                }
            )
            lin = linearized_curvature(geom, pert, 0.25)
            devs = []
            for t in steps:
                fd = fd_curvature_derivative(geom, pert, 0.25, t)
                devs.append(
                    max(
                        np.max(np.abs(fd["riem_p"] - lin["riem_p"])),
                        np.max(np.abs(fd["ric_p"] - lin["ric_p"])),
                        np.max(np.abs(fd["s_p"] - lin["s_p"])),
                    )
                )
            order = convergence_order(steps, devs)
            assert 1.8 < order < 2.2, f"trial {trial}: order {order}, devs {devs}"

    def test_torus_background_formula(self):
        """Spot check on a torus-jet background: formula matches FD well
        below the field scale (resolution chosen above the mode content of
        jet products to avoid aliasing)."""
        geom = TorusJetGeometry(random_jet(2, 16, 0.05))
        rng = np.random.default_rng(4)
        npts = geom.npts
        base = 0.3 * geom.jet.g2.reshape(npts, 3, 3) + 0.1 * np.eye(3)
        pert = PolynomialPerturbation({2: base, 3: -0.5 * base})
        lin = linearized_curvature(geom, pert, 0.25)
        fd = fd_curvature_derivative(geom, pert, 0.25, 2.5e-3)
        scale = max(1.0, np.max(np.abs(lin["riem_p"])))
        assert np.max(np.abs(fd["riem_p"] - lin["riem_p"])) < 1e-4 * scale

    def test_fh_dense_matches_dfalg(self):
        rng = np.random.default_rng(12)
        R = rng.standard_normal((4, 4, 4, 4))
        R = R - R.transpose(1, 0, 2, 3)
        R = R - R.transpose(0, 1, 3, 2)
        R = 0.5 * (R + R.transpose(2, 3, 0, 1))
        h = rng.standard_normal((4, 4))
        h = 0.5 * (h + h.T)
        want = dfalg.f_h(dfalg.SymBilinear(4, h), dfalg.DoubleForm.from_dense(4, 2, 2, R))
        got = fh_dense(h[None], R[None])[0]
        assert np.max(np.abs(got - want.to_dense())) < 1e-12


# -- perturbation classes --------------------------------------------------------


class TestPerturbations:
    def test_cutoff_window_vanishes_to_third_order(self):
        pert = CutoffPerturbation(np.eye(3)[None])
        for rho in (0.05, 0.1, 0.3, 0.35):
            for order in range(4):
                assert pert.window(rho, order) == 0.0
        assert pert.window(0.2) == pytest.approx(1.0)

    def test_metric_perturbation_accepts_boundary_fixing(self):
        """Every cutoff is boundary-fixing, however close to rho = 0 its support
        starts, and its support is forwarded."""
        m = np.eye(3)[None]
        MetricPerturbation(PolynomialPerturbation({2: m, 3: -m}))
        MetricPerturbation(CutoffPerturbation(m))
        for a in (0.02, 0.05, 0.079):
            assert MetricPerturbation(CutoffPerturbation(m, a, 0.3)).support == (a, 0.3)

    def test_metric_perturbation_rejects_low_order(self):
        m = np.eye(3)[None]
        for fields in ({0: m}, {1: m}, {1: 1e-6 * m, 2: m}):
            with pytest.raises(ValueError, match="boundary-fixing"):
                MetricPerturbation(PolynomialPerturbation(fields))

    def test_metric_perturbation_rejects_asymmetric(self):
        m = np.zeros((1, 3, 3))
        m[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="asymmetric"):
            MetricPerturbation(PolynomialPerturbation({2: m}))


# -- functional gradient and EL residual -----------------------------------------


def random_curvature_batch(rng, n):
    R = rng.standard_normal((n, 4, 4, 4, 4))
    R = R - R.transpose(0, 2, 1, 3, 4)
    R = R - R.transpose(0, 1, 2, 4, 3)
    return 0.5 * (R + R.transpose(0, 3, 4, 1, 2))


class TestFunctionalGradient:
    def test_gradient_field_index_loop_oracle(self):
        """f = 1/2 |z|^2 g - R(z) - r o z against naive index loops."""
        rng = np.random.default_rng(23)
        R = random_curvature_batch(rng, 3)
        z = rng.standard_normal((3, 4, 4))
        z = 0.5 * (z + z.transpose(0, 2, 1))
        r = rng.standard_normal((3, 4, 4))
        r = 0.5 * (r + r.transpose(0, 2, 1))
        got = gradient_field(z, R, r)
        want = np.zeros_like(got)
        for npt in range(3):
            z2 = sum(z[npt, a, b] ** 2 for a in range(4) for b in range(4))
            for x in range(4):
                for y in range(4):
                    rc = sum(
                        z[npt, w, i] * R[npt, x, i, y, w]
                        for i in range(4)
                        for w in range(4)
                    )
                    rc_t = sum(
                        z[npt, w, i] * R[npt, y, i, x, w]
                        for i in range(4)
                        for w in range(4)
                    )
                    comp = sum(r[npt, x, e] * z[npt, e, y] for e in range(4))
                    comp_t = sum(r[npt, y, e] * z[npt, e, x] for e in range(4))
                    want[npt, x, y] = (
                        0.5 * z2 * (1.0 if x == y else 0.0)
                        - 0.5 * (rc + rc_t)
                        - 0.5 * (comp + comp_t)
                    )
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_einstein_t2_matches_dfalg(self):
        rng = np.random.default_rng(31)
        R = random_curvature_batch(rng, 1)
        got = _einstein_t2_on(R)[0]
        want = dfalg.einstein_t2(dfalg.DoubleForm.from_dense(4, 2, 2, R[0])).entries
        assert np.max(np.abs(got - want)) < 1e-12

    def test_hyperbolic_el_residual_vanishes(self):
        """Einstein background: z = 0 so f, omega, and E all vanish."""
        res = functional_gradient(RadialGeometry(hyperbolic_profile()))
        assert np.max(res["slice_norms"]) < 1e-8
        assert np.max(np.abs(res["f"])) < 1e-10
        assert np.max(np.abs(res["T2omega"])) < 1e-8

    def test_one_engine_call_per_stencil_rho(self, monkeypatch):
        """Each rho costs one full record, serving z, f, q, the connection of
        the Hessian and the measure; the z-jet costs 12 frame-only (Ricci)
        slices at the Chebyshev nodes, shared by all rhos.  Every slice builds
        its frame once, and the Hessian builds none of its own."""
        slices = {"curvature_in_frame": 0, "frame_curvature": 0, "_slice_frame": 0}

        def counting(owner, name):
            engine = getattr(owner, name)

            def wrapper(geom, rho):
                slices[name] += np.size(rho)
                return engine(geom, rho)

            monkeypatch.setattr(owner, name, wrapper)

        counting(variation, "curvature_in_frame")
        counting(variation, "frame_curvature")
        counting(collar, "_slice_frame")
        functional_gradient(RadialGeometry(perturbed_profile([0.05, 0.05, 0.05])))
        assert slices == {"curvature_in_frame": 9, "frame_curvature": 12, "_slice_frame": 21}

    @pytest.mark.parametrize(
        "geom",
        [
            RadialGeometry(perturbed_profile([0.05, -0.03, 0.02])),
            TorusJetGeometry(random_jet(17, n_grid=4)),
        ],
        ids=["radial", "torus"],
    )
    def test_interpolated_residual_matches_stencil(self, geom):
        """E from the Chebyshev z-jet agrees with E from the 5-point
        finite-difference z-jet (tests/oracles.py) to 1e-7 relative."""
        res = functional_gradient(geom)
        want = stencil_el_residual(geom, res["rhos"])
        assert np.max(np.abs(res["E"] - want)) < 1e-7 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "geom",
        [
            RadialGeometry(perturbed_profile([0.05, -0.03, 0.02])),
            TorusJetGeometry(random_jet(17, n_grid=4)),
        ],
        ids=["radial", "torus"],
    )
    def test_frame_z_matches_inverse_metric_route(self, geom):
        """The frame-index route of the z-jet, ric_ab = gbar^su R_saub and
        z = ric - s/4 gbar with the record's ginv, equals the record's ON z
        pulled back through q, z_frame = (gbar q) z_on (gbar q)^T, and the same
        route with np.linalg.inv."""
        for rho in (0.3, 0.45):
            cur = curvature_in_frame(geom, rho)
            got = _frame_z(cur)
            gq = cur["gbar"] @ cur["q"]
            pulled_back = gq @ cur["invariants"]["z"] @ gq.transpose(0, 2, 1)
            ginv = np.linalg.inv(cur["gbar"])
            ric = np.einsum("nsu,nsaub->nab", ginv, cur["riem"])
            s = np.einsum("nab,nab->n", ginv, ric)
            for want in (pulled_back, ric - 0.25 * s[:, None, None] * cur["gbar"]):
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
            assert np.array_equal(got, _frame_z(frame_curvature(geom, rho)))

    def test_functional_gradient_refuses_nonpositive_rho(self):
        geom = RadialGeometry(hyperbolic_profile())
        for rhos in ([0.0, 0.1], [-0.1, 0.2]):
            with pytest.raises(ValueError, match="rho > 0"):
                functional_gradient(geom, rhos=rhos)

    def test_functional_gradient_refuses_rho_past_the_collar(self):
        """A rho past geom.rho_max (2, the radial cap) is refused: z's
        interpolation interval would cross the cap and corrupt every slice."""
        geom = RadialGeometry(perturbed_profile([0.05, 0.05, 0.05]))
        with pytest.raises(ValueError, match="rho_max"):
            functional_gradient(geom, rhos=[0.3, 0.5, 0.7, 0.9, 1.1, 2.5])

    def test_functional_gradient_takes_one_rho(self):
        """One rho is enough, and its E agrees with the stencil oracle."""
        geom = RadialGeometry(perturbed_profile([0.05, -0.03, 0.02]))
        res = functional_gradient(geom, rhos=[0.3])
        want = stencil_el_residual(geom, [0.3])
        assert res["E"].shape == want.shape == (1, 1, 4, 4)
        assert np.max(np.abs(res["E"] - want)) < 1e-7 * np.max(np.abs(want))

    @pytest.mark.parametrize("rho", [0.5, 1.0, 1.5])
    def test_z_tail_tracks_the_error_of_E(self, rho):
        """The tail of z's Chebyshev series is within 10x of E's error against
        the stencil oracle (steps 0.002 and 0.001 agree to 1e-9): 3.4e-9, 1.1e-5
        and 1.0e-2 against 5.1e-10, 8.7e-6 and 3.0e-2."""
        geom = RadialGeometry(perturbed_profile([0.05, 0.05, 0.05]))
        res = functional_gradient(geom, rhos=[rho])
        want = stencil_el_residual(geom, [rho], 0.002)
        error = np.max(np.abs(res["E"] - want)) / np.max(np.abs(want))
        assert 0.1 < res["z_tail"] / error < 10.0

    def test_z_tail_of_the_ball_is_roundoff(self):
        """The ball's z is roundoff; the floored scale keeps its tail there too."""
        assert functional_gradient(RadialGeometry(hyperbolic_profile()))["z_tail"] < 1e-9

    @pytest.mark.parametrize("support", [(0.15, 0.25), (0.05, 0.5), (0.35, 0.55), (0.02, 0.09)])
    def test_display_and_fd_integrate_over_the_support(self, support):
        """Both routes integrate over the perturbation's own support, whatever
        it is, and agree to 1e-6 relative (the windows' C^3 kinks sit at the
        ends of the one Gauss segment, not inside it)."""
        geom = RadialGeometry(perturbed_profile([0.05, -0.03, 0.02]))
        pert = MetricPerturbation(CutoffPerturbation(np.diag([1.0, -0.5, 0.3])[None], *support))
        disp, fd = zprime_display(geom, pert), fd_zprime(geom, pert)
        assert abs(disp - fd) < 1e-6 * abs(fd), (disp, fd)

    def test_a_perturbation_without_support_is_refused(self):
        geom = RadialGeometry(perturbed_profile([0.05, -0.03, 0.02]))
        m = np.eye(3)[None]
        pert = PolynomialPerturbation({2: m, 3: -m})
        for route in (zprime_display, fd_zprime):
            with pytest.raises(ValueError, match="support"):
                route(geom, pert)
            with pytest.raises(ValueError, match="support"):
                route(geom, MetricPerturbation(pert))

    def test_directional_derivative_matches_fd(self):
        """<gradient display, h> vs central FD of the regularized functional
        along g + t h, relative error < 1e-3, three perturbations."""
        rng = np.random.default_rng(21)
        geom = RadialGeometry(perturbed_profile([0.03, -0.02, 0.015]))
        for _ in range(3):
            m = rng.uniform(-1.0, 1.0, (1, 3, 3))
            pert = MetricPerturbation(CutoffPerturbation(0.5 * (m + m.transpose(0, 2, 1))))
            disp = zprime_display(geom, pert)
            fd = fd_zprime(geom, pert)
            assert abs(disp - fd) < 1e-3 * abs(fd), (disp, fd)

    @pytest.mark.parametrize("torus", [False, True], ids=["radial", "torus"])
    def test_display_reads_the_linearized_curvature_ingredients(self, torus):
        """zprime_display is, bit for bit, the display integrated from
        linearized_curvature's h, Hessian and background record."""
        geom = (TorusJetGeometry(random_jet(17, n_grid=4)) if torus
                else RadialGeometry(perturbed_profile([0.03, -0.02, 0.015])))
        m = np.random.default_rng(23).uniform(-1.0, 1.0, (geom.npts, 3, 3))
        pert = CutoffPerturbation(m + m.transpose(0, 2, 1))
        nodes, wts = collar.gauss_nodes([variation.DEFAULT_SUPPORT], 6)

        def density(rho):
            lin = linearized_curvature(geom, pert, rho)
            cur = lin["background"]
            inv = cur["invariants"]
            val = np.einsum("nab,nab->n", gradient_field(inv["z"], cur["riem_on"], inv["ric"]),
                            lin["h_on"])
            val -= 0.125 * np.einsum("nabcd,nabcd->n", dfalg.kn_metric(inv["z"]), lin["hessian"])
            meas = (geom.weight * cur["dvol"]).reshape(rho.size, -1) / rho[:, None] ** 4
            return np.sum(val.reshape(rho.size, -1) * meas, axis=1)

        want = float(wts @ collar.map_slices(density, nodes, geom.npts))
        assert zprime_display(geom, pert, n_nodes=6) == want

    @pytest.mark.xfail(
        strict=True,
        reason="stated gradient display carries coefficient 4 on the "
        "curvature-action term; finite differences of the functional "
        "require coefficient 1 (documented discrepancy)",
    )
    def test_directional_derivative_stated_coefficient(self):
        rng = np.random.default_rng(21)
        geom = RadialGeometry(perturbed_profile([0.03, -0.02, 0.015]))
        m = rng.uniform(-1.0, 1.0, (1, 3, 3))
        pert = MetricPerturbation(CutoffPerturbation(0.5 * (m + m.transpose(0, 2, 1))))
        disp = zprime_display_stated(geom, pert)
        fd = fd_zprime(geom, pert)
        assert abs(disp - fd) < 1e-3 * abs(fd)


class TestSliceBatching:
    """The variation layer's rho-walkers give the same numbers whatever
    batches collar.map_slices cuts the slices into."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(29)
        for geom in (
            RadialGeometry(perturbed_profile([0.03, -0.02, 0.015])),
            TorusJetGeometry(random_jet(17, n_grid=4)),
        ):
            m = rng.uniform(-1.0, 1.0, (geom.npts, 3, 3))
            m = m + m.transpose(0, 2, 1)
            yield geom, CutoffPerturbation(m), PolynomialPerturbation({2: m, 3: -0.5 * m})

    @staticmethod
    def _outputs(geom, cutoff, poly):
        grad = functional_gradient(geom, rhos=np.linspace(0.1, 0.5, 6))
        rhos = np.array([0.2, 0.3, 0.45])

        def lin_fields(rho):
            lin = linearized_curvature(geom, poly, rho)
            return lin["riem_p"], lin["ric_p"], lin["s_p"], lin["hessian"]

        return (
            grad["f"], grad["T2omega"], grad["E"], grad["slice_norms"],
            np.array(zprime_display(geom, cutoff, n_nodes=6)),
            *collar.map_slices(lin_fields, rhos, geom.npts),
        )

    def test_one_point_batches_match_default(self, monkeypatch):
        for geom, cutoff, poly in self._cases():
            want = self._outputs(geom, cutoff, poly)
            monkeypatch.setattr(collar, "_CHUNK_POINTS", 1)
            got = self._outputs(geom, cutoff, poly)
            monkeypatch.undo()
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-13 * max(1e-300, np.max(np.abs(b)))


class TestSliceAnalysis:
    def test_hyperbolic_profile_is_critical(self):
        pert = PolynomialPerturbation({2: 0.4 * np.eye(3)[None], 3: -0.6 * np.eye(3)[None]})
        rep = el_slice_analysis(RadialGeometry(hyperbolic_profile()), pert)
        assert rep["critical"]
        assert np.max(rep["contributions"]) < 1e-8

    def test_noncritical_profile_reports_structure(self):
        """Non-Einstein profile: phi has a nonzero leading coefficient, the
        order-3 pairing members vanish structurally (E = O(rho^2) on the
        radial family), and the order-4 pairing reproduces phi^(4)."""
        geom = RadialGeometry(perturbed_profile([0.05, -0.03, 0.02]))
        pert = PolynomialPerturbation({2: 0.4 * np.eye(3)[None], 3: -0.6 * np.eye(3)[None]})
        rep = el_slice_analysis(geom, pert)
        assert not rep["critical"]
        c4 = rep["coefficients"][4]
        assert abs(c4) > 1.0
        assert abs(rep["phi3_from_pairing"]) < 1e-3 * abs(c4)
        assert abs(rep["phi4_from_pairing"] - c4) < 1e-4 * abs(c4)
        # E^(0) and E^(1) themselves are at roundoff
        assert np.max(np.abs(rep["e_series"][:2])) < 1e-9
        # E = O(rho^2) and h = O(rho^2), so exactly phi^(0) to phi^(3) vanish
        assert rep["vanishing_orders"] == [0, 1, 2, 3]

    @pytest.mark.parametrize("theta", [(0.01, 0.0, 0.0), (0.05, -0.03, 0.02)])
    def test_pairing_is_frame_independent(self, theta, monkeypatch):
        """The order-4 pairing moves by at most 1e-7 relative when the
        Cholesky frame is swapped for the symmetric one."""
        geom = RadialGeometry(perturbed_profile(list(theta)))
        pert = PolynomialPerturbation({2: 0.4 * np.eye(3)[None], 3: -0.6 * np.eye(3)[None]})
        cholesky = el_slice_analysis(geom, pert)["phi4_from_pairing"]
        monkeypatch.setattr(collar, "_on_frame", symmetric_frame)
        symmetric = el_slice_analysis(geom, pert)["phi4_from_pairing"]
        assert abs(cholesky - symmetric) <= 1e-7 * abs(symmetric)

    @pytest.mark.parametrize("power", [0, 1])
    def test_refuses_a_perturbation_that_is_not_boundary_fixing(self, power):
        """The pairings assume h^(0) = h^(1) = 0: with a rho^0 term phi4_from_pairing
        read 6.63 against phi^(4) = 20.37."""
        geom = RadialGeometry(perturbed_profile([0.05, 0.05, 0.05]))
        m = 0.4 * np.eye(3)[None]
        with pytest.raises(ValueError, match="not boundary-fixing"):
            el_slice_analysis(geom, PolynomialPerturbation({power: m, 2: m}))

    def test_pairing_linearity(self):
        geom = RadialGeometry(perturbed_profile([0.05, -0.03, 0.02]))
        m = np.eye(3)[None]
        rep1 = el_slice_analysis(geom, PolynomialPerturbation({2: 0.4 * m, 3: -0.6 * m}))
        rep2 = el_slice_analysis(geom, PolynomialPerturbation({2: 0.8 * m, 3: -1.2 * m}))
        assert np.allclose(rep2["coefficients"], 2.0 * rep1["coefficients"], rtol=0, atol=1e-12)


# -- gradient flow ----------------------------------------------------------------


class TestGradientFlow:
    def test_zero_step_is_noop(self):
        value0 = z2_functional([0.05, 0.05, 0.05])
        theta, value, used = gradient_flow_step([0.05, 0.05, 0.05], value0, 0.0)
        assert np.array_equal(theta, [0.05, 0.05, 0.05])
        assert used == 0.0
        assert value == value0

    def test_step_does_not_evaluate_at_theta(self):
        """The step takes the value at theta from its caller: it evaluates the
        functional twice per parameter, then once per line-search candidate."""
        theta0 = np.array([0.05, 0.05, 0.05])
        calls = []

        def counting(theta):
            calls.append(np.array(theta))
            return z2_functional(theta)

        _, _, used = gradient_flow_step(theta0, z2_functional(theta0), 0.5, functional=counting)
        candidates = round(math.log2(0.5 / used)) + 1
        assert candidates > 1
        assert len(calls) == 2 * theta0.size + candidates
        assert not any(np.array_equal(theta, theta0) for theta in calls)

    def test_hyperbolic_start_is_stationary(self):
        theta, value, _ = gradient_flow_step([0.0, 0.0, 0.0], z2_functional([0.0, 0.0, 0.0]), 1e-3)
        assert np.max(np.abs(theta)) < 1e-8
        assert value < 1e-20

    def test_stalled_after_max_halvings(self):
        """A kinked functional whose finite-difference gradient points
        uphill exhausts the backtracking budget."""

        def kinked(theta):
            t = float(np.asarray(theta)[0])
            return t if t >= 0.05 else 1000.0 * (0.05 - t) + 0.05

        with pytest.raises(RuntimeError, match="stalled"):
            gradient_flow_step([0.05], kinked([0.05]), 1e-3, functional=kinked)

    def test_probe_outside_the_profile_family_is_nonconvergence(self):
        """On the edge of the family (bisected along -theta_0 to where A's
        minimum on (0, 2) reaches 0), a gradient probe leaves the family: a
        NonConvergence, not a bare ValueError."""
        inside, outside = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            try:
                perturbed_profile([-mid])
                inside = mid
            except InvalidProfile:
                outside = mid
        with pytest.raises(NonConvergence, match="probe left the profile family"):
            gradient_flow_step([-inside], z2_functional([-inside]), 1e-3)

    def test_non_finite_probe_is_nonconvergence(self):
        """A probe at a NaN theta leaves the profile family at once, instead
        of a NaN gradient feeding 21 line-search candidates into "stalled"."""
        calls = []

        def counting(theta):
            calls.append(np.array(theta))
            return z2_functional(theta)

        with pytest.raises(NonConvergence, match="gradient probe left the profile family"):
            gradient_flow_step([math.nan, 0.05, 0.05], 1.0, 1e-3, functional=counting)
        assert len(calls) == 1

    def test_descent_is_monotone(self):
        history = run_flow([0.05, 0.05, 0.05], steps=8, eta=1e-3)
        values = [h.value for h in history]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5 * values[0]
