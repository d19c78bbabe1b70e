"""Tests for collar metrics, frame Christoffels, curvature, and rho-series."""

import ctypes
import math

import numpy as np
import pytest

from ahrenvol import cli, collar, dfalg, renorm, variation
from ahrenvol.collar import (
    BoundaryJet,
    ChebyshevRhoBasis,
    PerturbedGeometry,
    PolynomialPerturbation,
    RadialGeometry,
    TorusJetGeometry,
    chebyshev_rho_nodes,
    curvature_bar,
    curvature_in_frame,
    det_series,
    hyperbolic_profile,
    jet_identity_report,
    perturbed_profile,
    random_jet,
    require_positive,
    rho_series_fit,
    slice_integral,
)
from ahrenvol.variation import CutoffPerturbation, z2_functional

import oracles

HYP = np.einsum("su,tv->stuv", np.eye(4), np.eye(4)) - np.einsum(
    "sv,tu->stuv", np.eye(4), np.eye(4)
)


class TestProfiles:
    def test_hyperbolic_profile_jet(self):
        """A = 1 - rho^2/4 squares to 1 - rho^2/2 + rho^4/16: g2 = -gamma/2, g3 = 0."""
        prof = hyperbolic_profile()
        geom = RadialGeometry(prof)
        _, _, d2, d3 = geom.spatial(0.0)
        assert np.allclose(d2[0] / 2.0, -0.5 * np.eye(3), atol=1e-14)
        assert np.allclose(d3[0], 0.0, atol=1e-14)

    def test_profile_validation(self):
        from numpy.polynomial import Polynomial

        with pytest.raises(ValueError, match="A'\\(0\\) = 0"):
            collar.RadialProfile(Polynomial([1.0, 0.1, -0.25 - 0.1 * 0.0]))
        with pytest.raises(ValueError, match="A\\(0\\) = 1"):
            collar.RadialProfile(Polynomial([1.1, 0.0, -0.25]))
        # the ball's A with rho mapped from [0, 2]: the right function, but its
        # coefficients are not those of a power series in rho
        with pytest.raises(ValueError, match="power series"):
            collar.RadialProfile(hyperbolic_profile().poly.convert(domain=[0.0, 2.0]))

    def test_kept_derivatives_match_polynomial(self):
        prof = perturbed_profile([0.03, -0.02, 0.01])
        rr = np.random.default_rng(4).uniform(0.0, 2.0, 500)
        for k in range(4):
            assert np.array_equal(prof.a(rr, k), prof.poly.deriv(k)(rr))

    def test_basis_jet_is_the_profiles_theta_derivative(self):
        """A is linear in theta, so dA/dtheta_k is perturbed_profile(e_k) - A_ball
        exactly; the factored jet reads its first three derivatives."""
        n = 6
        rr = np.linspace(0.0, 2.0, 41)
        jet = collar.profile_basis_jet(n, rr)
        assert jet.shape == (n, 3, rr.size)
        ball = hyperbolic_profile().poly
        for k in range(n):
            bump = perturbed_profile(np.eye(n)[k]).poly - ball
            for order in range(3):
                want = bump.deriv(order)(rr)
                assert np.max(np.abs(jet[k, order] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_perturbed_profile_keeps_conditions(self):
        prof = perturbed_profile([0.03, -0.02, 0.01])
        assert prof.a(0.0) == pytest.approx(1.0, abs=1e-13)
        assert prof.a(0.0, 1) == pytest.approx(0.0, abs=1e-13)
        assert prof.a(2.0) == pytest.approx(0.0, abs=1e-12)
        assert prof.a(2.0, 1) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("size", range(6))
    def test_perturbed_profile_matches_polynomial_arithmetic(self, size):
        rng = np.random.default_rng(size)
        for theta in (np.zeros(size), -0.05 * np.ones(size), rng.uniform(-0.1, 0.1, size)):
            want = oracles.perturbed_profile_polynomial(theta)
            prof = perturbed_profile(theta)
            assert prof.poly.coef.tobytes() == want.coef.tobytes()
            for k in range(4):
                assert prof._derivs[k].tobytes() == want.deriv(k).coef.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_refused(self, bad):
        """A non-finite parameter leaves the family, refused by the finite
        coefficient check with no warning: ahead of it, the boundary checks'
        polyval warned "invalid value encountered" on an infinite one."""
        for theta in ([bad], [0.05, bad, 0.0]):
            with pytest.raises(collar.InvalidProfile, match="coefficients must be finite"):
                perturbed_profile(theta)
        with pytest.raises(collar.InvalidProfile, match="coefficients must be finite"):
            z2_functional([bad, 0.0, 0.0])

    def test_perturbed_profile_zero_amplitude(self):
        prof = perturbed_profile([0.0, 0.0])
        rr = np.linspace(0.01, 1.9, 50)
        assert np.allclose(prof.a(rr), hyperbolic_profile().a(rr), atol=1e-15)


class TestGaussNodes:
    @pytest.mark.parametrize("n", [8, 32, 48, 64])
    def test_cached_table_is_leggauss(self, n):
        xs, ws = collar._legendre_table(n)
        want_xs, want_ws = np.polynomial.legendre.leggauss(n)
        assert xs.tobytes() == want_xs.tobytes() and ws.tobytes() == want_ws.tobytes()
        assert collar._legendre_table(n)[0] is xs
        for table in (xs, ws):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_float_count_still_raises(self):
        collar.gauss_nodes([(0.0, 1.0)], 32)
        with pytest.raises(TypeError):
            collar.gauss_nodes([(0.0, 1.0)], 32.0)


class TestSampling:
    def test_flat_jet_is_product(self):
        geom = TorusJetGeometry(BoundaryJet.flat(4))
        require_positive(geom, [0.1, 0.5])
        for rho in (0.1, 0.5):
            assert np.allclose(geom.spatial(rho)[0], np.eye(3), atol=1e-15)

    def test_jet_substitution(self):
        """gamma = I, g2 = 0, g3 = diag(a, b, c) at rho = 0.1."""
        d = np.diag([1.0, 2.0, 3.0])
        geom = TorusJetGeometry(BoundaryJet.constant(4, np.eye(3), np.zeros((3, 3)), d))
        require_positive(geom, 0.1)
        assert np.allclose(geom.spatial(0.1)[0], np.eye(3) + 1e-3 * d, atol=1e-15)

    def test_positivity_error(self):
        jet = BoundaryJet.constant(4, np.eye(3), -10.0 * np.eye(3), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="not positive-definite at rho=0.5, point index 0"):
            require_positive(TorusJetGeometry(jet), [0.1, 0.5])

    @pytest.mark.parametrize("pivot", ["second", "third"])
    def test_positivity_error_with_positive_diagonal(self, pivot):
        """g_0.5 has unit diagonal but is indefinite, caught at the second
        Cholesky pivot (a [[1, 2], [2, 1]] block) or the third (g_02 = g_12 =
        0.8); g_0.1 is positive."""
        g2 = np.zeros((3, 3))
        if pivot == "second":
            g2[0, 1] = g2[1, 0] = 8.0
        else:
            g2[0, 2] = g2[2, 0] = g2[1, 2] = g2[2, 1] = 3.2
        geom = TorusJetGeometry(BoundaryJet.constant(4, np.eye(3), g2, np.zeros((3, 3))))
        assert np.all(np.linalg.eigvalsh(geom.spatial(0.1)[0]) > 0.0)
        assert np.min(np.linalg.eigvalsh(geom.spatial(0.5)[0])) < 0.0
        with pytest.raises(ValueError, match="not positive-definite at rho=0.5, point index 0"):
            require_positive(geom, [0.1, 0.5])

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 2)])
    def test_nan_metric_is_not_positive(self, entry):
        """A NaN entry of g_rho at one point, on the diagonal or off it, fails
        the test at that point on the first slice.  A jet refuses a NaN, so it
        enters as a rho^3 perturbation of the flat torus."""
        g3 = np.zeros((4, 4, 4, 3, 3))
        g3[0, 1, 1][entry] = g3[0, 1, 1][entry[::-1]] = np.nan
        pert = PolynomialPerturbation({3: g3.reshape(64, 3, 3)})
        geom = PerturbedGeometry(TorusJetGeometry(BoundaryJet.flat(4)), pert, 1.0)
        with pytest.raises(ValueError, match="not positive-definite at rho=0.1, point index 5"):
            require_positive(geom, [0.1, 0.5])

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 2)])
    def test_pivot_test_fails_a_nan(self, entry):
        """The one positive-definiteness rule fails a gamma or g_rho with a NaN
        entry, passes the matrices beside it, and warns of nothing."""
        g = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
        g[1][entry] = g[1][entry[::-1]] = np.nan
        with np.errstate(all="raise"):
            assert collar._positive_pivots(g).tolist() == [True, False, True]

    @pytest.mark.parametrize("field", ["gamma", "g2", "g3"])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    def test_jet_refuses_a_nan(self, field, entry):
        """A symmetric NaN pair at one grid point of any field is refused: the
        symmetry check and eigvalsh(gamma) <= 0 both let a NaN through."""
        fields = {name: getattr(BoundaryJet.flat(4), name) for name in ("gamma", "g2", "g3")}
        fields[field][0, 1, 1][entry] = fields[field][0, 1, 1][entry[::-1]] = np.nan
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BoundaryJet(4, **fields)

    @pytest.mark.parametrize("pivot", ["second", "third"])
    def test_jet_refuses_an_indefinite_gamma(self, pivot):
        """gamma with unit diagonal, indefinite at one grid point, is caught at
        the second Cholesky pivot ([[1, 2], [2, 1]]) or the third (gamma_02 =
        gamma_12 = 0.8)."""
        gamma = BoundaryJet.flat(4).gamma
        if pivot == "second":
            gamma[2, 3, 0][0, 1] = gamma[2, 3, 0][1, 0] = 2.0
        else:
            gamma[2, 3, 0][0, 2] = gamma[2, 3, 0][2, 0] = 0.8
            gamma[2, 3, 0][1, 2] = gamma[2, 3, 0][2, 1] = 0.8
        assert np.min(np.linalg.eigvalsh(gamma)) < 0.0
        zero = np.zeros_like(gamma)
        with pytest.raises(ValueError, match="gamma must be positive-definite at every sample"):
            BoundaryJet(4, gamma, zero, zero.copy())

    def test_gbar_normal_form(self):
        """gbar_k4 = delta_k4 identically on every constructed sample."""
        jet = random_jet(11, n_grid=4)
        geom = TorusJetGeometry(jet)
        gbar = collar._gbar_blocks(geom, 0.23)[0]
        assert np.allclose(gbar[:, 3, :3], 0.0)
        assert np.allclose(gbar[:, :3, 3], 0.0)
        assert np.allclose(gbar[:, 3, 3], 1.0)

    def test_random_jet_determinism_and_bounds(self):
        j1 = random_jet(5, n_grid=8, amplitude=0.05)
        j2 = random_jet(5, n_grid=8, amplitude=0.05)
        assert np.array_equal(j1.gamma, j2.gamma)
        assert np.max(np.abs(j1.gamma - np.eye(3))) <= 0.05 * 4 + 1e-12
        assert np.max(np.abs(j1.g3)) <= 0.05 * 4 + 1e-12


class TestRhoSeriesFit:
    def test_exact_polynomial(self):
        rho = np.linspace(0.05, 0.4, 8)
        series = rho_series_fit(rho, 1.0 + rho**3)
        assert np.allclose(series.coeffs, [1.0, 0.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert series.residual < 1e-12

    def test_field_valued(self):
        rho = np.linspace(0.05, 0.4, 9)
        vals = np.stack([np.array([[r, r**2], [2.0, r**4]]) for r in rho])
        series = rho_series_fit(rho, vals)
        assert series.coeffs[1][0, 0] == pytest.approx(1.0, abs=1e-10)
        assert series.coeffs[2][0, 1] == pytest.approx(1.0, abs=1e-10)
        assert series.coeffs[0][1, 0] == pytest.approx(2.0, abs=1e-10)
        assert series.coeffs[4][1, 1] == pytest.approx(1.0, abs=1e-8)

    def test_errors(self):
        with pytest.raises(ValueError, match="at least"):
            rho_series_fit(np.array([0.1, 0.2, 0.3]), np.ones(3), k_max=4)
        rho = 0.4 * 0.5 ** np.arange(20)
        with pytest.raises(ValueError, match="ill-conditioned Vandermonde"):
            rho_series_fit(rho, np.ones(20), k_max=12)


class TestChebyshevDerivatives:
    def test_nodes_are_the_first_kind_points(self):
        nodes = chebyshev_rho_nodes(0.5, 12)
        k = np.arange(12)
        assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < 0.5
        assert np.allclose(1.0 - 4.0 * nodes, np.cos(math.pi * (k + 0.5) / 12), atol=1e-15)

    def test_exact_on_polynomials_of_the_interpolant_degree(self):
        """Degree n - 1 polynomials are reproduced with their derivatives;
        field axes ride along and rho may be a scalar or an array."""
        nodes = chebyshev_rho_nodes(0.5, 12)
        poly = np.polynomial.Polynomial(np.random.default_rng(3).uniform(-1.0, 1.0, 12))
        vals = np.stack([poly(nodes), 2.0 * poly(nodes)], axis=1).reshape(12, 1, 2)
        rho = np.array([0.0, 0.13, 0.5])
        basis = ChebyshevRhoBasis(nodes, 0.5)
        for order, got in zip((0, 1, 2, 3), basis.derivatives(vals, rho, (0, 1, 2, 3))):
            want = poly.deriv(order)(rho) if order else poly(rho)
            assert got.shape == (3, 1, 2)
            # each differentiation amplifies the samples' roundoff by up to ~n^2
            assert np.max(np.abs(got[:, 0] - np.stack([want, 2.0 * want], axis=1))) < (
                1e-9 * np.max(np.abs(want)))
        (slope,) = basis.derivatives(vals[:, 0, 0], 0.0)
        assert slope.shape == () and slope == pytest.approx(poly.deriv()(0.0), rel=1e-10)

    def test_basis_reads_equal_a_fresh_interpolant(self):
        """A basis built once gives, read after read, the bits of a fresh
        basis of the same nodes, by derivatives or by weights."""
        nodes = chebyshev_rho_nodes(0.5, 12)
        vals = np.random.default_rng(5).uniform(-1.0, 1.0, (12, 4, 3))
        basis = ChebyshevRhoBasis(nodes, 0.5)
        for rho in (0.0, np.array([0.1, 0.3]), np.array([0.3, 0.1])):
            want = ChebyshevRhoBasis(nodes, 0.5).derivatives(vals, rho, (0, 1, 2))
            for got in (basis.derivatives(vals, rho, (0, 1, 2)),
                        [(basis.weights(rho, k) @ vals.reshape(12, -1)).reshape(w.shape)
                         for k, w in zip((0, 1, 2), want)]):
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_converges_on_an_analytic_field(self):
        """exp(rho) on [0, 0.2]: 16 nodes give the slope at 0 to roundoff."""
        nodes = chebyshev_rho_nodes()
        (slope, curv) = ChebyshevRhoBasis(nodes, 0.2).derivatives(np.exp(nodes), 0.0, (1, 2))
        assert abs(slope - 1.0) < 1e-12 and abs(curv - 1.0) < 1e-9


class TestChristoffels:
    def test_gamma4_expansion_coefficients(self):
        """(Gamma^4_ij)^(0) = gamma, ^(1) = ^(2) = 0, ^(3) = -g3/2.

        Gamma^4_ij is a cubic in rho, so the degree-4 least-squares fit reads
        its rho^3 coefficient to 2e-12; a degree-15 Chebyshev interpolant
        read it 3.2e-8 off."""
        jet = random_jet(7, n_grid=4, amplitude=0.05)
        geom = TorusJetGeometry(jet)
        grid = 0.4 * 0.5 ** np.arange(10)
        gammas = [collar.frame_curvature(geom, r)["gamma"] for r in grid]
        series = rho_series_fit(grid, np.stack(gammas))
        g4 = lambda k: series.coeffs[k][:, 3, :3, :3]
        assert np.max(np.abs(g4(0) - jet.gamma.reshape(-1, 3, 3))) < 1e-10
        assert np.max(np.abs(g4(1))) < 1e-10
        assert np.max(np.abs(g4(2))) < 1e-9
        assert np.max(np.abs(g4(3) + 0.5 * jet.g3.reshape(-1, 3, 3))) < 1e-8

    def test_two_fours_vanish(self):
        """Gamma^u_st = 0 whenever two of {s, t, u} equal 4."""
        jet = random_jet(8, n_grid=4, amplitude=0.05)
        geom = TorusJetGeometry(jet)
        for rho in (0.05, 0.3):
            gamma = collar.frame_curvature(geom, rho)["gamma"]
            assert np.max(np.abs(gamma[:, 3, 3, 3])) < 1e-14  # s=t=u=4
            assert np.max(np.abs(gamma[:, 3, :3, 3])) < 1e-14  # Gamma^4_i4
            assert np.max(np.abs(gamma[:, 3, 3, :3])) < 1e-14  # Gamma^4_4i
            assert np.max(np.abs(gamma[:, :3, 3, 3])) < 1e-14  # Gamma^i_44

    def test_radial_christoffels_match_closed_form(self):
        """Gammabar^4_ij = -A A' delta_ij, Gammabar^i_4j = (A'/A) delta_ij."""
        prof = hyperbolic_profile()
        geom = RadialGeometry(prof)
        rho = 0.7
        a, a1 = prof.a(rho), prof.a(rho, 1)
        gbar = collar.christoffels_bar(geom, collar._slice_frame(geom, rho))[0][0]
        assert np.allclose(gbar[3, :3, :3], -a * a1 * np.eye(3), atol=1e-13)
        assert np.allclose(gbar[:3, 3, :3][np.arange(3), np.arange(3)], a1 / a, atol=1e-13)


class TestCurvature:
    def test_hyperbolic_profile_exact(self):
        """The Poincare ball has R_stuv = g_su g_tv - g_sv g_tu everywhere."""
        geom = RadialGeometry(hyperbolic_profile())
        for rho in (0.05, 0.4, 1.2, 1.9):
            cur = curvature_in_frame(geom, rho)
            assert np.max(np.abs(cur["riem_on"] - HYP)) < 1e-8
            assert cur["invariants"]["s"][0] == pytest.approx(12.0, abs=1e-10)
            assert dfalg.batch_pfaffian(cur["riem_on"])[0] == pytest.approx(
                3.0 / (4.0 * math.pi**2), rel=1e-10
            )

    def test_cusp_exact(self):
        geom = TorusJetGeometry(BoundaryJet.flat(4))
        for rho in (0.1, 0.8):
            cur = curvature_in_frame(geom, rho)
            assert np.max(np.abs(cur["riem_on"] - HYP)) < 1e-12

    def test_leading_coefficient_is_constant_curvature(self):
        """R^(0)_ijkl = gamma_ik gamma_jl - gamma_il gamma_jk on random jets."""
        jet = random_jet(21, n_grid=8, amplitude=0.05)
        geom = TorusJetGeometry(jet)
        grid = chebyshev_rho_nodes(0.2, 16)
        riems = np.stack([curvature_in_frame(geom, float(r))["riem"] for r in grid])
        series = rho_series_fit(grid, riems, k_max=6)
        gb = collar._gbar_blocks(geom, 0.0)[0]
        want = np.einsum("nsu,ntv->nstuv", gb, gb) - np.einsum("nsv,ntu->nstuv", gb, gb)
        assert np.max(np.abs(series.coeffs[0] - want)) < 1e-8
        assert np.max(np.abs(series.coeffs[1])) < 1e-7

    def test_third_coefficient_display(self):
        """R^(3)_ijkl equals the rho^3 part of G4_ik G4_jl - G4_il G4_jk, which
        is -1/2 (gamma_ik g3_jl + gamma_jl g3_ik - gamma_il g3_jk - gamma_jk g3_il)
        since G4 = gamma - rho^3 g3 / 2.  (The sign is pinned by the product
        structure; a +1/2 variant is inconsistent with it.)

        Curvature coefficients of even rho-parity are exactly invisible to the
        odd part of the series, so we extract c3 from the antisymmetrized
        samples (R(rho) - R(-rho))/2 fitted against odd powers only."""
        jet = random_jet(22, n_grid=8, amplitude=0.05)
        grid = chebyshev_rho_nodes(0.2, 16)
        geom = TorusJetGeometry(jet)
        odd = np.stack(
            [
                0.5
                * (
                    curvature_in_frame(geom, float(r))["riem"]
                    - curvature_in_frame(geom, -float(r))["riem"]
                )
                for r in grid
            ]
        )
        scaled = grid / grid.max()
        design = np.stack([scaled, scaled**3, scaled**5, scaled**7], axis=1)
        coef, *_ = np.linalg.lstsq(design, odd.reshape(len(grid), -1), rcond=None)
        c1 = (coef[0] / grid.max()).reshape(odd.shape[1:])
        c3 = (coef[1] / grid.max() ** 3).reshape(odd.shape[1:])
        assert np.max(np.abs(c1)) < 1e-9  # totally geodesic: no rho^1 term
        gb = collar._gbar_blocks(geom, 0.0)[0]
        g3 = np.zeros_like(gb)
        g3[:, :3, :3] = jet.g3.reshape(-1, 3, 3)
        want = -0.5 * (
            np.einsum("nik,njl->nijkl", gb, g3)
            + np.einsum("njl,nik->nijkl", gb, g3)
            - np.einsum("nil,njk->nijkl", gb, g3)
            - np.einsum("njk,nil->nijkl", gb, g3)
        )
        got = c3[:, :3, :3, :3, :3]
        assert np.max(np.abs(got - want[:, :3, :3, :3, :3])) < 1e-7

    def test_parity_of_invariants(self):
        """Fitted rho^1 coefficient of s, |r|^2, |R|^2 below 1e-6 of scale."""
        for seed in (31, 32, 33):
            jet = random_jet(seed, n_grid=8, amplitude=0.05)
            geom = TorusJetGeometry(jet)
            grid = chebyshev_rho_nodes(0.2, 16)
            fields = {"s": [], "r2": [], "R2": []}
            for rho in grid:
                inv = curvature_in_frame(geom, float(rho))["invariants"]
                for k in fields:
                    fields[k].append(inv[k])
            for k, vals in fields.items():
                arr = np.stack(vals)
                series = rho_series_fit(grid, arr, k_max=6)
                assert np.max(np.abs(series.coeffs[1])) < 1e-6 * np.max(np.abs(arr))

    def test_ambient_curvature_round_sphere(self):
        """At the cap rho -> 2 the ambient metric is smooth; spot-check the
        ambient unit-sphere slice curvature against the closed form at A = 1."""
        # profile with A(rho*) = 1 gives slice metric g_{S^3} exactly
        prof = hyperbolic_profile()
        geom = RadialGeometry(prof)
        bar = curvature_bar(geom, 1e-6)
        # at rho ~ 0, gbar ~ drho^2 + g_{S^3}: mixed components
        # Rbar_i4j4 -> A'^2 + A A'' = -1/2 (A' -> 0, A'' = -1/2)
        r_mixed = bar["riem"][0, :3, 3, :3, 3]
        assert np.allclose(r_mixed, -0.5 * np.eye(3), atol=1e-5)


class TestDetSeries:
    def test_trace_examples(self):
        d = np.diag([1.0, 2.0, 3.0])
        jet = BoundaryJet.constant(4, np.eye(3), d, np.zeros((3, 3)))
        out = det_series(TorusJetGeometry(jet))
        assert np.allclose(out["v2"], 3.0, atol=1e-12)
        jet = BoundaryJet.constant(4, np.eye(3), np.zeros((3, 3)), d)
        out = det_series(TorusJetGeometry(jet))
        assert np.allclose(out["v3"], 3.0, atol=1e-12)

    def test_hyperbolic_profile_values(self):
        geom = RadialGeometry(hyperbolic_profile())
        out = det_series(geom)
        assert out["v2"][0] == pytest.approx(-0.75, abs=1e-12)
        assert out["v3"][0] == pytest.approx(0.0, abs=1e-12)
        # cross-check against a least-squares series of the sampled density
        grid = 0.4 * 0.5 ** np.arange(10)
        g0 = geom.spatial(0.0)[0]
        dens = np.sqrt(np.linalg.det(geom.spatial(grid)[0]).reshape(grid.size, -1)
                       / np.linalg.det(g0)[None, :])
        assert rho_series_fit(grid, dens).coeffs[2][0] == pytest.approx(-0.75, abs=1e-3)

    def test_trace_identity_random_jets(self):
        """tr_gamma g3 = 2 v3, relative 1e-8, on random jets."""
        for seed in range(50, 56):
            jet = random_jet(seed, n_grid=4, amplitude=0.05)
            out = det_series(TorusJetGeometry(jet))
            flat = lambda f: f.reshape(-1, 3, 3)
            tr = np.einsum("nab,nab->n", np.linalg.inv(flat(jet.gamma)), flat(jet.g3))
            assert np.max(np.abs(tr - 2.0 * out["v3"])) < 1e-8 * max(
                1e-6, float(np.max(np.abs(tr)))
            )

    def test_totally_geodesic_error(self):
        """A nonzero first-order term is rejected with a diagnostic."""

        class OddGeometry(TorusJetGeometry):
            def spatial(self, rho, orders=4):
                g, d1, d2, d3 = super().spatial(rho)
                bump = 0.01 * np.eye(3)
                return (g + rho * bump, d1 + bump, d2, d3)[:orders]

        with pytest.raises(ValueError, match="collar not totally geodesic"):
            det_series(OddGeometry(BoundaryJet.flat(4)))


class TestJetIdentities:
    def test_hyperbolic_trivial(self):
        rep = jet_identity_report(RadialGeometry(hyperbolic_profile()))
        assert np.max(np.abs(rep["g3"])) < 1e-12
        assert rep["dev_g3_identity"] < 1e-9
        assert rep["dev_v3_identity"] < 1e-9

    def test_random_jets(self):
        """g3 = -1/3 d_rho Rbar_i4j4 and v3 = -1/6 d_rho ricbar_44 at rho=0."""
        for seed in (61, 62):
            jet = random_jet(seed, n_grid=8, amplitude=0.05)
            rep = jet_identity_report(TorusJetGeometry(jet))
            assert rep["dev_g3_identity"] < 1e-6
            assert rep["dev_v3_identity"] < 1e-6
            assert rep["dev_trace_identity"] < 1e-8

    def test_radial_perturbed(self):
        prof = perturbed_profile([0.02])
        rep = jet_identity_report(RadialGeometry(prof))
        assert rep["dev_g3_identity"] < 1e-8
        assert rep["dev_v3_identity"] < 1e-8

    @pytest.mark.parametrize(
        "geom",
        [TorusJetGeometry(random_jet(3, n_grid=8)), RadialGeometry(perturbed_profile([0.05] * 3))],
        ids=["torus", "radial"],
    )
    def test_node_fields_match_curvature_bar(self, monkeypatch, geom):
        """The report's node values of Rbar_{i4j4} and of ricbar_44, its trace
        gbar^ij Rbar_{i4j4}, match the whole Rbar and its Ricci to 1e-15 of
        their scale (the sign flipped, as the report flips it)."""
        seen = []

        def recording(fn, rho, npts, engine=collar.map_slices):
            seen.append(engine(fn, rho, npts))
            return seen[-1]

        monkeypatch.setattr(collar, "map_slices", recording)
        jet_identity_report(geom)
        r44, ric44 = seen[0][:2]
        bar = [curvature_bar(geom, rho) for rho in chebyshev_rho_nodes()]
        want_r = np.concatenate([b["riem"][:, :3, 3, :3, 3] for b in bar])
        want_ric = np.concatenate([b["ric"][:, 3, 3] for b in bar])
        assert np.max(np.abs(r44 + want_r)) <= 1e-15 * np.max(np.abs(want_r))
        assert np.max(np.abs(ric44 + want_ric)) <= 1e-15 * np.max(np.abs(want_ric))


class TestSliceIntegral:
    """collar.slice_integral, the one slice measure: per slice, the sum of
    field * weight * dvol * rho^-power over its boundary points."""

    def test_ball_volume_density(self):
        """2 pi^2 A^3 rho^-4 on the ball, for an array and a scalar rho."""
        geom = RadialGeometry(hyperbolic_profile())
        rho = np.array([0.02, 0.3, 1.1, 1.9])
        want = 2.0 * math.pi**2 * geom.profile.a(rho) ** 3 / rho**4
        dvol = collar._slice_frame(geom, rho)["dvol"]
        got = slice_integral(geom, rho, np.ones_like(dvol), dvol, 4)
        assert got.shape == rho.shape
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14
        one = slice_integral(geom, 0.3, np.ones(1), collar._slice_frame(geom, 0.3)["dvol"], 4)
        assert np.ndim(one) == 0
        assert abs(one / want[1] - 1.0) <= 1e-14

    def test_slices_are_rho_major(self):
        """A two-slice call equals two one-slice calls bit for bit."""
        geom = TorusJetGeometry(random_jet(3, n_grid=4))

        def integral(rho):
            frame = collar._slice_frame(geom, rho)
            return slice_integral(geom, rho, frame["ginv"][:, 0, 1], frame["dvol"], 3)

        both = integral(np.array([0.2, 0.7]))
        assert np.array_equal(both, [integral(0.2), integral(0.7)])
        assert both[0] != both[1]

    def test_power_zero_at_the_boundary(self):
        """The area of the boundary torus in gamma."""
        jet = random_jet(3, n_grid=4)
        geom = TorusJetGeometry(jet)
        dvol = collar._slice_frame(geom, 0.0)["dvol"]
        got = slice_integral(geom, 0.0, np.ones_like(dvol), dvol)
        want = geom.weight * np.sum(np.sqrt(np.linalg.det(jet.gamma)))
        assert got == pytest.approx(want, rel=1e-14)


class TestPerturbedGeometry:
    def test_linear_in_t(self):
        jet = BoundaryJet.flat(4)
        base = TorusJetGeometry(jet)
        m = PolynomialPerturbation({2: 0.3 * np.broadcast_to(np.eye(3), (64, 3, 3))})
        pert = PerturbedGeometry(base, m, t=0.1)
        g, d1, d2, d3 = pert.spatial(0.5)
        assert np.allclose(g, np.eye(3) + 0.1 * 0.3 * 0.25 * np.eye(3), atol=1e-15)
        assert np.allclose(d1, 0.1 * 0.3 * 1.0 * np.eye(3), atol=1e-15)
        assert np.allclose(d2, 0.1 * 0.3 * 2.0 * np.eye(3), atol=1e-15)
        assert np.allclose(d3, 0.0, atol=1e-15)

    @pytest.mark.parametrize("base", ["radial", "torus"])
    def test_one_t_per_slice(self, base):
        """With one t per slice, spatial is the stack of the scalar-t slices,
        bit for bit; a rho array of another length is refused."""
        geom = BATCH_GEOMETRIES[base]()
        m = PolynomialPerturbation({2: _sym_field(1, geom.npts), 3: _sym_field(2, geom.npts)})
        rhos, ts = np.array([0.12, 0.2, 0.2]), np.array([0.1, -0.1, 0.05])
        got = PerturbedGeometry(geom, m, ts).spatial(rhos)
        slices = [PerturbedGeometry(geom, m, t).spatial(rho) for rho, t in zip(rhos, ts)]
        for order, field in enumerate(got):
            assert field.tobytes() == np.concatenate([s[order] for s in slices]).tobytes()
        with pytest.raises(ValueError, match="3 values of t for 2 rho-slices"):
            PerturbedGeometry(geom, m, ts).spatial(rhos[:2])

    def test_two_dimensional_t_is_refused(self):
        """A 2-D t with one entry per slice is refused, not flattened."""
        geom = BATCH_GEOMETRIES["radial"]()
        m = PolynomialPerturbation({2: _sym_field(1, geom.npts)})
        with pytest.raises(ValueError, match=r"t must be a scalar or 1-D \(got shape \(2, 3\)\)"):
            PerturbedGeometry(geom, m, np.full((2, 3), 0.1))


def _sym_field(seed, npts):
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, (npts, 3, 3))
    return 0.5 * (m + m.transpose(0, 2, 1))


def _radial_theta():
    return RadialGeometry(perturbed_profile([0.03, -0.02, 0.015]))


def _torus4():
    return TorusJetGeometry(random_jet(13, n_grid=4))


BATCH_GEOMETRIES = {
    "radial": _radial_theta,
    "torus": _torus4,
    "torus-polynomial": lambda: PerturbedGeometry(
        _torus4(), PolynomialPerturbation({2: _sym_field(1, 64), 3: _sym_field(2, 64)}), 0.1
    ),
    # the support (0.15, 0.25) holds only the middle slice of RHOS
    "radial-cutoff": lambda: PerturbedGeometry(
        _radial_theta(), CutoffPerturbation(_sym_field(3, 1), 0.15, 0.25), 0.2
    ),
}


class TestSpatialOrders:
    """spatial(rho, orders) is the leading ``orders`` entries of the full
    tuple, bit for bit, and computes nothing past them."""

    @pytest.mark.parametrize("name", list(BATCH_GEOMETRIES))
    @pytest.mark.parametrize("rho", [0.2, np.array([0.12, 0.2, 0.27])], ids=["scalar", "array"])
    def test_leading_orders_of_the_full_tuple(self, name, rho):
        geom = BATCH_GEOMETRIES[name]()
        full = geom.spatial(rho)
        assert len(full) == 4
        for orders in range(1, 5):
            got = geom.spatial(rho, orders)
            assert [g.tobytes() for g in got] == [f.tobytes() for f in full[:orders]]

    def test_polynomial_perturbation_skips_vanishing_powers(self):
        """A power below the order adds nothing; with every power below it
        the value is zero, shaped (slices x points, 3, 3)."""
        f2, f3 = _sym_field(1, 64), _sym_field(2, 64)
        m = PolynomialPerturbation({2: f2, 3: f3})
        rho = np.array([0.1, 0.4])
        want = (6.0 * np.ones((2, 1, 1, 1)) * f3).reshape(-1, 3, 3)
        assert m.value(rho, 3).tobytes() == want.tobytes()
        assert m.value(rho, 4).shape == (128, 3, 3) and not np.any(m.value(rho, 4))


class TestBatchedEngine:
    """A 1-D rho array gives the rho-major stack of the per-slice results."""

    RHOS = np.array([0.12, 0.2, 0.27])

    @pytest.mark.parametrize("name", list(BATCH_GEOMETRIES))
    def test_matches_stacked_slices(self, name):
        geom = BATCH_GEOMETRIES[name]()
        batched = curvature_in_frame(geom, self.RHOS)
        slices = [curvature_in_frame(geom, float(r)) for r in self.RHOS]

        def close(got, want):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        for key in ("gbar", "riem", "q", "riem_on"):
            close(batched[key], np.concatenate([cur[key] for cur in slices]))
        for key, field in batched["invariants"].items():
            close(field, np.concatenate([cur["invariants"][key] for cur in slices]))

    @pytest.mark.parametrize("geom, rhos, size", [
        (_radial_theta(), np.linspace(0.05, 1.9, 40), 7),
        (_torus4(), np.array([0.12, 0.2, 0.27, 0.6]), 1),
    ], ids=["radial", "torus-n4"])
    def test_partition_invariant_bit_for_bit(self, geom, rhos, size):
        """Every record array and invariant of one call over all the slices
        has the bits of calls over ``size`` slices at a time, concatenated:
        map_slices may cut a batch anywhere."""
        whole = curvature_in_frame(geom, rhos)
        parts = [curvature_in_frame(geom, rhos[k:k + size]) for k in range(0, rhos.size, size)]

        def flat(cur):
            inv = cur["invariants"]
            return {**{k: v for k, v in cur.items() if k not in ("bar", "invariants")},
                    "bar": cur["bar"][0], "dbar": cur["bar"][1],
                    **{f"invariants.{k}": v for k, v in inv.items()}}

        want = flat(whole)
        assert len(want) == 19
        for key, got in want.items():
            assert got.tobytes() == np.concatenate([flat(p)[key] for p in parts]).tobytes(), key

    @pytest.mark.parametrize("name", list(BATCH_GEOMETRIES))
    def test_q_is_orthonormal_frame(self, name):
        cur = curvature_in_frame(BATCH_GEOMETRIES[name](), self.RHOS)
        qtgq = np.einsum("nsa,nst,ntb->nab", cur["q"], cur["gbar"], cur["q"])
        assert np.max(np.abs(qtgq - np.eye(4))) <= 1e-13

    def test_z2_functional_matches_per_node_sum(self):
        theta = [0.03, -0.02, 0.015]
        geom = RadialGeometry(perturbed_profile(theta))
        xs, ws = np.polynomial.legendre.leggauss(8)
        want = 0.0
        for lo, hi in variation._FLOW_SEGMENTS:
            for x, w in zip(xs, ws):
                rho = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
                cur = curvature_in_frame(geom, rho)
                vol = np.sqrt(np.linalg.det(cur["gbar"]))
                z2 = float(np.sum(cur["invariants"]["z2"] * vol)) / rho**4
                want += 0.5 * (hi - lo) * w * geom.weight * z2
        got = z2_functional(theta, n_per=8)
        assert got == pytest.approx(want, rel=1e-13)


REFERENCE_GEOMETRIES = {
    "radial": _radial_theta,
    "torus-n4": lambda: TorusJetGeometry(random_jet(17, n_grid=4)),
    "torus-n8": lambda: TorusJetGeometry(random_jet(3, n_grid=8)),
    "torus-polynomial": BATCH_GEOMETRIES["torus-polynomial"],
    "radial-cutoff": BATCH_GEOMETRIES["radial-cutoff"],
    # the structure constants of S^3 meet a non-conformal g_rho on every slice
    "radial-polynomial": lambda: PerturbedGeometry(
        _radial_theta(), PolynomialPerturbation({2: _sym_field(4, 1), 3: _sym_field(5, 1)}), 0.3
    ),
}


def _close_relative(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


class TestReferenceEngine:
    """The batched-matmul kernels reproduce their einsum form (tests/oracles.py)."""

    RHOS = TestBatchedEngine.RHOS

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_curvature_in_frame_matches_einsum_form(self, name):
        geom = REFERENCE_GEOMETRIES[name]()
        got = curvature_in_frame(geom, self.RHOS)
        want = oracles.curvature_in_frame_einsum(geom, self.RHOS)
        for key in ("gamma", "riem", "q", "ginv", "dvol", "riem_on"):
            _close_relative(got[key], want[key])
        assert set(got["invariants"]) == set(want["invariants"])
        for key, field in want["invariants"].items():
            _close_relative(got["invariants"][key], field)
        _close_relative(dfalg.batch_pfaffian(got["riem_on"]), want["pff"])

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_curvature_bar_matches_einsum_form(self, name):
        geom = REFERENCE_GEOMETRIES[name]()
        got = curvature_bar(geom, self.RHOS)
        want = oracles.curvature_bar_einsum(geom, self.RHOS)
        for key in ("riem", "ric"):
            _close_relative(got[key], want[key])

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_radial_block_matches_curvature_bar(self, name):
        """Rbar_{i4j4} from a curvature_in_frame record is the block of the
        whole Rbar, to roundoff."""
        geom = REFERENCE_GEOMETRIES[name]()
        block = collar._radial_block_bar(geom, curvature_in_frame(geom, self.RHOS))
        want = curvature_bar(geom, self.RHOS)["riem"][:, :3, 3, :3, 3]
        _close_relative(block, want, rel=1e-15)

    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_record_holds_its_slices_rho_and_connections(self, name):
        """The engine record's 'bar' is christoffels_bar of the slices' frame,
        its 'rho' each point's rho, and its 'gamma' and 'dgamma' christoffels of
        the two, bit for bit."""
        geom = REFERENCE_GEOMETRIES[name]()
        cur = collar.frame_curvature(geom, self.RHOS)
        frame = collar._slice_frame(geom, self.RHOS)
        want_bar = collar.christoffels_bar(geom, frame)
        want_rho = collar._rho_per_point(self.RHOS, self.RHOS.size * geom.npts)
        assert cur["rho"].shape == (self.RHOS.size * geom.npts, 1, 1, 1)
        assert cur["rho"].tobytes() == want_rho.tobytes()
        for got, want in zip(cur["bar"], want_bar, strict=True):
            assert got.tobytes() == want.tobytes()
        gamma, dgamma = collar.christoffels(want_rho, frame, want_bar)
        assert cur["gamma"].tobytes() == gamma.tobytes()
        assert cur["dgamma"].tobytes() == dgamma.tobytes()

    @pytest.mark.parametrize("npts", [1, 58, 160, 256, 512])
    def test_to_on4_matches_pair_form(self, npts):
        """One matmul per slot against the parent's 16 x 16 Kronecker product per
        index pair, on the batch sizes of the radial engine and a torus slice."""
        rng = np.random.default_rng(npts)
        fld = rng.standard_normal((npts, 4, 4, 4, 4))
        q = np.triu(rng.standard_normal((npts, 4, 4)))
        got = collar.to_on4(fld, q)
        _close_relative(got, oracles.to_on4_pairs(fld, q), rel=1e-14)
        _close_relative(got, oracles.to_on4_einsum(fld, q), rel=1e-14)

    def test_to_on4_matches_pair_form_on_the_engine(self):
        geom = REFERENCE_GEOMETRIES["torus-n8"]()
        cur = curvature_in_frame(geom, 0.3)
        _close_relative(cur["riem_on"], oracles.to_on4_pairs(cur["riem"], cur["q"]), rel=1e-14)

    @pytest.mark.parametrize("n_grid", [3, 4, 8, 16])
    def test_xderiv_matches_per_axis_fft(self, n_grid):
        geom = TorusJetGeometry(BoundaryJet.flat(n_grid))
        # two stacked slices of a field that is not band-limited: every mode,
        # the Nyquist mode of an even grid included
        field = np.random.default_rng(n_grid).standard_normal((2 * geom.npts, 4, 4))
        got = geom.xderiv(field)
        assert got.shape == (2 * geom.npts, 3, 4, 4)
        grid = field.reshape((2,) + (n_grid,) * 3 + (4, 4))
        for axis in range(3):
            want = collar.spectral_deriv(grid, axis + 1).reshape(field.shape)
            _close_relative(got[:, axis], want)

    @pytest.mark.parametrize("n_grid", [4, 8])
    def test_xderiv_transpose_is_the_adjoint(self, n_grid):
        """<xderiv(u), F> = <u, xderiv_transpose(F)> over two stacked slices."""
        geom = TorusJetGeometry(random_jet(3, n_grid))
        rng = np.random.default_rng(n_grid)
        u = rng.standard_normal((2 * geom.npts, 4, 4, 4))
        fld = rng.standard_normal((2 * geom.npts, 3, 4, 4, 4))
        back = geom.xderiv_transpose(fld)
        assert back.shape == u.shape
        lhs, rhs = np.sum(geom.xderiv(u) * fld), np.sum(u * back)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs), (lhs, rhs)

    def test_xderiv_transpose_radial_and_perturbed(self):
        """The radial backend's transpose is zero, and a perturbed geometry
        forwards its base's."""
        fld = np.random.default_rng(5).standard_normal((3, 3, 4, 4))
        radial = RadialGeometry(hyperbolic_profile())
        assert np.array_equal(radial.xderiv_transpose(fld), np.zeros((3, 4, 4)))
        torus = TorusJetGeometry(random_jet(3, 4))
        m = np.broadcast_to(np.eye(3), (torus.npts, 3, 3))
        fld = np.random.default_rng(6).standard_normal((torus.npts, 3, 4, 4))
        wrapped = PerturbedGeometry(torus, CutoffPerturbation(m), 0.1)
        assert np.array_equal(wrapped.xderiv_transpose(fld), torus.xderiv_transpose(fld))


class TestCopyFreeKernels:
    """The engine's kernels give their strided-copy form's bits (tests/oracles.py):
    on radial batches and on n_grid 4 and 8 torus slices, every product and
    add is the same, only where the permuted operands are read from differs."""

    CASES = {
        "radial": (_radial_theta, np.linspace(0.05, 1.9, 40)),
        "radial-polynomial": (REFERENCE_GEOMETRIES["radial-polynomial"], TestBatchedEngine.RHOS),
        "torus-n4": (REFERENCE_GEOMETRIES["torus-n4"], TestBatchedEngine.RHOS),
        "torus-n8": (REFERENCE_GEOMETRIES["torus-n8"], 0.3),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_to_on4_is_the_slot_loop(self, name):
        """The same bits in the same transposed layout, whose einsums (R2 and
        the Ricci contractions) then sum in the same order."""
        make, rho = self.CASES[name]
        cur = curvature_in_frame(make(), rho)
        want = oracles.to_on4_slot_loop(cur["riem"], cur["q"])
        for got in (cur["riem_on"], collar.to_on4(cur["riem"], cur["q"])):
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("npts", [1, 64, 512])
    def test_to_on4_of_a_strided_input(self, npts):
        """A transposed view of the input gives the contiguous input's bits."""
        rng = np.random.default_rng(npts)
        fld = rng.standard_normal((npts, 4, 4, 4, 4))
        q = np.triu(rng.standard_normal((npts, 4, 4)))
        strided = np.ascontiguousarray(fld.transpose(0, 3, 1, 4, 2)).transpose(0, 2, 4, 1, 3)
        assert not strided.flags.c_contiguous and np.array_equal(strided, fld)
        want = oracles.to_on4_slot_loop(fld, q).tobytes()
        assert collar.to_on4(strided, q).tobytes() == want
        assert collar.to_on4(fld, q).tobytes() == want

    @pytest.mark.parametrize("name", list(CASES))
    def test_christoffels_bar_is_the_transposed_adds(self, name):
        make, rho = self.CASES[name]
        geom = make()
        frame = collar._slice_frame(geom, rho)
        got = collar.christoffels_bar(geom, frame)
        want = oracles.christoffels_bar_transposed_adds(geom, frame)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", list(CASES))
    def test_frame_ricci_is_the_transposed_reshape(self, name):
        make, rho = self.CASES[name]
        cur = collar.frame_curvature(make(), rho)
        got = collar.frame_ricci(cur["ginv"], cur["riem"])
        want = oracles.frame_ricci_transposed(cur["ginv"], cur["riem"])
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_grid", [3, 4, 8])
    @pytest.mark.parametrize("slices", [1, 2])
    def test_xderiv_is_the_axis_copies(self, n_grid, slices):
        geom = TorusJetGeometry(random_jet(3, n_grid))
        field = np.random.default_rng(n_grid).standard_normal((slices * geom.npts, 4, 4, 4))
        got = geom.xderiv(field)
        assert got.shape == (slices * geom.npts, 3, 4, 4, 4)
        assert got.tobytes() == oracles.xderiv_axis_copies(geom, field).tobytes()


def _spd_frames(rng, spectrum, n):
    """n frame metrics gbar whose spatial blocks have eigenvalues ``spectrum``
    in random orthonormal bases."""
    v, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    gbar = np.zeros((n, 4, 4))
    gbar[:, :3, :3] = (v * spectrum) @ v.swapaxes(1, 2)
    gbar[:, 3, 3] = 1.0
    return 0.5 * (gbar + gbar.swapaxes(1, 2))


class TestOrthonormalFrame:
    """collar._on_frame (closed-form Cholesky: q, gbar^-1 and dvol) against the
    three LAPACK routes of oracles.frame_oracle, and the curvature invariants
    against the symmetric frame of oracles.symmetric_frame."""

    @staticmethod
    def _matches_oracle(gbar):
        got_frame = collar._on_frame(gbar)
        for got, want in zip(got_frame, oracles.frame_oracle(gbar)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(np.tril(got_frame[0], -1) == 0.0)  # q is upper triangular

    @pytest.mark.parametrize("n_grid", [4, 8])
    @pytest.mark.parametrize("rho", [0.02, 0.3, 1.0])
    def test_torus_jets(self, n_grid, rho):
        geom = TorusJetGeometry(random_jet(3, n_grid=n_grid))
        self._matches_oracle(collar._gbar_blocks(geom, rho)[0])

    @pytest.mark.parametrize("theta", [[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]], ids=["ball", "theta"])
    def test_scalar_radial_metric_out_to_the_cap(self, theta):
        geom = RadialGeometry(perturbed_profile(theta))
        self._matches_oracle(collar._gbar_blocks(geom, np.linspace(0.01, 1.99, 199))[0])

    def test_near_double_spectrum(self):
        rng = np.random.default_rng(5)
        self._matches_oracle(_spd_frames(rng, np.array([1.0, 1.0 + 1e-9, 2.0]), 50))

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    def test_residuals_track_the_oracle(self, cond):
        """On ill-conditioned blocks |q^T gbar q - I| and |gbar^-1 gbar - I|
        stay within 10 times the oracle's."""
        gbar = _spd_frames(np.random.default_rng(6), np.array([1.0, math.sqrt(cond), cond]), 200)
        eye = np.eye(4)

        def residuals(q, ginv, _):
            return (np.max(np.abs(q.swapaxes(1, 2) @ gbar @ q - eye)),
                    np.max(np.abs(ginv @ gbar - eye)))

        got = residuals(*collar._on_frame(gbar))
        want = residuals(*oracles.frame_oracle(gbar))
        for g, w in zip(got, want):
            assert g <= 10.0 * w

    @staticmethod
    def _frame_independent_fields(geom, rho):
        cur = curvature_in_frame(geom, rho)
        fields = {key: cur["invariants"][key] for key in ("s", "r2", "z2", "w2", "R2")}
        fields["pff"] = dfalg.batch_pfaffian(cur["riem_on"])
        boundary = renorm.boundary_II(geom, rho)
        fields["phi0"], fields["phi1"] = boundary["phi0"], boundary["phi1"]
        return fields

    @pytest.mark.parametrize("name", ["torus-n4", "torus-n8", "ball", "theta"])
    def test_invariants_do_not_depend_on_the_frame(self, monkeypatch, name):
        """batch_invariants, the Pfaffian and the boundary integrands Phi0/Phi1
        agree between the Cholesky frame and the symmetric frame to 1e-12."""
        geom, rho = {
            "torus-n4": lambda: (TorusJetGeometry(random_jet(17, n_grid=4)),
                                 np.array([0.02, 0.3, 1.0])),
            "torus-n8": lambda: (TorusJetGeometry(random_jet(3, n_grid=8)),
                                 np.array([0.02, 0.3, 1.0])),
            "ball": lambda: (RadialGeometry(hyperbolic_profile()), np.linspace(0.01, 1.99, 199)),
            "theta": lambda: (RadialGeometry(perturbed_profile([0.01, 0.0, 0.0])),
                              np.linspace(0.01, 1.99, 199)),
        }[name]()
        cholesky = self._frame_independent_fields(geom, rho)
        monkeypatch.setattr(collar, "_on_frame", oracles.symmetric_frame)
        symmetric = self._frame_independent_fields(geom, rho)
        for key, want in symmetric.items():
            # the quadratic invariants are differences of O(|R|^2) terms
            # (|z|^2 = |r|^2 - s^2/4 cancels 30-fold near the theta profile's
            # cap), so they are measured against |R|^2
            scale = max(1.0, np.max(np.abs(want)))
            if key in ("r2", "z2", "w2", "R2", "pff"):
                scale = max(scale, np.max(symmetric["R2"]))
            assert np.max(np.abs(cholesky[key] - want)) <= 1e-12 * scale, key


class TestSliceBatches:
    """The rho-walkers reach the curvature engine through collar.map_slices:
    each call holds at most max(npts, _CHUNK_POINTS) points, so a torus slice
    goes alone and radial slices go _CHUNK_POINTS (256) to a call.  The jet
    identities and the invariant parity read both curvatures of each slice
    from one curvature_in_frame record, and the six perturbed slices of a
    finite-difference trial (+t and -t of three steps) are one batch."""

    TORUS = {"family": "torus-collar", "seed": 3, "jet": {"n_grid": 8}}
    RADIAL = {"family": "radial", "seed": 3, "profile": {"theta": [0.05] * 3}}

    @staticmethod
    def _engine_points(monkeypatch, run):
        """Points handed to each engine call while ``run()`` executes."""
        owners = {"curvature_in_frame": collar, "curvature_bar": collar,
                  "frame_curvature": variation}
        calls = {name: [] for name in owners}
        for name, seen in calls.items():

            def counting(geom, rho, engine=getattr(owners[name], name), seen=seen):
                seen.append(np.size(rho) * geom.npts)
                return engine(geom, rho)

            monkeypatch.setattr(owners[name], name, counting)
        run()
        monkeypatch.undo()
        return calls

    def _callers(self, raw, n_per):
        config = cli.AuditConfig.from_dict(raw)
        geom = config.geometry()
        nodes = chebyshev_rho_nodes().size
        segments = ((0.1, 0.2), (0.2, 0.4), (0.4, 0.6))
        pert = PolynomialPerturbation({2: _sym_field(1, geom.npts), 3: _sym_field(2, geom.npts)})
        background = collar.frame_curvature(geom, 0.25)
        return geom, {
            # caller: (call, engine, slices)
            "run_collar_audit": (
                lambda: cli.run_collar_audit(config), "curvature_in_frame", nodes
            ),
            "jet_identity_report": (
                lambda: jet_identity_report(geom),
                "curvature_in_frame",
                nodes,
            ),
            "_z2_quadrature": (
                lambda: variation._z2_quadrature(geom, segments, n_per),
                "curvature_in_frame",
                len(segments) * n_per,
            ),
            "fd_curvature_derivative": (
                lambda: variation.fd_curvature_derivative(geom, pert, background, (1e-2, 5e-3, 2.5e-3)),
                "frame_curvature",
                6,
            ),
        }

    @pytest.mark.parametrize("raw", [TORUS, RADIAL], ids=["torus", "radial"])
    def test_collar_audit_builds_each_node_frame_once(self, monkeypatch, raw):
        """collar-audit's jet identities (Rbar) and parity row (g) share one
        _slice_frame and one christoffels_bar per Chebyshev node; rho = 0,
        read for g3 and v3, takes one frame and no Christoffels."""
        rhos, bar_slices = [], []
        frame, bar = collar._slice_frame, collar.christoffels_bar

        def counting_frame(geom, rho):
            rhos.append(np.atleast_1d(rho))
            return frame(geom, rho)

        def counting_bar(geom, fr):
            bar_slices.append(fr["gbar"].shape[0] // geom.npts)
            return bar(geom, fr)

        monkeypatch.setattr(collar, "_slice_frame", counting_frame)
        monkeypatch.setattr(collar, "christoffels_bar", counting_bar)
        cli.run_collar_audit(cli.AuditConfig.from_dict(raw))
        rhos = np.concatenate(rhos)
        assert np.array_equal(rhos[rhos > 0.0], chebyshev_rho_nodes())
        assert np.count_nonzero(rhos == 0.0) == 1
        assert sum(bar_slices) == chebyshev_rho_nodes().size

    @pytest.mark.parametrize("caller", ["run_collar_audit", "jet_identity_report", "_z2_quadrature",
                                        "fd_curvature_derivative"])
    def test_torus_calls_stay_within_the_chunk(self, monkeypatch, caller):
        geom, callers = self._callers(self.TORUS, 24)
        run, engine, slices = callers[caller]
        calls = self._engine_points(monkeypatch, run)
        assert geom.npts == 512
        assert max(sum(calls.values(), [])) <= max(geom.npts, collar._CHUNK_POINTS)
        assert sum(calls[engine]) == slices * geom.npts

    @pytest.mark.parametrize("caller", ["run_collar_audit", "jet_identity_report", "_z2_quadrature",
                                        "fd_curvature_derivative"])
    def test_radial_calls_fill_the_chunk(self, monkeypatch, caller):
        # the quadrature's 3 x 96 = 288 nodes make two radial batches
        geom, callers = self._callers(self.RADIAL, 96)
        run, engine, slices = callers[caller]
        calls = self._engine_points(monkeypatch, run)
        assert len(calls[engine]) == math.ceil(slices / collar._CHUNK_POINTS)
        if caller == "_z2_quadrature":
            assert len(calls[engine]) == 2
        assert max(calls[engine]) <= collar._CHUNK_POINTS
        assert sum(calls[engine]) == slices

    def test_an_empty_rho_array_is_refused(self):
        """No slices is a usage fault, not numpy's 'number sections must be
        larger than 0.' from np.array_split."""
        with pytest.raises(ValueError, match="the rho array is empty"):
            collar.map_slices(lambda rho: rho, [], 1)


class TestHeapPolicy:
    """Importing collar sets glibc's heap thresholds so that the engine's
    freed temporaries stay in the process: a torus slice then reuses them
    instead of faulting fresh zeroed pages in (about 1650 minor faults per
    n_grid 8 slice and 6400 per n_grid 16 slice under glibc's defaults, or
    when only one of the two thresholds is set)."""

    @pytest.mark.parametrize("n_grid, calls", [(8, 20), (16, 5)])
    def test_torus_slices_do_not_page_fault(self, n_grid, calls):
        resource = pytest.importorskip("resource")
        if getattr(ctypes.CDLL(None), "mallopt", None) is None:
            pytest.skip("the C library has no mallopt")
        geom = collar.TorusJetGeometry(random_jet(3, n_grid))
        for rho in (0.3, 0.5, 0.7):
            curvature_in_frame(geom, rho)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for rho in np.linspace(0.05, 0.95, calls):
            curvature_in_frame(geom, rho)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / calls < 100
