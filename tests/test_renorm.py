"""Finite parts, volume families, Chern boundary terms, Gauss-Bonnet audits.

Oracles are closed forms: the hyperbolic ball volume
2 pi^2 int_eps^2 rho^-4 (1 - rho^2/4)^3 drho with exact antiderivative
F(rho) = -rho^-3/3 + (3/4) rho^-1 + (3/16) rho - rho^3/192, the flat-torus
product metric, and exactly-representable asymptotic models.

The checks on v3 != 0 backgrounds document a genuine discrepancy: the
boundary-term finite part does not vanish but equals (1/2pi^2) int v3 dvol,
so the renormalized Pfaffian integral is chi - (1/2pi^2) int v3 dvol rather
than chi.  The as-stated claims are kept as strict expected failures and the
corrected identity is asserted to tight tolerance (see the decisions ledger).
"""

import itertools
import json
import math
import warnings

import numpy as np
import oracles
import pytest

from ahrenvol import cli, collar, dfalg, renorm
from ahrenvol.collar import (
    BoundaryJet,
    PerturbedGeometry,
    PolynomialPerturbation,
    RadialGeometry,
    TorusJetGeometry,
    hyperbolic_profile,
    perturbed_profile,
    random_jet,
)
from ahrenvol.renorm import (
    boundary_II,
    default_eps_grid,
    finite_part,
    gauss_bonnet_audit,
    renormalized_action,
    volume_family,
)
from oracles import paycha_finite_part

PI2 = math.pi**2


def hyperbolic_volume(eps: float) -> float:
    """2 pi^2 [F(2) - F(eps)], F the exact antiderivative of rho^-4 A^6."""
    F = lambda r: -1.0 / (3.0 * r**3) + 0.75 / r + 3.0 * r / 16.0 - r**3 / 192.0
    return 2.0 * PI2 * (F(2.0) - F(eps))


class TestFinitePart:
    def test_exact_model_recovered(self):
        eps = default_eps_grid()
        vals = 2.0 * eps**-3 - 5.0 * eps**-1 + 1.5 * np.log(1.0 / eps) + 7.0
        fp = finite_part((eps, vals))
        assert np.allclose(fp.as_tuple(), (2.0, -5.0, 1.5, 7.0), atol=1e-10)

    def test_pure_power_integral(self):
        """int_eps^1 rho^-4 drho = (eps^-3 - 1)/3."""
        eps = default_eps_grid()
        fp = finite_part((eps, (eps**-3 - 1.0) / 3.0))
        assert np.allclose(fp.as_tuple(), (1.0 / 3.0, 0.0, 0.0, -1.0 / 3.0), atol=1e-10)

    def test_pure_log_integral(self):
        """int_eps^1 rho^-1 drho = log(1/eps)."""
        eps = default_eps_grid()
        fp = finite_part((eps, np.log(1.0 / eps)))
        assert np.allclose(fp.as_tuple(), (0.0, 0.0, 1.0, 0.0), atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        eps = default_eps_grid()
        f = rng.standard_normal(4)
        g = rng.standard_normal(4)
        model = lambda c: c[0] * eps**-3 + c[1] * eps**-1 + c[2] * np.log(1 / eps) + c[3]
        a, b = 2.5, -0.75
        lhs = finite_part((eps, a * model(f) + b * model(g))).as_tuple()
        rhs = a * np.array(finite_part((eps, model(f))).as_tuple()) + b * np.array(
            finite_part((eps, model(g))).as_tuple()
        )
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 12"):
            finite_part((np.array([0.1, 0.2, 0.3, 0.4]), np.ones(4)))

    @pytest.mark.parametrize("n", [6, 7, 8, 11])
    def test_fewer_than_twelve_samples_are_refused(self, n):
        """12 = 4 model + 6 nuisance columns + 2.  With fewer the fit can
        interpolate its family with no error: on 6 samples the ball's V came
        out 2.6e-3 off, on 8 samples theta = (-0.08, 0.05, 0.02) read
        V = 387.78 against the closed form 15.8559 with a residual of 7.5e-14."""
        assert renorm.MIN_EPS_SAMPLES == 12 == default_eps_grid().size
        eps = default_eps_grid(n)
        with pytest.raises(ValueError, match="at least 12"):
            finite_part((eps, 2.0 * eps**-3 + 7.0))

    def test_insufficient_span(self):
        eps = np.linspace(0.1, 0.2, 12)
        with pytest.raises(ValueError, match="factor of 8"):
            finite_part((eps, np.ones(12)))

    def test_model_rejection(self):
        eps = default_eps_grid()
        with pytest.raises(ValueError, match="asymptotic model rejected"):
            finite_part((eps, np.sin(50.0 * eps)))

    def test_ill_conditioned(self):
        eps = np.repeat([0.01, 0.02, 0.05, 0.1, 0.2, 0.3], 2) + np.tile([0.0, 1e-13], 6)
        with pytest.raises(ValueError, match="ill-conditioned"):
            finite_part((eps, eps**-3))

    def test_kept_powers_in_selection_order(self):
        eps = default_eps_grid()
        vals = 2.0 * eps**-3 - 5.0 * eps**-1 + 7.0 + 0.3 * eps**4 - 4.0 * eps
        fp = finite_part((eps, vals))
        assert fp.kept_powers == (1, 4)
        assert fp.extras == pytest.approx({1: -4.0, 2: 0.0, 3: 0.0, 4: 0.3, 5: 0.0, 6: 0.0},
                                          abs=1e-8)
        # full basis, bare model, 6 then 5 candidates; two clear steps
        assert fp.fits == oracles.finite_part_loop((eps, vals))[0].fits == 13
        assert len(fp.selection_gaps) == 2 and min(fp.selection_gaps) > 1.0
        assert 0.0 <= fp.floor_ratio <= 1.0
        exact = finite_part((eps, 2.0 * eps**-3 + 7.0))
        assert (exact.kept_powers, exact.selection_gaps, exact.fits) == ((), (), 2)
        assert 0.0 <= exact.floor_ratio <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused_before_any_fit(self, monkeypatch, bad):
        """A NaN or infinite family value made a NaN finite part, with no error."""
        eps = default_eps_grid()
        vals = 2.0 * eps**-3 + 7.0
        vals[4] = bad
        monkeypatch.setattr(renorm, "_solve_stack", lambda *args: pytest.fail("fitted"))
        with pytest.raises(renorm.FitRejected,
                           match=rf"family value 4 \(eps = {eps[4]:.6g}\) is {bad}, not finite"):
            finite_part((eps, vals))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_is_refused_before_any_fit(self, monkeypatch, bad):
        """A NaN eps raised numpy's untyped LinAlgError (SVD did not converge)."""
        eps = default_eps_grid()
        vals = 2.0 * eps**-3 + 7.0
        eps[5] = bad
        monkeypatch.setattr(renorm, "_solve_stack", lambda *args: pytest.fail("fitted"))
        with pytest.raises(ValueError, match=f"eps sample 5 is {bad}, not finite"):
            finite_part((eps, vals))

    def test_log_flagging(self):
        eps = default_eps_grid()
        with_log = finite_part((eps, np.log(1.0 / eps) + 1.0))
        without = finite_part((eps, eps**-3 + 1.0))
        assert with_log.log_ambiguous
        assert not without.log_ambiguous


class TestStackedSolve:
    """finite_part solves each selection step as one stack of SVDs
    (renorm._solve_stack); tests/oracles.py::finite_part_loop refits every
    basis on its own with np.linalg.cond and lstsq."""

    @staticmethod
    def _family():
        eps = default_eps_grid()
        return eps, 2.0 * eps**-3 - 5.0 / eps + 1.5 * np.log(1.0 / eps) + 7.0 + np.sin(eps)

    def test_each_member_of_a_stack_equals_a_stack_of_one(self):
        eps, vals = self._family()
        design, norms = renorm._design(eps)
        bases = [[0, 1, 2, 3, 4, c] for c in range(5, 10)]
        stacked = renorm._solve_stack(design, norms, vals, bases)
        for k, basis in enumerate(bases):
            alone = renorm._solve_stack(design, norms, vals, [basis])
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[k], want[0])

    def test_rank_deficient_basis_is_rejected(self):
        """Every basis is held to the condition limit, so a rank-deficient one
        raises FitRejected rather than reaching the solve, with no division
        warning."""
        eps = default_eps_grid()
        design, norms = renorm._design(eps)
        # columns 4 and 5 equal: one singular value is roundoff
        design = design[:, [0, 1, 2, 3, 4, 4]]
        norms = norms[[0, 1, 2, 3, 4, 4]]
        vals = design[:, :5] @ np.array([2.0, -5.0, 1.5, 7.0, 3.0])
        assert np.linalg.cond(design / norms) > 1e15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(renorm.FitRejected, match="ill-conditioned"):
                renorm._solve_stack(design, norms, vals, [range(6)])

    def test_ill_conditioned_member_rejects_the_step(self):
        eps, vals = self._family()
        design, norms = renorm._design(eps)
        design = np.column_stack([design, design[:, 4] * (1.0 + 1e-12 * eps)])
        norms = np.append(norms, np.linalg.norm(design[:, -1]))
        # the second basis holds two columns 1e-12 apart
        with pytest.raises(renorm.FitRejected, match="ill-conditioned"):
            renorm._solve_stack(design, norms, vals, [[0, 1, 2, 3, 5, 6], [0, 1, 2, 3, 4, 10]])

    def test_exact_candidate_reads_an_infinite_gap(self):
        """eps^1 fits the family eps with residual exactly 0: the runner-up is
        infinitely worse, with no division warning."""
        eps = default_eps_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fp = finite_part((eps, eps))
        assert fp.kept_powers == (1,)
        assert fp.selection_gaps == (math.inf,)
        assert fp.floor_ratio == 0.0
        want = oracles.finite_part_loop((eps, eps))[0]
        assert (fp.selection_gaps, fp.fits) == (want.selection_gaps, want.fits)


# the ball and three profiles, and the families whose finite parts enter 6V
_ORACLE_THETAS = [(0.0, 0.0, 0.0), (0.05, 0.05, 0.05), (0.03, -0.02, 0.01), (-0.08, 0.05, 0.02)]


@pytest.fixture(scope="module")
def recorded_fits():
    """Every finite_part input and result of renvol's, renormalized_action's and
    gauss_bonnet_audit's families on each profile of _ORACLE_THETAS."""
    fits = {}
    for theta in _ORACLE_THETAS:
        geom = RadialGeometry(perturbed_profile(theta))
        eps = default_eps_grid()
        vols, _ = volume_family(geom, eps)
        calls = [(eps, vols)]
        real = renorm.finite_part

        def record(values):
            calls.append(tuple(np.array(v, copy=True) for v in values))
            return real(values)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(renorm, "finite_part", record)
            renormalized_action(geom, eps)
            gauss_bonnet_audit(geom, eps)
        names = ("volume", "s2", "z2", "w2", "action", "interior", "boundary")
        assert len(calls) == len(names)
        fits[theta] = dict(zip(names, calls))
    return fits


def _near_tie(trace) -> bool:
    """True when the one-basis route's own selection was decided by roundoff:
    a runner-up within 1e-6 of the best residual, or a continue/stop decision
    with the residual within a factor 10 of the stopping floor."""
    for step in trace["steps"]:
        ranked = sorted(step.values())
        if len(ranked) > 1 and ranked[1] / ranked[0] - 1.0 < 1e-6:
            return True
        if 0.1 <= ranked[0] / trace["floor"] <= 10.0:
            return True
    return False


class TestAgainstOneBasisFits:
    """The stacked route keeps the one-basis route's powers and reproduces each
    finite part to 1e-10 of max(1, |FP|).  It may keep other powers only where
    the one-basis route's own selection sat on a near tie (``_near_tie``), so
    that the last bits of the residuals decide: on theta = (0.05)^3 the s^2
    family stops at a floor ratio of 0.91 in the loop and takes eps^6 in the
    stack, and its finite part moves 7.7e-7.  Such a flip is held to 1e-6."""

    @pytest.mark.parametrize("theta", _ORACLE_THETAS)
    @pytest.mark.parametrize("name", ["volume", "s2", "z2", "w2", "action", "interior",
                                      "boundary"])
    def test_finite_part_equals_the_loop(self, recorded_fits, theta, name):
        values = recorded_fits[theta][name]
        got = finite_part(values)
        want, trace = oracles.finite_part_loop(values)
        scale = max(1.0, abs(want.finite))
        if got.kept_powers != want.kept_powers:
            assert _near_tie(trace)
            assert abs(got.finite - want.finite) <= 1e-6 * scale
            return
        assert abs(got.finite - want.finite) <= 1e-10 * scale
        # the divergent coefficients and L to 1e-10 of the largest coefficient: on the
        # profiles' s^2 families L is about 2e-5 next to C2 of about 480
        size = max(1.0, *map(abs, want.as_tuple()))
        assert np.max(np.abs(np.subtract(got.as_tuple(), want.as_tuple()))) <= 1e-10 * size
        assert got.fits == want.fits
        assert len(got.selection_gaps) == len(want.selection_gaps)


class TestPaycha:
    def test_hyperbolic_ball_cross_check(self):
        """Taylor-subtraction route reproduces V = 4 pi^2 / 3 independently."""
        f = lambda r: 2.0 * PI2 * (1.0 - r * r / 4.0) ** 3
        taylor = [2 * PI2, 0, -1.5 * PI2, 0, 3 * PI2 / 8, 0, -PI2 / 32, 0]
        v = paycha_finite_part(f, taylor, 2.0)
        assert v == pytest.approx(4.0 * PI2 / 3.0, abs=1e-10)

    def test_agrees_with_ls_fit(self):
        vols, _ = volume_family(RadialGeometry(hyperbolic_profile()))
        fp = finite_part((default_eps_grid(), vols))
        f = lambda r: 2.0 * PI2 * (1.0 - r * r / 4.0) ** 3
        taylor = [2 * PI2, 0, -1.5 * PI2, 0, 3 * PI2 / 8, 0, -PI2 / 32, 0]
        assert fp.finite == pytest.approx(paycha_finite_part(f, taylor, 2.0), abs=1e-8)

    def test_needs_enough_coefficients(self):
        with pytest.raises(ValueError, match="at least 8"):
            paycha_finite_part(lambda r: 1.0, [1.0, 0.0, 0.0, 0.0], 1.0)


class TestVolumeFamily:
    def test_hyperbolic_closed_form(self):
        eps = [0.5, 0.7]
        vols, _ = volume_family(RadialGeometry(hyperbolic_profile()), eps_grid=eps)
        for e, v in zip(eps, vols):
            assert abs(v - hyperbolic_volume(e)) < 1e-10 * abs(v)

    def test_coarse_eps_grid_is_split_into_panels(self):
        """6 eps over 0.02..0.3 (ratio 1.72 per interval) still meets the panel bound."""
        eps = default_eps_grid(6)
        vols, err = volume_family(RadialGeometry(hyperbolic_profile()), eps_grid=eps)
        for e, v in zip(eps, vols):
            assert abs(v - hyperbolic_volume(e)) < 1e-13 * abs(v)
        assert err < 1e-10 * vols.max()

    def test_hyperbolic_fitted_asymptotics(self):
        """Acceptance: (C0, C2, L, V) = (2pi^2/3, -3pi^2/2, 0, 4pi^2/3)."""
        vols, _ = volume_family(RadialGeometry(hyperbolic_profile()))
        fp = finite_part((default_eps_grid(), vols))
        want = (2 * PI2 / 3, -1.5 * PI2, 0.0, 4 * PI2 / 3)
        for got, ref in zip(fp.as_tuple(), want):
            assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))

    def test_flat_torus(self):
        vols, _ = volume_family(TorusJetGeometry(BoundaryJet.flat(4)))
        for e, v in zip(default_eps_grid(), vols):
            want = (2.0 * math.pi) ** 3 * (e**-3 - 1.0) / 3.0
            assert abs(v - want) < 1e-10 * abs(want)

    def test_log_coefficient_from_g3(self):
        """Nonzero mean tr_gamma g3 produces the predicted log coefficient."""
        rng = np.random.default_rng(5)
        n = 4
        g3 = np.zeros((n, n, n, 3, 3))
        for i in range(3):
            g3[..., i, i] = 0.1 + 0.05 * rng.standard_normal((n, n, n))
        jet = BoundaryJet(n, BoundaryJet.flat(n).gamma, np.zeros_like(g3), g3)
        vols, _ = volume_family(TorusJetGeometry(jet))
        fp = finite_part((default_eps_grid(), vols))
        v3 = 0.5 * np.einsum("...ii->...", g3)  # gamma = identity
        want = (2.0 * math.pi / n) ** 3 * float(np.sum(v3))
        assert abs(fp.log_coeff - want) < 1e-6 * max(1.0, abs(want))
        assert fp.log_ambiguous


ACTION_INTEGRANDS = [
    lambda cur: cur["invariants"]["s"] ** 2,
    lambda cur: cur["invariants"]["z2"],
    lambda cur: cur["invariants"]["w2"],
    lambda cur: cur["invariants"]["s"] ** 2 - 3.0 * cur["invariants"]["r2"],
]


def _ball_family(eps):
    vols, _ = volume_family(RadialGeometry(hyperbolic_profile()), eps_grid=eps)
    ball = lambda rho: 2.0 * PI2 * (1.0 - rho**2 / 4.0) ** 3 / rho**4
    return vols[:, None], oracles.adaptive_family(ball, eps, 2.0)


def _action_family(geom, rho_max):
    def families(eps):
        density = collar._invariant_density(geom, ACTION_INTEGRANDS)
        fams, _ = renorm._cumulative_family(density, eps, rho_max, geom.npts)
        return fams, oracles.adaptive_family(density, eps, rho_max)

    return families


class TestGaussKronrodRule:
    """The 7/15 pair of renorm._cumulative_family on [-1, 1]."""

    @pytest.mark.parametrize(
        "weights, degree",
        [(renorm._K15_WEIGHTS, 22), (renorm._G7_WEIGHTS, 13)],
        ids=["K15", "G7"],
    )
    def test_integrates_monomials_exactly(self, weights, degree):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ renorm._GK15_NODES**k - exact) <= 1e-15

    def test_gauss_nodes_are_kronrod_nodes(self):
        xs, ws = np.polynomial.legendre.leggauss(7)
        used = renorm._G7_WEIGHTS != 0.0
        assert used.sum() == 7
        assert np.allclose(renorm._GK15_NODES[used], xs, rtol=0.0, atol=1e-15)
        assert np.allclose(renorm._G7_WEIGHTS[used], ws, rtol=0.0, atol=1e-15)
        assert np.all(np.diff(renorm._GK15_NODES) > 0.0)


class TestGaussLegendreFamilies:
    """Fixed Gauss-Kronrod panels against adaptive quad_vec, one rho at a time."""

    @pytest.mark.parametrize(
        "families",
        [
            _ball_family,
            _action_family(RadialGeometry(perturbed_profile([0.05] * 3)), 2.0),
            _action_family(TorusJetGeometry(random_jet(17, n_grid=4)), 1.0),
        ],
        ids=["ball_volume", "theta_action", "torus_action"],
    )
    def test_matches_adaptive_oracle(self, families):
        eps = default_eps_grid()
        got, want = families(eps)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        for k in range(want.shape[1]):
            fp_got = finite_part((eps, got[:, k])).finite
            fp_want = finite_part((eps, want[:, k])).finite
            assert abs(fp_got - fp_want) <= 1e-6 * max(1.0, abs(fp_want))

    def test_error_estimates_accumulate_from_rho_max(self):
        eps = default_eps_grid()
        density = lambda rho: np.stack([rho**-4, np.cos(rho)], axis=1)
        fams, errors = renorm._cumulative_family(density, eps, 1.0, 1)
        assert fams.shape == errors.shape == (eps.size, 2)
        assert np.all(np.diff(errors, axis=0) <= 0.0)
        want = (eps**-3 - 1.0) / 3.0
        assert np.all(np.abs(fams[:, 0] - want) <= errors[:, 0] + 1e-13 * want)

    @pytest.mark.parametrize(
        "density",
        [
            lambda rho: np.abs(rho - 0.1),
            lambda rho: 1.0 / ((rho - 0.1) ** 2 + 1e-8),
            lambda rho: np.where(rho > 0.1, np.nan, 1.0),
        ],
        ids=["kink", "near_pole", "nan"],
    )
    def test_panel_over_its_bound_raises(self, density):
        # 0.1 lies inside the panel [0.0876, 0.112] of the default grid
        with pytest.raises(collar.NonConvergence, match="quadrature non-convergence on"):
            renorm._cumulative_family(density, default_eps_grid(), 1.0, 1)


class TestInterpolatedFamilies:
    """Curvature families read from two Chebyshev interpolants of rho^4 density,
    each sampled on the nested ladder of 9, 19, 39 and 79 interior extreme
    points until its coefficient tail passes."""

    @pytest.mark.parametrize(
        "geom, nodes",
        [
            (RadialGeometry(perturbed_profile([0.05] * 3)), (19, 39)),
            (RadialGeometry(perturbed_profile([0.01, 0.0, 0.0])), (19, 19)),
            (TorusJetGeometry(random_jet(17, n_grid=4)), (19, 19)),
            (TorusJetGeometry(random_jet(17, n_grid=4, amplitude=0.15)), (19, 39)),
        ],
        ids=["theta", "theta_v3", "torus", "torus_amplitude_0.15"],
    )
    def test_action_and_pfaffian_match_adaptive_oracle(self, geom, nodes):
        eps = default_eps_grid()
        integrands = ACTION_INTEGRANDS + [lambda cur: dfalg.batch_pfaffian(cur["riem_on"])]
        density = collar._invariant_density(geom, integrands)
        got, _, settled = renorm._interpolated_family(density, eps, geom.rho_max, geom.npts)
        assert settled == nodes
        want = oracles.adaptive_family(density, eps, geom.rho_max)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_panels_read_the_bases_the_gates_built(self, monkeypatch):
        """Each piece's Chebyshev basis is built once per ladder level it
        tried, and the panels (285 nodes, two map_slices batches) read the
        settled one instead of inverting its nodes again."""
        built = []
        init = collar.ChebyshevRhoBasis.__init__

        def counting(self, nodes, rho_max, rho_min=0.0):
            built.append(len(nodes))
            init(self, nodes, rho_max, rho_min)

        monkeypatch.setattr(collar.ChebyshevRhoBasis, "__init__", counting)
        density = lambda rho: 1.0 / (rho**4 * (1.0 + rho))
        _, _, settled = renorm._interpolated_family(density, default_eps_grid(), 2.0, 1)
        levels = [n for n in (9, 19, 39, 79) for top in settled if n <= top]
        assert sorted(built) == sorted(levels)

    def test_error_estimates_bound_an_analytic_family(self):
        """F = 1/(1 + rho), whose rho^-4 integral is elementary; a zero column
        reads exactly zero and does not trip the tail gate."""
        eps = default_eps_grid()
        density = lambda rho: np.stack([1.0 / (rho**4 * (1.0 + rho)), 0.0 * rho], axis=1)
        fams, errors, _ = renorm._interpolated_family(density, eps, 1.0, 1)
        anti = lambda r: -(r**-3) / 3.0 + r**-2 / 2.0 - 1.0 / r - np.log(r) + np.log1p(r)
        want = anti(1.0) - anti(eps)
        assert np.all(np.abs(fams[:, 0] - want) <= errors[:, 0])
        assert np.all(fams[:, 1] == 0.0) and np.all(errors[:, 1] == 0.0)

    @staticmethod
    def _sampled(F):
        """The ladder on F / rho^4 over (0, 0.3] and [0.3, 1], with every rho it sampled."""
        seen = []

        def density(rho):
            seen.append(rho)
            return F(rho) / rho**4

        fams, errors, nodes = renorm._interpolated_family(density, default_eps_grid(), 1.0, 1)
        return fams, errors, nodes, np.concatenate(seen)

    @pytest.mark.parametrize(
        "F, nodes",
        [(lambda rho: (1.0 + rho) ** 3, (9, 9)), (lambda rho: np.cos(10.0 * rho), (19, 39))],
        ids=["cubic", "cos"],
    )
    def test_each_piece_stops_at_its_first_passing_level(self, F, nodes):
        """A cubic passes at the first level on both pieces; cos(10 rho) passes
        at 19 nodes on (0, 0.3] and at 39 on [0.3, 1].  Each rho is sampled
        once, and only those of the levels a piece went through."""
        _, _, settled, seen = self._sampled(F)
        assert settled == nodes
        assert seen.size == np.unique(seen).size == sum(nodes)
        want = [lo + (hi - lo) * (1.0 - np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / 2.0
                for (lo, hi), n in zip([(0.0, 0.3), (0.3, 1.0)], nodes)]
        assert np.allclose(np.sort(seen), np.concatenate(want), rtol=0.0, atol=1e-15)

    def test_family_resolved_only_at_the_top_level(self):
        """F = 1/(1 + ((rho - 0.65)/0.25)^2) has poles 0.25 off [0.3, 1]: that
        piece's tail passes only at 79 nodes, where the family meets the
        adaptive oracle inside its error estimates."""
        F = lambda rho: 1.0 / (1.0 + ((rho - 0.65) / 0.25) ** 2)
        fams, errors, nodes, seen = self._sampled(F)
        assert nodes == (19, 79) and seen.size == np.unique(seen).size == 98
        eps = default_eps_grid()
        want = oracles.adaptive_family(lambda rho: F(rho) / rho**4, eps, 1.0)
        assert np.all(np.abs(fams - want) <= errors)
        assert np.all(np.abs(fams - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize(
        "density, piece",
        [
            (lambda rho: np.abs(rho - 0.1) / rho**4, r"\(0,0.3\]"),
            (lambda rho: np.abs(rho - 0.5) / rho**4, r"\(0.3,1\]"),
            (lambda rho: 1.0 / (((rho - 0.1) ** 2 + 1e-8) * rho**4), r"\(0,0.3\]"),
            (lambda rho: np.where(rho > 0.1, np.nan, 1.0), r"\(0,0.3\]"),
        ],
        ids=["kink", "kink_upper", "near_pole", "nan"],
    )
    def test_tail_over_its_bound_raises(self, density, piece):
        """Tails at the top level, 79 nodes: the kink at 0.1 reads 3.6e-5, at
        0.5 1.2e-4, the near-pole 0.62; the NaN reads NaN at the first level."""
        with pytest.raises(collar.NonConvergence, match="Chebyshev interpolant non-convergence on " + piece):
            renorm._interpolated_family(density, default_eps_grid(), 1.0, 1)

    def test_nan_raises_at_the_first_level(self):
        """Every later level keeps a NaN sample, so the first level's 18
        samples are all the ladder takes before it raises."""
        seen = []

        def density(rho):
            seen.append(rho.size)
            return np.where(rho > 0.1, np.nan, 1.0)

        with pytest.raises(collar.NonConvergence, match=r"\(0,0.3\] \(tail nan\)"):
            renorm._interpolated_family(density, default_eps_grid(), 1.0, 1)
        assert seen == [18]

    def test_tail_is_carried_through_the_rho4_weight(self):
        """1e-13 T_8 on (0, 0.3] is its own 9-node interpolant there, with tail
        1e-13, and both pieces stop at the first level: the estimates exceed
        the panels' by 1e-13 int_eps^0.3 rho^-4."""
        eps = default_eps_grid()
        top = 1e-13 * np.polynomial.Chebyshev.basis(8, domain=[0.0, 0.3])
        density = lambda rho: np.where(rho <= 0.3, top(rho), 0.0) / rho**4
        _, errors, nodes = renorm._interpolated_family(density, eps, 1.0, 1)
        _, panels = renorm._cumulative_family(density, eps, 1.0, 1)
        carried = 1e-13 * (eps**-3 - 0.3**-3) / 3.0
        assert nodes == (9, 9)
        assert np.allclose(errors[:, 0] - panels[:, 0], carried, rtol=1e-6, atol=0.0)

    def test_reported_quadrature_errors_are_the_interpolated_families(self):
        geom = RadialGeometry(perturbed_profile([0.05] * 3))
        eps = default_eps_grid()
        for report, integrands in [
            (renormalized_action(geom), ACTION_INTEGRANDS),
            (gauss_bonnet_audit(geom), [lambda cur: dfalg.batch_pfaffian(cur["riem_on"])]),
        ]:
            density = collar._invariant_density(geom, integrands)
            _, errors, nodes = renorm._interpolated_family(density, eps, geom.rho_max, geom.npts)
            assert report["quadrature_error"] == np.max(errors)
            assert report["interpolant_nodes"] == nodes

    def test_renvol_stays_on_direct_panels(self, monkeypatch, tmp_path):
        """The volume family never reads an interpolant (its eps-fit amplifies
        last-bit changes about 1e7-fold): renvol runs with the helper refused and
        reports volume_family's direct panels."""

        def refuse(*args):
            raise AssertionError("volume_family read an interpolant")

        monkeypatch.setattr(renorm, "_interpolated_family", refuse)
        theta = [0.05] * 3
        config = tmp_path / "theta.json"
        config.write_text(json.dumps({"family": "radial", "seed": 0, "profile": {"theta": theta}}))
        assert cli.main(["renvol", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "renvol-report.json").read_text())["artifacts"]

        vols, _ = volume_family(RadialGeometry(perturbed_profile(theta)))
        assert report["volumes"] == vols.tolist()


class TestBoundaryII:
    def test_flat_torus_phi0(self):
        """Gamma4 = identity exactly: Phi0 = 6 (2 pi)^3 eps^-3.

        The cusp metric is hyperbolic, so the curvature term does not vanish:
        sum eps(sig) eps(eta) R_{s1 s2 e1 e2} delta_{s3 e3} = 12 pointwise,
        making Phi1 equal to Phi0 on every slice.
        """
        eps = np.array([0.1, 0.2, 0.4])
        bt = boundary_II(TorusJetGeometry(BoundaryJet.flat(4)), eps)
        np.testing.assert_allclose(bt["phi0"], 6.0 * (2 * math.pi) ** 3 / eps**3, rtol=1e-12)
        np.testing.assert_allclose(bt["phi1"], bt["phi0"], rtol=1e-12)
        np.testing.assert_allclose(bt["ii"], (bt["phi0"] / 12 - bt["phi1"] / 8) / PI2)

    def test_hyperbolic_gauss_bonnet_slicewise(self):
        """int II = chi - (3/4pi^2) Vol(M_eps), both sides independent."""
        eps_grid = default_eps_grid()
        geom = RadialGeometry(hyperbolic_profile())
        vols, _ = volume_family(geom, eps_grid=eps_grid)
        for k in (0, 5, -1):
            ii = boundary_II(geom, eps_grid[k])["ii"][0]
            want = 1.0 - 3.0 / (4.0 * PI2) * vols[k]
            assert abs(ii - want) < 1e-9 * max(1.0, abs(want))
        # the whole radial family goes to the engine in one batch
        family = boundary_II(geom, eps_grid)
        for k, eps in enumerate(eps_grid):
            single = boundary_II(geom, eps)
            assert family["phi0"][k] == pytest.approx(single["phi0"][0], rel=1e-13)
            assert family["phi1"][k] == pytest.approx(single["phi1"][0], rel=1e-13)

    def test_phi1_matches_permutation_sum(self):
        """Phi1 against the explicit 36-term sum over sig, eta in S3."""
        geom = TorusJetGeometry(random_jet(17, n_grid=4))
        perms = list(itertools.permutations(range(3)))
        sign = {p: round(np.linalg.det(np.eye(3)[list(p)])) for p in perms}
        for eps in (0.1, 0.25, 0.4):
            cur = collar.curvature_in_frame(geom, eps)
            q = cur["q"][:, :3, :3]
            h = np.einsum("nba,nbc,ncd->nad", q, cur["gamma4"], q)
            R = cur["riem_on"]
            phi1_pt = sum(
                sign[sig] * sign[eta] * R[:, sig[0], sig[1], eta[0], eta[1]] * h[:, sig[2], eta[2]]
                for sig in perms
                for eta in perms
            )
            measure = geom.weight * np.sqrt(np.linalg.det(cur["gbar"][:, :3, :3])) / eps**3
            want = 0.5 * float(np.sum(phi1_pt * measure))
            assert boundary_II(geom, eps)["phi1"][0] == pytest.approx(want, rel=1e-13)

    def test_eps_outside_the_collar(self):
        """eps must lie in (0, rho_max]: the right end is a valid slice, and
        past the ball's cap A(2.5) = -0.5625 would pass A^2 > 0 unnoticed."""
        for geom, inside, outside in (
            (RadialGeometry(hyperbolic_profile()), 1.99, 2.5),
            (TorusJetGeometry(random_jet(17, n_grid=4)), 1.0, 1.7),
        ):
            assert np.all(np.isfinite(boundary_II(geom, inside)["ii"]))
            for eps in (0.0, -0.1, outside, [0.1, outside], math.nan):
                with pytest.raises(ValueError, match=r"outside the collar \(0, "):
                    boundary_II(geom, eps)

    def test_no_eps(self):
        with pytest.raises(ValueError, match="the rho array is empty"):
            boundary_II(RadialGeometry(hyperbolic_profile()), [])


def gauss_bonnet_report(theta=(0.0, 0.0, 0.0)):
    """The gauss-bonnet report on the radial profile ``theta``: the CLI judges the audit."""
    config = cli.AuditConfig(family="radial", seed=0, theta=tuple(map(float, theta)))
    return cli.run_gauss_bonnet(config)


class TestGaussBonnetAudit:
    def test_hyperbolic_ball(self):
        rep = gauss_bonnet_report()
        assert rep.passed
        assert abs(rep.artifacts["fp_interior"] - 1.0) < 1e-6
        assert np.max(np.abs(rep.artifacts["total"] - 1.0)) < 1e-9

    def test_degenerate_perturbation_matches_hyperbolic(self):
        base = gauss_bonnet_audit(RadialGeometry(hyperbolic_profile()))
        pert = gauss_bonnet_audit(RadialGeometry(perturbed_profile([0.0, 0.0, 0.0])))
        assert np.array_equal(base["interior"], pert["interior"])
        assert np.array_equal(base["boundary"], pert["boundary"])

    def test_sum_constant_on_random_profiles(self):
        """Gauss-Bonnet exactness at every eps, including v3 != 0 profiles."""
        rng = np.random.default_rng(23)
        for _ in range(3):
            theta = 0.02 * rng.uniform(-1.0, 1.0, size=3)
            rep = gauss_bonnet_report(theta)
            assert rep.checks[0]["passed"], rep.checks[0]
            assert np.max(np.abs(rep.artifacts["total"] - 1.0)) < 1e-6

    def test_even_perturbation_satisfies_theorem(self):
        """v3 = 0 (no rho^3 term): both finite-part claims hold as stated."""
        rep = gauss_bonnet_report([0.0, 0.0, 0.02])
        assert rep.passed, rep.checks

    @pytest.mark.xfail(
        strict=True,
        reason="documented discrepancy: FP int II = (1/2pi^2) int v3 dvol_gamma,"
        " not 0, for v3 != 0 profiles (decisions ledger)",
    )
    def test_finite_parts_as_stated_with_v3(self):
        rep = gauss_bonnet_report([0.01, 0.0, 0.0])
        assert rep.passed, rep.checks

    def test_corrected_finite_part_identity(self):
        """FP int Pff = chi - (1/2pi^2) int v3 dvol_gamma; no log term."""
        rng = np.random.default_rng(31)
        for _ in range(3):
            theta = 0.02 * rng.uniform(-1.0, 1.0, size=3)
            prof = perturbed_profile(theta)
            rep = gauss_bonnet_audit(RadialGeometry(prof))
            v3 = float(collar.det_series(RadialGeometry(prof))["v3"][0])
            shift = v3  # (1/2pi^2) * v3 * Vol(S^3) = v3
            assert abs(rep["fp_interior"].finite - (1.0 - shift)) < 2e-5
            assert abs(rep["fp_boundary"].finite - shift) < 2e-5
            assert abs(rep["fp_interior"].log_coeff) < 1e-4

    def test_failure_is_reported_not_raised(self):
        rep = gauss_bonnet_report([0.01, 0.0, 0.0])
        assert not rep.passed
        failing = [c for c in rep.checks if not c["passed"]]
        assert failing and all("anchor" in c for c in failing)

    def test_refuses_all_but_the_radial_geometry(self):
        """chi = 1 is the ball's, so no other geometry is audited."""
        ball = RadialGeometry(hyperbolic_profile())
        for geom in (TorusJetGeometry(random_jet(3, n_grid=4)),
                     PerturbedGeometry(ball, PolynomialPerturbation({2: np.zeros((1, 3, 3))}), 0.0)):
            with pytest.raises(ValueError, match="declares chi"):
                gauss_bonnet_audit(geom)


class TestRenormalizedAction:
    def test_hyperbolic_values(self):
        act = renormalized_action(RadialGeometry(hyperbolic_profile()))
        assert act["action"].finite == pytest.approx(48.0 * PI2, rel=1e-8)
        assert act["s2"].finite == pytest.approx(144.0 * 4.0 * PI2 / 3.0, rel=1e-8)
        assert abs(act["z2"].finite) < 1e-10
        assert abs(act["w2"].finite) < 1e-10

    def test_flat_torus_scaling(self):
        """Pointwise cusp constants scale by the finite part of the volume."""
        act = renormalized_action(TorusJetGeometry(BoundaryJet.flat(2)))
        scale = -((2.0 * math.pi) ** 3) / 3.0
        assert act["s2"].finite == pytest.approx(144.0 * scale, rel=1e-8)
        assert act["action"].finite == pytest.approx(36.0 * scale, rel=1e-8)
        assert abs(act["z2"].finite) < 1e-6

    @pytest.mark.parametrize(
        "geom, calls, slices, nodes",
        [
            (RadialGeometry(perturbed_profile([0.05] * 3)), 3, 58, (19, 39)),
            (TorusJetGeometry(random_jet(3)), 38, 38, (19, 19)),
        ],
        ids=["radial", "torus"],
    )
    def test_curvature_slices_per_family(self, monkeypatch, geom, calls, slices, nodes):
        """The Chebyshev nodes the two pieces settle on, whatever the panels:
        the radial nodes go one engine call per level (9 + 9, 10 + 10, then
        20 on [0.3, 2] alone), the torus nodes one 512-point slice to a call."""
        seen = []

        def counting(geom, rho, engine=collar.curvature_in_frame):
            seen.append(np.size(rho))
            return engine(geom, rho)

        monkeypatch.setattr(collar, "curvature_in_frame", counting)
        assert renormalized_action(geom)["interpolant_nodes"] == nodes
        assert (len(seen), sum(seen)) == (calls, slices)

    @pytest.mark.parametrize(
        "scale, power, error, message",
        [(1e-2, 0, collar.NonConvergence, "family level"), (1e-3, 4, renorm.FitRejected, "FP")],
    )
    def test_broken_rewrite_identity_is_typed(self, monkeypatch, scale, power, error, message):
        """An offset in |r|^2 breaks the rewrite: 0.01 on the ball's families
        (relative 8.3e-4, over 1e-8), 0.001 rho^4 only in their finite parts
        (the families move 1.8e-9, the finite parts 1.1e-4, over 1e-5)."""

        def offset(geom, rho, engine=collar.curvature_in_frame):
            cur = engine(geom, rho)
            cur["invariants"]["r2"] = cur["invariants"]["r2"] + scale * np.asarray(rho) ** power
            return cur

        monkeypatch.setattr(collar, "curvature_in_frame", offset)
        with pytest.raises(error, match=message) as caught:
            renormalized_action(RadialGeometry(hyperbolic_profile()))
        assert isinstance(caught.value, renorm.FitRejected) == (power == 4)

    def test_rewrite_identity_random_profiles(self):
        """s^2 - 3|r|^2 = s^2/4 - 3|z|^2 on random profiles.

        The identity is sharp at the integrand-family level (the two sides
        are pointwise-identical combinations of the same curvature
        invariants); the finite-part comparison additionally carries fit
        noise amplified by the ~1e8 dynamic range of the families, so it is
        checked against a looser floor.
        """
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = 0.02 * rng.uniform(-1.0, 1.0, size=3)
            act = renormalized_action(RadialGeometry(perturbed_profile(theta)))
            assert act["rewrite_deviation"] < 1e-8
            assert act["rewrite_fp_deviation"] < 1e-5


class TestOuterCutoff:
    def test_perturbed_ball_runs_to_the_cap(self):
        """A PerturbedGeometry integrates to its base's rho_max: at t = 0 the
        ball's families run to the cap rho = 2 and give its closed forms."""
        zero = PolynomialPerturbation({2: 0.0 * np.eye(3)[None]})
        geom = PerturbedGeometry(RadialGeometry(hyperbolic_profile()), zero, 0.0)
        assert geom.rho_max == RadialGeometry.rho_max == 2.0
        vols, _ = volume_family(geom)
        assert finite_part((default_eps_grid(), vols)).finite == pytest.approx(
            4.0 * PI2 / 3.0, abs=1e-9)
        assert renormalized_action(geom)["action"].finite == pytest.approx(48.0 * PI2, rel=1e-8)

    @pytest.mark.parametrize("family", [volume_family, gauss_bonnet_audit, renormalized_action])
    @pytest.mark.parametrize("bad", [2.5, 2.0, 0.0, -0.1, math.nan, math.inf],
                             ids=["past-cap", "at-cap", "zero", "negative", "nan", "inf"])
    def test_eps_grid_outside_the_collar_is_refused(self, family, bad):
        """Every family refuses an eps outside (0, rho_max), naming the first,
        before any numpy warning: past the cap the Gauss-Kronrod panels raised
        NonConvergence, a negative eps a math domain error and a NaN a failed
        integer conversion."""
        geom = RadialGeometry(perturbed_profile([0.05, 0.05, 0.05]))
        eps = default_eps_grid()
        eps[[3, 7]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^eps={bad:.6g} outside the collar \(0, 2\)$"):
                family(geom, eps)

    @pytest.mark.parametrize("family", [volume_family, gauss_bonnet_audit, renormalized_action])
    @pytest.mark.parametrize("order, first", [
        ([0, 1, 2, 3, 5, 4, 6, 7, 8, 9, 10, 11], 5),
        (list(range(11, -1, -1)), 1),
        ([0, 1, 2, 3, 4, 5, 6, 6, 7, 8, 9, 10], 7),
    ], ids=["permuted", "reversed", "repeated"])
    def test_eps_grid_out_of_order_is_refused(self, monkeypatch, family, order, first):
        """The panels run from each eps to the next, so a grid that does not
        ascend strictly is refused before any slice is computed, naming the
        first sample out of order: the permuted default grid raised
        NonConvergence on [0.183,0.0327], and a reversed one was accepted."""
        geom = RadialGeometry(perturbed_profile([0.05, 0.05, 0.05]))
        eps = default_eps_grid()[order]
        monkeypatch.setattr(collar, "map_slices", lambda *args: pytest.fail("integrated"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^eps sample {first} \({eps[first]:.6g}\) "
                                                 rf"is not above sample {first - 1} "):
                family(geom, eps)


class TestTheorem7Cancellation:
    """eps^0 coefficients of the Phi0 / Phi1 slice families on torus jets."""

    @staticmethod
    def _phi_fits(jet):
        eps = default_eps_grid()
        bt = boundary_II(TorusJetGeometry(jet), eps)
        return finite_part((eps, bt["phi0"])), finite_part((eps, bt["phi1"]))

    @staticmethod
    def _int_v3(jet):
        """L = int v3 dvol_gamma."""
        geom = TorusJetGeometry(jet)
        v3 = collar.det_series(geom)["v3"]
        return collar.slice_integral(geom, 0.0, v3, collar._slice_frame(geom, 0.0)["dvol"])

    @pytest.mark.xfail(
        strict=True,
        reason="documented discrepancy: the Phi-family eps^0 coefficients equal"
        " -12 int v3 dvol_gamma, not 0 (decisions ledger)",
    )
    def test_cancellation_as_stated(self):
        jet = random_jet(101, n_grid=8, amplitude=0.05)
        fp0, fp1 = self._phi_fits(jet)
        assert abs(fp0.finite) < 1e-5
        assert abs(fp1.finite) < 1e-5

    def test_corrected_eps0_coefficients(self):
        rng_seeds = (101, 202, 303)
        for seed in rng_seeds:
            jet = random_jet(seed, n_grid=8, amplitude=0.05)
            fp0, fp1 = self._phi_fits(jet)
            want = -12.0 * self._int_v3(jet)
            scale = max(1.0, abs(want))
            assert abs(fp0.finite - want) < 1e-3 * scale
            assert abs(fp1.finite - want) < 1e-3 * scale
