"""Collar geometry of asymptotically hyperbolic metrics.

The ambient data is a compactified metric in collar normal form

    gbar = d rho^2 + g_rho,      g = gbar / rho^2,

on (0, rho_max] x boundary, with g_rho either a jet expansion
``gamma + rho^2 g2 + rho^3 g3`` over a periodic flat 3-torus, or
``A(rho)^2 g_{S^3}`` for a radial profile A on the round 3-sphere.

All tensor components are taken in the scaled frame ``X_s = rho Xbar_s``
(Xbar_4 = d/d rho, Xbar_i the backend boundary frame), in which
``g(X_s, X_t) = gbar_st`` and the frame brackets are
``[X_4, X_i] = X_i`` plus ``rho`` times the boundary structure constants.
Christoffel symbols of g come from the closed-form relation

    Gamma^u_st = rho Gammabar^u_st - delta_su delta_t4 + delta_u4 gbar_st,

and curvature uses the non-coordinate-frame formula with the explicit
bracket correction.  The closed-form Cholesky factor g_rho = L L^T of the
spatial metric block, computed entrywise over the point axis, gives the frame
data of an engine call: the upper-triangular q = L^-T, which moves components
into the orthonormal frame consumed by :mod:`ahrenvol.dfalg`, the inverse
metric q q^T (Christoffels, Ricci) and the slice measure L_00 L_11 L_22.
Consumers may assume only q^T gbar q = I: every invariant, integral and
verdict is the same in any orthonormal frame.

rho-derivatives of the metric are analytic (its families are polynomial or
closed-form in rho).  Each geometry's ``spatial(rho, orders=4)`` returns the
tuple (g_rho, d/d rho g_rho, ...) of its leading ``orders`` derivative orders,
1 to 4, each (points, 3, 3), and computes no order past them: a caller that
reads g_rho alone asks for one.  Boundary derivatives on the torus are
spectral: each geometry's ``xderiv`` returns the three x-derivatives of a pointwise field
stacked as (points, 3, ...), and the torus computes them by applying the
grid's dense n x n Fourier differentiation matrix along each grid axis.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.chebyshev import chebder, chebval, chebvander
from numpy.polynomial.polynomial import polyadd, polyder, polyval

from . import dfalg

__all__ = [
    "BoundaryJet",
    "RadialProfile",
    "RhoSeries",
    "NonConvergence",
    "InvalidProfile",
    "TorusJetGeometry",
    "RadialGeometry",
    "PerturbedGeometry",
    "PolynomialPerturbation",
    "require_positive",
    "slice_integral",
    "gauss_nodes",
    "rho_series_fit",
    "ChebyshevRhoBasis",
    "chebyshev_rho_derivatives",
    "frame_curvature",
    "curvature_in_frame",
    "curvature_pair",
    "map_slices",
    "to_on2",
    "to_on4",
    "spectral_deriv",
    "det_series",
    "jet_identity_report",
    "random_jet",
    "hyperbolic_profile",
    "perturbed_profile",
]


class NonConvergence(RuntimeError):
    """A quadrature or an iteration did not converge (CLI exit code 3)."""


class InvalidProfile(ValueError):
    """A radial profile breaks a condition of :class:`RadialProfile`."""


# -- boundary data -----------------------------------------------------------


def _check_sym_field(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape[-2:] != (3, 3):
        raise ValueError(f"{name} must have trailing shape (3, 3)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(arr - np.swapaxes(arr, -1, -2)), initial=0.0) > 1e-12 * max(
        1.0, float(np.max(np.abs(arr), initial=0.0))
    ):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (arr + np.swapaxes(arr, -1, -2))


@dataclass(frozen=True)
class BoundaryJet:
    """Boundary expansion data (gamma, g2, g3) on an N^3 periodic torus grid.

    The first-order coefficient is identically zero (totally geodesic
    compactification), so it is not a field of this type.
    """

    n_grid: int
    gamma: np.ndarray  # (N, N, N, 3, 3)
    g2: np.ndarray
    g3: np.ndarray

    def __post_init__(self):
        shape = (self.n_grid,) * 3 + (3, 3)
        for name in ("gamma", "g2", "g3"):
            arr = _check_sym_field(name, getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, arr)
        # every pivot of the closed-form Cholesky factor positive, as in require_positive
        with np.errstate(invalid="ignore", divide="ignore"):
            l00, _, _, l11, _, l22 = _cholesky3(self.gamma.reshape(-1, 3, 3))
        if not np.all((l00 > 0.0) & (l11 > 0.0) & (l22 > 0.0)):
            raise ValueError("gamma must be positive-definite at every sample")

    @classmethod
    def flat(cls, n_grid: int = 4) -> "BoundaryJet":
        eye = np.broadcast_to(np.eye(3), (n_grid,) * 3 + (3, 3)).copy()
        zero = np.zeros((n_grid,) * 3 + (3, 3))
        return cls(n_grid, eye, zero, zero.copy())

    @classmethod
    def constant(cls, n_grid: int, gamma: np.ndarray, g2: np.ndarray, g3: np.ndarray) -> "BoundaryJet":
        shape = (n_grid,) * 3 + (3, 3)
        return cls(
            n_grid,
            np.broadcast_to(np.asarray(gamma, dtype=float), shape).copy(),
            np.broadcast_to(np.asarray(g2, dtype=float), shape).copy(),
            np.broadcast_to(np.asarray(g3, dtype=float), shape).copy(),
        )


def _trig_field(rng: np.random.Generator, n_grid: int, amplitude: float) -> np.ndarray:
    """Random symmetric (3,3) field: bounded trigonometric polynomial per entry."""
    x = np.arange(n_grid) * (2.0 * math.pi / n_grid)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    out = np.zeros((n_grid,) * 3 + (3, 3))
    n_terms = 4
    for a in range(3):
        for b in range(a, 3):
            f = np.zeros((n_grid,) * 3)
            for _ in range(n_terms):
                m = rng.integers(-3, 4, size=3)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                amp = rng.uniform(0.2, 1.0)
                f += amp * np.cos(m[0] * X + m[1] * Y + m[2] * Z + phase)
            scale = float(np.max(np.abs(f), initial=1.0))
            f *= amplitude * rng.uniform(0.3, 1.0) / max(scale, 1e-12)
            out[..., a, b] = f
            out[..., b, a] = f
    return out


def random_jet(seed: int, n_grid: int = 8, amplitude: float = 0.05) -> BoundaryJet:
    """Seeded random boundary jet with band-limited trig-polynomial fields.

    The fields carry wave numbers up to 3 per axis, so with n_grid >= 8 they
    are exactly band-limited and spectral boundary derivatives are exact to
    roundoff.
    """
    rng = np.random.default_rng(seed)
    eye = np.broadcast_to(np.eye(3), (n_grid,) * 3 + (3, 3))
    gamma = eye + _trig_field(rng, n_grid, amplitude)
    g2 = _trig_field(rng, n_grid, amplitude)
    g3 = _trig_field(rng, n_grid, amplitude)
    return BoundaryJet(n_grid, gamma, g2, g3)


@dataclass(frozen=True)
class RadialProfile:
    """Warping profile A(rho) on (0, 2] with g_rho = A^2 g_{S^3}.

    Polynomial in rho (a power series: equal domain and window) with finite
    coefficients; must satisfy A(0)=1, A'(0)=0 (asymptotically hyperbolic,
    totally geodesic) and A(2)=0, A'(2)=-1 (smooth cap), and be positive on
    (0, 2).  The coefficients of A
    and its first three derivatives are kept, so ``a`` is one ``polyval``.
    """

    poly: Polynomial
    _derivs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.array_equal(self.poly.domain, self.poly.window):
            raise InvalidProfile("profile must be a power series in rho (domain == window)")
        # ahead of the checks below, where an infinite coefficient times 0 warns
        if not np.all(np.isfinite(self.poly.coef)):
            raise InvalidProfile("profile coefficients must be finite")
        object.__setattr__(self, "_derivs", tuple(polyder(self.poly.coef, k) for k in range(4)))
        checks = [
            (self.a(0.0), 1.0, "A(0) = 1"),
            (self.a(0.0, 1), 0.0, "A'(0) = 0"),
            (self.a(2.0), 0.0, "A(2) = 0"),
            (self.a(2.0, 1), -1.0, "A'(2) = -1"),
        ]
        # each test is written so that a NaN fails it
        for got, want, label in checks:
            if not abs(got - want) <= 1e-10:
                raise InvalidProfile(f"profile violates {label} (got {got:.3e})")
        rr = np.linspace(1e-4, 2.0 - 1e-4, 2001)
        if not np.min(self.a(rr)) > 0.0:
            raise InvalidProfile("profile must be positive on (0, 2)")

    def a(self, rho: float | np.ndarray, order: int = 0):
        """The order-th rho-derivative of A, for order 0 to 3."""
        return polyval(rho, self._derivs[order])


def hyperbolic_profile() -> RadialProfile:
    """A = 1 - rho^2/4, the Poincare ball in collar normal form."""
    return RadialProfile(Polynomial([1.0, 0.0, -0.25]))


def perturbed_profile(theta) -> RadialProfile:
    """Hyperbolic profile plus sum_k theta_k rho^(2+k) (1 - rho/2)^2.

    Each bump preserves all four boundary/cap conditions, so they hold for
    any finite parameter vector.  The coefficients come from the convolutions
    and sums of the ``Polynomial`` expression ``A + t_k * rho^(2+k) * window``,
    in its order, without building the intermediate objects.
    """
    coef = np.array([1.0, 0.0, -0.25])
    window = np.convolve([1.0, -0.5], [1.0, -0.5])
    for k, t in enumerate(np.atleast_1d(np.asarray(theta, dtype=float))):
        power = np.zeros(3 + k)
        power[-1] = 1.0
        coef = polyadd(coef, np.convolve(np.convolve([float(t)], power), window))
    return RadialProfile(Polynomial(coef))


# -- geometry backends -------------------------------------------------------


class TorusJetGeometry:
    """Flat 3-torus boundary with jet metric gamma + rho^2 g2 + rho^3 g3.

    Boundary frame: coordinate fields d/dx_i on the side-2pi torus
    (structure constants zero).  x-derivatives are spectral: the dense n x n
    Fourier differentiation matrix, built once, applied along each grid axis.
    """

    # outer end of the collar the eps-families integrate to
    rho_max = 1.0
    chi = None  # no cap closes the collar, so it has no Euler characteristic

    def __init__(self, jet: BoundaryJet):
        self.jet = jet
        self.n_grid = jet.n_grid
        self.npts = jet.n_grid**3
        self.weight = (2.0 * math.pi / jet.n_grid) ** 3
        self.cbar = np.zeros((3, 3, 3))
        flat = lambda f: f.reshape(self.npts, 3, 3)
        self._series = PolynomialPerturbation({0: flat(jet.gamma), 2: flat(jet.g2), 3: flat(jet.g3)})
        self._dmat = spectral_deriv(np.eye(jet.n_grid), 0)

    def spatial(self, rho, orders: int = 4):
        """g_rho and its analytic rho-derivatives below ``orders``, each (points, 3, 3).

        ``rho`` is a scalar or a 1-D array; see :func:`curvature_in_frame` for
        the point layout of an array.
        """
        return tuple(self._series.value(rho, k) for k in range(orders))

    def xderiv(self, field: np.ndarray) -> np.ndarray:
        """The three boundary x-derivatives of a pointwise field, (points, 3, ...).

        The point axis may stack several rho-slices (rho-major).  Each
        derivative applies the Fourier differentiation matrix along one grid
        axis.
        """
        n = self.n_grid
        grid = field.reshape(-1, n, n, n, math.prod(field.shape[1:]))
        out = np.empty(grid.shape[:4] + (3, grid.shape[4]))
        for axis in range(3):
            # the grid axes before ``axis`` batch the product, those after it ride along
            lead = grid.shape[0] * n**axis
            out[..., axis, :] = (self._dmat @ grid.reshape(lead, n, -1)).reshape(grid.shape)
        return out.reshape((field.shape[0], 3) + field.shape[1:])


def spectral_deriv(field: np.ndarray, axis: int) -> np.ndarray:
    """Spectral derivative along ``axis`` of a field on a side-2pi periodic grid."""
    n = field.shape[axis]
    k = 1j * np.fft.fftfreq(n, d=1.0 / n)
    shape = [1] * field.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(field, axis=axis) * k.reshape(shape), axis=axis).real


_EPS3 = np.zeros((3, 3, 3))
for _p in itertools.permutations(range(3)):
    _EPS3[_p] = 1.0 if _p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0


class RadialGeometry:
    """Round S^3 boundary with g_rho = A(rho)^2 g_{S^3}.

    Boundary frame: the left-invariant orthonormal frame sigma_i of the unit
    round sphere, with [sigma_i, sigma_j] = 2 eps_ijk sigma_k.  Every field is
    invariant, so the backend is one-dimensional in rho (a single boundary
    sample of measure Vol(S^3) = 2 pi^2).
    """

    # the cap A(2) = 0, where the eps-families end
    rho_max = 2.0
    chi = 1.0  # capped there, the collar is a ball

    def __init__(self, profile: RadialProfile):
        self.profile = profile
        self.npts = 1
        self.weight = 2.0 * math.pi**2
        self.cbar = 2.0 * _EPS3  # cbar[k, i, j] = Cbar^k_ij

    def spatial(self, rho, orders: int = 4):
        """A^2 g_{S^3} and its rho-derivatives below ``orders``, each (slices, 3, 3)."""
        a = [np.reshape(self.profile.a(rho, k), (-1, 1, 1)) for k in range(orders)]
        # the rho-derivatives of A^2; order k reads A's derivatives up to k
        blocks = (
            lambda: a[0] ** 2,
            lambda: 2.0 * a[0] * a[1],
            lambda: 2.0 * (a[1] ** 2 + a[0] * a[2]),
            lambda: 2.0 * (3.0 * a[1] * a[2] + a[0] * a[3]),
        )
        return tuple(block() * np.eye(3) for block in blocks[:orders])

    def xderiv(self, field: np.ndarray) -> np.ndarray:
        return np.zeros((field.shape[0], 3) + field.shape[1:])


class PolynomialPerturbation:
    """Tangential metric perturbation m(x, rho) = sum_p rho^p m_p(x).

    ``fields`` maps integer powers p to (npts, 3, 3) symmetric arrays.  A
    1-D ``rho`` stacks the slices rho-major along the point axis.
    """

    def __init__(self, fields: dict):
        self.fields = {int(p): np.asarray(f, dtype=float) for p, f in fields.items()}

    def value(self, rho, order: int = 0) -> np.ndarray:
        r = np.reshape(rho, (-1, 1, 1, 1))
        out = None
        for p, f in self.fields.items():
            if order > p:
                continue  # the order-th derivative of rho^p vanishes
            term = math.perm(p, order) * r ** (p - order) * f
            out = term if out is None else out + term
        if out is None:
            out = np.zeros((r.shape[0],) + next(iter(self.fields.values())).shape)
        return out.reshape((-1,) + out.shape[2:])


class PerturbedGeometry:
    """Wraps a geometry with g_rho -> g_rho + t * m(x, rho) (same frame)."""

    def __init__(self, base, perturbation, t: float):
        self.base = base
        self.perturbation = perturbation
        self.t = float(t)
        self.npts = base.npts
        self.weight = base.weight
        self.cbar = base.cbar
        self.rho_max = base.rho_max
        self.chi = None  # a perturbation need not keep the cap smooth

    def spatial(self, rho, orders: int = 4):
        base = self.base.spatial(rho, orders)
        return tuple(b + self.t * self.perturbation.value(rho, k) for k, b in enumerate(base))

    def xderiv(self, field: np.ndarray) -> np.ndarray:
        return self.base.xderiv(field)


# -- frame Christoffels and curvature ---------------------------------------


def _gbar_blocks(geom, rho):
    """Full frame metric gbar_st (points, 4, 4) and analytic rho-derivatives."""
    g, d1, d2 = geom.spatial(rho, 3)
    npts = g.shape[0]

    def embed(block, corner):
        out = np.zeros((npts, 4, 4))
        out[:, :3, :3] = block
        out[:, 3, 3] = corner
        return out

    return embed(g, 1.0), embed(d1, 0.0), embed(d2, 0.0)


def _cbar4(geom) -> np.ndarray:
    """Boundary structure constants embedded in 4 indices (Xbar_4 commutes)."""
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = geom.cbar
    return c


def _cholesky3(g: np.ndarray):
    """Entries (l00, l10, l20, l11, l21, l22) of the Cholesky factor g = L L^T
    of a batch of symmetric 3x3 matrices, in closed form (no LAPACK call).

    Only the lower triangle is read.  Where g is not positive-definite, some
    diagonal entry is 0 or NaN (its pivot, or an earlier one, is not
    positive), and a NaN entry of g makes a diagonal entry NaN.
    """
    l00 = np.sqrt(g[:, 0, 0])
    l10 = g[:, 1, 0] / l00
    l20 = g[:, 2, 0] / l00
    l11 = np.sqrt(g[:, 1, 1] - l10 * l10)
    l21 = (g[:, 2, 1] - l20 * l10) / l11
    l22 = np.sqrt(g[:, 2, 2] - l20 * l20 - l21 * l21)
    return l00, l10, l20, l11, l21, l22


def _on_frame(gbar: np.ndarray):
    """q, gbar^-1 and sqrt det g_rho of a batch of frame metrics, in closed form.

    With the Cholesky factor g_rho = L L^T (:func:`_cholesky3`), q = L^-T (+) 1
    is upper triangular with q^T gbar q = I, gbar^-1 = q q^T and
    dvol = L_00 L_11 L_22.  The frame is one orthonormal frame among many:
    callers rely on q^T gbar q = I only, never on q = q^T.
    """
    l00, l10, l20, l11, l21, l22 = _cholesky3(gbar[:, :3, :3])
    # q[i, j] = (L^-1)[j, i], the transpose of the lower-triangular inverse
    q00, q11, q22 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    q01 = -l10 * q00 * q11
    q12 = -l21 * q11 * q22
    q02 = -(l20 * q00 + l21 * q01) * q22
    q = np.zeros_like(gbar)
    ginv = np.zeros_like(gbar)
    q[:, 0, 0], q[:, 0, 1], q[:, 0, 2] = q00, q01, q02
    q[:, 1, 1], q[:, 1, 2], q[:, 2, 2] = q11, q12, q22
    # gbar^-1 = q q^T, symmetric by construction
    ginv[:, 0, 0] = q00 * q00 + q01 * q01 + q02 * q02
    ginv[:, 0, 1] = ginv[:, 1, 0] = q01 * q11 + q02 * q12
    ginv[:, 0, 2] = ginv[:, 2, 0] = q02 * q22
    ginv[:, 1, 1] = q11 * q11 + q12 * q12
    ginv[:, 1, 2] = ginv[:, 2, 1] = q12 * q22
    ginv[:, 2, 2] = q22 * q22
    q[:, 3, 3] = ginv[:, 3, 3] = 1.0
    return q, ginv, l00 * l11 * l22


def _slice_frame(geom, rho) -> dict:
    """Metric blocks of rho-slices and their frame data, built once per engine call.

    Keys 'gbar', 'dgbar', 'd2gbar' (see :func:`_gbar_blocks`) and 'q',
    'ginv', 'dvol' (see :func:`_on_frame`).
    """
    gbar, dgbar, d2gbar = _gbar_blocks(geom, rho)
    q, ginv, dvol = _on_frame(gbar)
    return {"gbar": gbar, "dgbar": dgbar, "d2gbar": d2gbar, "q": q, "ginv": ginv, "dvol": dvol}


def christoffels_bar(geom, frame):
    """Levi-Civita symbols of gbar in the frame Xbar, plus d/d rho.

    Returns (Gbar, dGbar) with Gbar[n, u, a, b] = Gammabar^u_ab, from the
    Koszul formula with structure-function terms.  ``frame`` is the slices'
    :func:`_slice_frame`.
    """
    gbar, dgbar, ginv = frame["gbar"], frame["dgbar"], frame["ginv"]
    npts = gbar.shape[0]
    pair = np.stack([gbar, dgbar], axis=1)  # (n, f, 4, 4): gbar and d/d rho gbar
    # xg[n, f, a, b, c] = Xbar_a (pair_f)_bc, one x-derivative call for both fields
    xg = np.empty((npts, 2, 4, 4, 4))
    xg[:, :, :3] = geom.xderiv(pair).transpose(0, 2, 1, 3, 4)
    xg[:, 0, 3] = dgbar
    xg[:, 1, 3] = frame["d2gbar"]
    # minus the structure-constant terms, C^d_ab (pair_f)_dc at [n, f, c, a, b]
    xg -= np.tensordot(pair, _cbar4(geom), axes=([2], [0]))
    # lower[n, f, c, a, b] = 1/2 (X_a g_bc + X_b g_ac - X_c g_ab
    #                             + C^d_ab g_dc - C^d_ac g_db - C^d_bc g_da)
    lower = xg.transpose(0, 1, 4, 2, 3) + xg.transpose(0, 1, 4, 3, 2) - xg
    lower = 0.5 * lower.reshape(npts, 2, 4, 16)
    gamma = ginv @ lower[:, 0]
    # d/d rho (g^-1 lower) = g^-1 (dlower - dgbar g^-1 lower)
    dgamma = ginv @ (lower[:, 1] - dgbar @ gamma)
    return gamma.reshape(npts, 4, 4, 4), dgamma.reshape(npts, 4, 4, 4)


def _rho_per_point(rho, npts: int) -> np.ndarray:
    """rho repeated over the points of each slice, shaped (npts, 1, 1, 1)."""
    r = np.atleast_1d(np.asarray(rho, dtype=float))
    return np.repeat(r, npts // r.size).reshape(-1, 1, 1, 1)


def christoffels(geom, rho, frame, bar=None):
    """Frame Christoffels of g in X_s = rho Xbar_s, and rho d/d rho of them.

    Gamma^u_st = rho Gammabar^u_st - delta_su delta_t4 + delta_u4 gbar_st.
    ``frame`` is as in :func:`christoffels_bar`, and ``bar`` is its result
    on the same slices, computed here when not given.
    """
    gamma_bar, dgamma_bar = christoffels_bar(geom, frame) if bar is None else bar
    rho = _rho_per_point(rho, gamma_bar.shape[0])
    gamma = rho * gamma_bar
    gamma[:, range(4), range(4), 3] -= 1.0
    gamma[:, 3] += frame["gbar"]
    # rho d/d rho Gamma = rho (Gammabar + rho dGammabar + delta_u4 dgbar)
    dgamma = gamma_bar + rho * dgamma_bar
    dgamma[:, 3] += frame["dgbar"]
    return gamma, rho * dgamma


def _frame_riemann(geom, gamma, radial_deriv, spatial_scale, cfun, gbar):
    """Riem_stuv = gbar(R(F_s, F_t) F_u, F_v) for a frame with given data.

    gamma[n,u,a,b]: connection symbols; radial_deriv: F_4 applied to gamma;
    spatial_scale: factor multiplying Xbar_i to give F_i; cfun[(n),x,s,t]:
    structure functions of the frame F.
    """
    npts = gamma.shape[0]
    # gt[n, a, b, w] = Gamma^w_ab; every term below is laid out (n, s, t, u, w)
    gt = np.ascontiguousarray(gamma.transpose(0, 2, 3, 1))
    # rup[n, s, t, u, w] = F_s Gamma^w_tu + Gamma^w_sx Gamma^x_tu, then (s <-> t)
    rup = np.empty((npts, 4, 4, 4, 4))
    rup[:, :3] = np.reshape(spatial_scale, (-1, 1, 1, 1, 1)) * geom.xderiv(gt)
    rup[:, 3] = radial_deriv.transpose(0, 2, 3, 1)
    rup += (gamma.reshape(npts, 1, 4, 16).swapaxes(-1, -2) @ gt).reshape(rup.shape)
    rup = rup - rup.swapaxes(1, 2)
    # structure-function term C^x_st Gamma^w_xu
    ct = cfun.reshape(cfun.shape[:-3] + (4, 16)).swapaxes(-1, -2)
    rup -= (ct @ gt.reshape(npts, 4, 16)).reshape(rup.shape)
    return (rup.reshape(npts, 64, 4) @ gbar).reshape(npts, 4, 4, 4, 4)


def to_on2(fld: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.einsum("nst,nsa,ntb->nab", fld, q, q)


def to_on4(fld: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    # qq[n, (s, t), (a, b)] = q[n, s, a] q[n, t, b] moves an index pair at once
    qq = (q[:, :, None, :, None] * q[:, None, :, None, :]).reshape(n, 16, 16)
    return (qq.swapaxes(1, 2) @ fld.reshape(n, 16, 16) @ qq).reshape(fld.shape)


# structure functions of X without the boundary part: [X_4, X_i] = X_i
_X_BRACKETS = np.einsum("s,xt->xst", np.eye(4)[3], np.eye(4)) - np.einsum(
    "t,xs->xst", np.eye(4)[3], np.eye(4)
)


def frame_curvature(geom, rho) -> dict:
    """Curvature of g on rho-slices in the scaled frame X only.

    ``rho`` is a scalar (one slice) or a 1-D array of slices.  Every field
    carries a leading point axis; for an array it is the rho-major flattening
    of (rho, boundary point), so point ``k * geom.npts + p`` is boundary
    point p on slice rho[k].

    Returns {'gbar', 'ginv' (gbar^-1), 'q' (see :func:`_on_frame`),
    'dvol' (sqrt det g_rho, the slice measure of gbar), 'gamma', 'dgamma'
    (rho d/d rho gamma, see :func:`christoffels`), 'gamma4', 'riem'
    (X-frame)}.  Ricci is ric_tv = ginv^su riem_stuv.
    """
    return _frame_curvature_from(geom, rho, _slice_frame(geom, rho))


def _frame_curvature_from(geom, rho, frame, bar=None) -> dict:
    """:func:`frame_curvature` from the slices' frame and, when given, their
    :func:`christoffels_bar`."""
    gamma, dgamma = christoffels(geom, rho, frame, bar)
    rho = _rho_per_point(rho, gamma.shape[0])
    # structure functions of X: [X_4, X_i] = X_i, [X_i, X_j] = rho Cbar^k_ij X_k
    cfun = _X_BRACKETS + rho * _cbar4(geom)
    return {
        "gbar": frame["gbar"],
        "ginv": frame["ginv"],
        "q": frame["q"],
        "dvol": frame["dvol"],
        "gamma": gamma,
        "dgamma": dgamma,
        "gamma4": gamma[:, 3, :3, :3],
        "riem": _frame_riemann(geom, gamma, dgamma, rho, cfun, frame["gbar"]),
    }


def curvature_in_frame(geom, rho) -> dict:
    """Curvature of g on rho-slices: frame, orthonormal, and invariants.

    The record of :func:`frame_curvature` (same point layout), plus
    'riem_on' (orthonormal components) and 'invariants'
    (:func:`ahrenvol.dfalg.batch_invariants` of riem_on).
    """
    return _with_invariants(frame_curvature(geom, rho))


def _with_invariants(cur: dict) -> dict:
    """Adds 'riem_on' and 'invariants' to a :func:`frame_curvature` record."""
    cur["riem_on"] = to_on4(cur["riem"], cur["q"])
    cur["invariants"] = dfalg.batch_invariants(cur["riem_on"])
    return cur


def frame_ricci(ginv: np.ndarray, riem: np.ndarray):
    """Ricci ric_tv = ginv^su riem_stuv and s = ginv^tv ric_tv of frame components.

    Ricci is ginv as a 16-row vector times riem as the matrix [n, (s u), (t v)].
    """
    n = ginv.shape[0]
    ric = (ginv.reshape(n, 1, 16) @ riem.transpose(0, 1, 3, 2, 4).reshape(n, 16, 16)).reshape(n, 4, 4)
    return ric, np.einsum("nab,nab->n", ginv, ric)


def curvature_bar(geom, rho) -> dict:
    """Curvature of the compactified metric gbar in the frame Xbar.

    ``rho`` is a scalar or a 1-D array, with the point layout of
    :func:`curvature_in_frame`.
    """
    frame = _slice_frame(geom, rho)
    return _curvature_bar_from(geom, frame, christoffels_bar(geom, frame))


def _curvature_bar_from(geom, frame, bar) -> dict:
    """:func:`curvature_bar` from the slices' frame and :func:`christoffels_bar`."""
    riem = _frame_riemann(geom, *bar, 1.0, _cbar4(geom), frame["gbar"])
    return {"gbar": frame["gbar"], "riem": riem, "ric": frame_ricci(frame["ginv"], riem)[0]}


def curvature_pair(geom, rho) -> tuple:
    """(:func:`curvature_bar`, :func:`curvature_in_frame`) of the same rho-slices.

    Both records come from one :func:`_slice_frame` and one
    :func:`christoffels_bar` evaluation, and equal those of the two calls.
    """
    frame = _slice_frame(geom, rho)
    bar = christoffels_bar(geom, frame)
    cur = _with_invariants(_frame_curvature_from(geom, rho, frame, bar))
    return _curvature_bar_from(geom, frame, bar), cur


# -- batches of rho-slices ----------------------------------------------------

# boundary points per engine call: bounds the working set while one-point
# radial slices batch.  An engine call peaks at about 12 KiB of temporaries
# per boundary point (tracemalloc: 6.2 MiB for a 512-point torus slice, whose
# returned record is 2.4 MiB, and 49 MiB at n_grid 16), so a 256-point call
# stays near 3 MiB (2.5 MiB for 256 radial slices).  A radial call costs
# about 0.4 ms plus 8 us per slice (one thread, 2-core VM: 0.43 ms for 1
# slice, 0.99 ms for 64, 2.0 ms for 256, 4.5 ms for 512), and 256 puts a
# Z(theta) evaluation's 160 slices, and the 48-node endpoint's 240, in one
# call each.  Over chunks of 64, 128, 256 and 512 the flow workload's
# operation took 1, 0.71, 0.57 and 0.56 of its 64-point time, and the peak
# RSS of three such operations went from 37.9 MiB to 39.7 MiB at 256 and at
# 512.  A 512-point torus slice still goes alone.
_CHUNK_POINTS = 256

# glibc's allocator policy for the engine's temporaries.  Its dynamic
# thresholds settle near 2 MiB here, below a torus slice's peak, so the freed
# heap top went back to the kernel after every slice and the next slice
# faulted it in again as zeroed pages: about 1650 minor faults per n_grid 8
# slice and 6400 per n_grid 16 slice.  These are the ceilings that glibc's own
# rule can reach: requests below 32 MiB come from the heap, and up to twice
# that of freed heap top stays in the process.  Faults per slice drop to about
# 0 at n_grid 8 and 16 (a 32 MiB trim threshold still leaves the n_grid 16
# count as it was).  n_grid 32 slices peak near 390 MiB and still fault,
# about 9200 times per slice instead of 16700.
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _keep_freed_heap() -> None:
    """Set the process's glibc heap thresholds to the values above.

    Both are set: setting either alone switches off glibc's dynamic
    thresholds and faults more than leaving both alone.  Where the C library
    has no ``mallopt``, or the process's symbols cannot be loaded (Windows),
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, _MMAP_THRESHOLD_BYTES)
    mallopt(m_trim_threshold, _TRIM_THRESHOLD_BYTES)


_keep_freed_heap()


def map_slices(fn, rho, npts: int):
    """Apply ``fn`` to the rho-slices ``rho`` in memory-bounded batches.

    Each batch holds whole slices and at most the chunk size in boundary
    points, or a single slice when one slice holds more.  ``fn`` maps a 1-D
    rho array to an array, or a tuple of arrays, whose leading axis runs over
    the slices or over their points (rho-major); the batches' results are
    concatenated along it.  ``npts`` is the number of boundary points per
    slice.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    calls = -(-rho.size // max(1, _CHUNK_POINTS // npts))
    parts = [fn(chunk) for chunk in np.array_split(rho, calls)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(part) for part in zip(*parts))
    return np.concatenate(parts)


def slice_integral(geom, rho, field, dvol, power: int = 0):
    """Slice integrals of ``field`` times weight * dvol * rho^-power, one per slice.

    ``field`` and ``dvol`` are pointwise on the rho-slices ``rho`` (scalar or
    1-D, rho-major as in :func:`curvature_in_frame`); ``geom.weight`` is the
    boundary quadrature weight.  A scalar rho gives a scalar.
    """
    r = np.atleast_1d(np.asarray(rho, dtype=float))
    meas = (geom.weight * dvol).reshape(r.size, -1) / r[:, None] ** power
    out = np.sum(np.reshape(field, (r.size, -1)) * meas, axis=1)
    return out if np.ndim(rho) else out[0]


def _invariant_density(geom, integrands):
    """Callable: rho array -> slice integrals of integrand(record) times the g-measure.

    Each integrand maps a :func:`curvature_in_frame` record to a pointwise
    field.  Returns one row per slice and one column per integrand.
    """

    def density(rho):
        data = curvature_in_frame(geom, rho)
        return np.stack(
            [slice_integral(geom, rho, f(data), data["dvol"], 4) for f in integrands], axis=1
        )

    return density


# -- positivity and series extraction ----------------------------------------


def require_positive(geom, rho) -> None:
    """Raise ValueError unless g_rho is positive-definite at every point of the slices rho.

    The test is that every pivot of the closed-form Cholesky factor
    (:func:`_cholesky3`) is positive; a NaN metric entry fails it.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    with np.errstate(invalid="ignore", divide="ignore"):
        l00, _, _, l11, _, l22 = _cholesky3(geom.spatial(rho, 1)[0])
    bad = np.nonzero(~((l00 > 0.0) & (l11 > 0.0) & (l22 > 0.0)))[0]
    if bad.size:
        k, p = divmod(int(bad[0]), geom.npts)
        raise ValueError(
            f"metric not positive-definite at rho={float(rho[k]):.6g}, point index {p}"
        )


@dataclass(frozen=True)
class RhoSeries:
    """Least-squares expansion P = sum_k c_k rho^k over a rho grid.

    coeffs[k] is the rho^k coefficient (scalar or field); residual is the
    max absolute fit residual; cond the scaled-Vandermonde condition number.
    """

    coeffs: np.ndarray
    residual: float
    cond: float


def rho_series_fit(rho, values, k_max: int = 4) -> RhoSeries:
    """Fit sum_k c_k rho^k, k = 0..k_max, by least squares in scaled powers (the
    tests' reference for the Chebyshev route: no code of the package calls it).

    The rho^1 column is always present: its vanishing on collar quantities
    is a statement under test, never an assumption.
    """
    rho = np.asarray(rho, dtype=float)
    values = np.asarray(values, dtype=float)
    if rho.size < k_max + 2:
        raise ValueError("need at least k_max + 2 rho samples")
    scale = float(np.max(rho))
    t = rho / scale
    vand = np.stack([t**k for k in range(k_max + 1)], axis=1)
    cond = float(np.linalg.cond(vand))
    if cond > 1e12:
        raise ValueError(
            f"ill-conditioned Vandermonde; widen rho spacing (cond={cond:.3e})"
        )
    flat = values.reshape(rho.size, -1)
    sol, _, _, _ = np.linalg.lstsq(vand, flat, rcond=None)
    resid = float(np.max(np.abs(vand @ sol - flat), initial=0.0))
    coeffs = sol.reshape((k_max + 1,) + values.shape[1:])
    powers = scale ** np.arange(k_max + 1)
    coeffs = coeffs / powers.reshape((k_max + 1,) + (1,) * (coeffs.ndim - 1))
    return RhoSeries(coeffs=coeffs, residual=resid, cond=cond)


def det_series(geom) -> dict:
    """v2, v3 of the volume-density expansion (det g_rho / det gamma)^(1/2).

    The Taylor coefficients of the determinant ratio at rho = 0 are computed
    from the geometry's analytic rho-derivatives via the Jacobi formula
    (d/d rho log det = tr g^-1 g'), then composed with the square root.
    """
    g0inv = _slice_frame(geom, 0.0)["ginv"][:, :3, :3]
    _, g1, g2d, g3d = geom.spatial(0.0)
    m0 = g0inv @ g1
    m1 = g0inv @ g2d - m0 @ m0
    m2 = g0inv @ g3d - m0 @ (g0inv @ g2d) - m1 @ m0 - m0 @ m1
    tr = lambda x: np.trace(x, axis1=-2, axis2=-1)
    e1 = tr(m0)
    e2 = 0.5 * (tr(m0) ** 2 + tr(m1))
    e3 = (tr(m0) ** 3 + 3.0 * tr(m0) * tr(m1) + tr(m2)) / 6.0
    v1 = 0.5 * e1
    v2 = 0.5 * e2 - e1**2 / 8.0
    v3 = 0.5 * e3 - e1 * e2 / 4.0 + e1**3 / 16.0
    bad = float(np.max(np.abs(v1)))
    if bad > 1e-8:
        raise ValueError(f"g^(1) != 0? collar not totally geodesic (v1={bad:.3e})")
    return {"v2": v2, "v3": v3}


@lru_cache(maxsize=None, typed=True)
def _legendre_table(n: int):
    """``leggauss(n)`` as read-only arrays, computed once per node count.

    Typed, so that a float count such as 32.0 misses the entry for 32 and
    raises in ``leggauss`` as an uncached call would.
    """
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


def gauss_nodes(segments, n_per: int):
    """Gauss-Legendre nodes and weights, ``n_per`` per segment, segment-major."""
    xs, ws = _legendre_table(n_per)
    nodes, weights = [], []
    for lo, hi in segments:
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def chebyshev_rho_nodes(rho_max: float = 0.2, nodes: int = 16) -> np.ndarray:
    """First-kind Chebyshev points on (0, rho_max), ascending."""
    return rho_max / 2.0 * (1.0 - np.cos(math.pi * (np.arange(nodes) + 0.5) / nodes))


class ChebyshevRhoBasis:
    """The cardinal polynomials of distinct rho ``nodes`` in [rho_min, rho_max].

    Each is a series in t = 1 - 2 (rho - rho_min) / (rho_max - rho_min), +1 at
    rho_min, so the interpolant of samples at the nodes is the degree n - 1
    Chebyshev series (Trefethen, Approximation Theory and Approximation
    Practice, chs. 3 and 11), and each of its derivatives at any rho is one
    weighted sum of the samples: on a torus slice 30x a fit's speed.  Build
    one per node set and read it as often as needed: ``cardinal`` (column j,
    the polynomial of nodes[j]) is one matrix inverse, and the series of each
    derivative order is formed on its first read.
    """

    def __init__(self, nodes, rho_max: float, rho_min: float = 0.0):
        self.rho_max, self.rho_min = rho_max, rho_min
        t_nodes = self._t(np.asarray(nodes, dtype=float))
        self.cardinal = np.linalg.inv(chebvander(t_nodes, t_nodes.size - 1))
        self._series = {}

    def _t(self, rho):
        return 1.0 - 2.0 * (rho - self.rho_min) / (self.rho_max - self.rho_min)

    def weights(self, rho, order: int) -> np.ndarray:
        """(rho points, n): row i takes the n samples to the ``order``-th
        rho-derivative of their interpolant at the i-th point of ``rho``."""
        if order not in self._series:
            # d/d rho = -(2 / (rho_max - rho_min)) d/dt
            scl = -2.0 / (self.rho_max - self.rho_min)
            self._series[order] = chebder(self.cardinal, order, scl=scl)
        return chebval(self._t(np.atleast_1d(np.asarray(rho, dtype=float))), self._series[order]).T

    def derivatives(self, values, rho, orders=(1,)) -> tuple:
        """The interpolant of ``values`` (samples along the leading axis)
        differentiated to each order in ``orders`` (0 for the interpolant
        itself) at ``rho``, shaped rho's shape + the field's."""
        values = np.asarray(values, dtype=float)
        shape = np.shape(rho) + values.shape[1:]
        flat = values.reshape(values.shape[0], -1)
        return tuple((self.weights(rho, k) @ flat).reshape(shape) for k in orders)


def chebyshev_rho_derivatives(values, rho, orders=(1,), rho_max: float = 0.2,
                              rho_min: float = 0.0, nodes=None) -> tuple:
    """rho-derivatives of a field sampled at ``nodes``, by default the n
    :func:`chebyshev_rho_nodes` of (0, rho_max - rho_min) shifted by rho_min.

    :meth:`ChebyshevRhoBasis.derivatives` of the nodes' basis, built for this
    one call: a caller that reads the same nodes again keeps the basis."""
    values = np.asarray(values, dtype=float)
    if nodes is None:
        nodes = rho_min + chebyshev_rho_nodes(rho_max - rho_min, values.shape[0])
    return ChebyshevRhoBasis(nodes, rho_max, rho_min).derivatives(values, rho, orders)


def jet_identity_report(geom) -> dict:
    """Boundary-jet identities from the ambient curvature Rbar, and the parity
    of the curvature invariants of g.

    Checks, with Rbar in the sign convention in which the ambient hyperbolic
    ball has ric(d rho, d rho) < 0 (the opposite overall sign from the
    convention pinned for the AH metric g):

      g3_ij  = -1/3 d/d rho Rbar_{i4j4} |_{rho=0}
      v3     = -1/6 d/d rho ricbar_44   |_{rho=0}

    and that s, |r|^2 and |R|^2 of g have no rho^1 term ('dev_invariant_parity':
    the largest slope at 0 over max(1, largest value), of the three).
    Every rho-derivative at 0 is that of the Chebyshev interpolant of the
    slice fields through the 16 :func:`chebyshev_rho_nodes`, one weight row
    for all five fields, so the two sides of each identity come from
    independent routes (jet data and analytic determinant derivatives on the
    left, the generic curvature engine on the right).  Each slice's Rbar and
    g-curvature come from one :func:`curvature_pair`.
    """
    grid = chebyshev_rho_nodes()

    def fields(rho):
        bar, cur = curvature_pair(geom, rho)
        inv = cur["invariants"]
        # flip to the ambient-identity sign convention
        return -bar["riem"][:, :3, 3, :3, 3], -bar["ric"][:, 3, 3], inv["s"], inv["r2"], inv["R2"]

    r44, ric44, *parity = map_slices(fields, grid, geom.npts)
    slope = ChebyshevRhoBasis(grid, 0.2).weights(0.0, 1)
    d_r = (slope @ r44.reshape(grid.size, -1)).reshape(-1, 3, 3)
    d_ric = (slope @ ric44.reshape(grid.size, -1)).reshape(-1)
    parity_dev = 0.0
    for values in parity:
        arr = values.reshape(grid.size, -1)
        scale = max(1.0, float(np.max(np.abs(arr))))
        parity_dev = max(parity_dev, float(np.max(np.abs(slope @ arr))) / scale)

    g3 = geom.spatial(0.0)[3] / 6.0
    v3 = det_series(geom)["v3"]
    tr_g3 = np.einsum("nab,nab->n", _slice_frame(geom, 0.0)["ginv"][:, :3, :3], g3)

    def rel_dev(lhs, rhs):
        return float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs))))

    return {
        "g3": g3,
        "v3": v3,
        "dev_g3_identity": rel_dev(g3, -d_r / 3.0),
        "dev_v3_identity": rel_dev(v3, -d_ric / 6.0),
        "dev_trace_identity": rel_dev(tr_g3, 2.0 * v3),
        "dev_invariant_parity": parity_dev,
    }
