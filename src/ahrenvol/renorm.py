"""Hadamard finite parts of collar integrals.

Every divergent quantity here is an epsilon-family: an integral over the
truncated collar {rho > eps} or over the slice {rho = eps}.  The family is
regularized by fitting the asymptotic model

    C0 eps^-3 + C2 eps^-1 + L log(1/eps) + V + (decaying terms)

and reading off the finite part V.  The log coefficient L is always fitted
and reported, never silently assumed zero: for a collar whose volume density
has a nonvanishing rho^3 term on average, the family genuinely carries a log
and V alone is ambiguous.

The module provides

* ``finite_part``          -- least-squares extraction of (C0, C2, L, V),
* ``volume_family``        -- Vol_g({rho > eps}) by Gauss-Kronrod panels,
* ``boundary_II``          -- the Chern boundary transgression on {rho = eps},
* ``gauss_bonnet_audit``   -- the interior Pfaffian and boundary families,
* ``renormalized_action``  -- finite parts of the curvature actions.

The family entry points take a geometry of :mod:`ahrenvol.collar` and integrate
out to its ``rho_max``; every eps of their grid (:func:`default_eps_grid`
unless one is given) must lie in (0, rho_max) and ascend strictly, else ValueError.  A family is an array in ``eps_grid`` order, and
``finite_part`` reads the pair (eps grid, values).  The module measures and does not judge: the check rows built on
these numbers, with their pass rules, live in :mod:`ahrenvol.cli`.

The collar families are integrated on fixed geometric panels, each with the
nested Gauss-Kronrod 7/15 pair: 15 density values per panel, the K15 value
kept and |K15 - G7| its error estimate, which must stay under
1e-9 max(1, |panel value|) (at most 3.4e-13 on the ball and
theta = (0.05)^3 volume, action and Pfaffian families).  The volume density
is evaluated at every panel node.  The curvature densities are not: rho^4
times the density is analytic in rho, so the engine samples it on each of
(0, eps_max] and [eps_max, rho_max] at nested Chebyshev points, 9, 19, 39
or 79, until the interpolant's coefficient tail is under 1e-12, and the
panels read it from the two interpolants (38 engine slices per family on
torus jet 3, where the panels have 240 nodes).  The tails join the panels'
estimates in the reported quadrature error.

Their independent oracles (adaptive quadrature, Taylor subtraction) live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import collar as _collar
from . import dfalg

__all__ = [
    "FitRejected",
    "RegularizedIntegral",
    "default_eps_grid",
    "finite_part",
    "MIN_EPS_SAMPLES",
    "MIN_EPS_SPAN",
    "volume_family",
    "boundary_II",
    "gauss_bonnet_audit",
    "renormalized_action",
]


class FitRejected(_collar.NonConvergence, ValueError):
    """An eps-family the asymptotic model does not fit, or fits only through an
    ill-conditioned design (CLI exit code 3).

    Also a ValueError, which ``finite_part`` raised for both before.
    """


def default_eps_grid(n: int = 12, lo: float = 0.02, hi: float = 0.3) -> np.ndarray:
    """Geometric eps grid, ascending; the default is :data:`MIN_EPS_SAMPLES` over a factor 15."""
    return np.geomspace(lo, hi, n)


def _family_eps_grid(geom, eps_grid) -> np.ndarray:
    """``eps_grid`` (:func:`default_eps_grid` if None) as floats, each in
    (0, geom.rho_max), else ValueError naming the first outside, NaN too, and
    strictly ascending, else ValueError naming the first sample out of order."""
    eps = default_eps_grid() if eps_grid is None else np.asarray(eps_grid, dtype=float)
    outside = ~((eps > 0.0) & (eps < geom.rho_max))
    if outside.any():
        raise ValueError(f"eps={eps[outside][0]:.6g} outside the collar (0, {geom.rho_max:g})")
    # the panels of _cumulative_family run from each eps to the next
    unordered = np.flatnonzero(np.diff(eps) <= 0.0)
    if unordered.size:
        k = unordered[0] + 1
        raise ValueError(f"eps sample {k} ({eps[k]:.6g}) is not above sample {k - 1} "
                         f"({eps[k - 1]:.6g}): the eps grid must be strictly ascending")
    return eps


@dataclass(frozen=True)
class RegularizedIntegral:
    """Fitted C0 eps^-3 + C2 eps^-1 + L log(1/eps) + V + decaying, and the fit's diagnostics."""

    c0: float
    c2: float
    log_coeff: float
    finite: float
    fit_residual: float
    extras: dict = field(default_factory=dict)
    cond: float = 0.0  # of the kept basis, column-scaled; at most 1e9
    # nuisance powers kept by forward selection, in selection order
    kept_powers: tuple = ()
    # per selection step with two or more candidates, the runner-up's residual
    # over the best one's, minus 1; the final residual over the stopping floor;
    # the number of bases solved
    selection_gaps: tuple = ()
    floor_ratio: float = 0.0
    fits: int = 0

    @property
    def log_ambiguous(self) -> bool:
        """True when |L| is large enough to make V depend on the log scale."""
        return abs(self.log_coeff) > 1e-6

    def as_tuple(self):
        return (self.c0, self.c2, self.log_coeff, self.finite)


# reported model terms, decaying nuisance terms, the accepted relative fit
# residual and the largest accepted condition number of the scaled design
_MODEL_POWERS = (-3, -1, "log", 0)
_NUISANCE_POWERS = (1, 2, 3, 4, 5, 6)
_FIT_TOL = 1e-6
_FIT_COND_LIMIT = 1e9
# the least eps grid finite_part accepts: two samples more than the full basis, whose
# fit sets the selection floor; with fewer it interpolates, and selection with it
# (on 8 samples theta = (-0.08, 0.05, 0.02) read V = 387.78, closed form 15.8559)
MIN_EPS_SAMPLES = len(_MODEL_POWERS) + len(_NUISANCE_POWERS) + 2
MIN_EPS_SPAN = 8.0
# the design's columns: the model powers, then the nuisance powers
_POWERS = _MODEL_POWERS + _NUISANCE_POWERS


def _design(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of every power in ``_POWERS`` on ``eps``, and their norms."""
    design = np.stack([np.log(1.0 / eps) if p == "log" else eps ** float(p) for p in _POWERS],
                      axis=1)
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    return design, norms


def _solve_stack(design, norms, vals, bases):
    """Column-scaled least squares of ``vals`` on a stack of bases, from one SVD each.

    ``bases`` is a (k, n) array of column indices into ``design``: each row
    is one basis, and every basis of a stack has n columns.  The columns
    span several orders of magnitude, so a single float64 solve loses ~cond
    digits on exactly-representable models; three refinement steps against
    long-double residuals recover them (Bjorck, Numerical Methods for Least
    Squares Problems, 1996, sec. 2.9), each applying the same factors.  A
    basis whose condition number exceeds ``_FIT_COND_LIMIT`` raises
    FitRejected, so every basis solved has full rank.  Returns the
    coefficients (k, n), the largest absolute residual of each basis and
    its condition number.
    """
    bases = np.asarray(bases)
    # each basis is a Fortran-ordered (m, n) matrix, laid out alike in any stack
    cols = design.T[bases].swapaxes(1, 2)
    scaled = cols / norms[bases][:, None, :]
    u, sv, vt = np.linalg.svd(scaled, full_matrices=False)
    with np.errstate(divide="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    over = np.flatnonzero(cond > _FIT_COND_LIMIT)
    if over.size:
        raise FitRejected(f"ill-conditioned asymptotic fit (cond={cond[over[0]]:.3e})")
    # vt times 1 / sv, not vt / sv: the two round apart and move the fits' last bits
    pinv = (vt.swapaxes(1, 2) * (1.0 / sv)[:, None, :]) @ u.swapaxes(1, 2)
    sol = pinv @ vals
    scaled_ld = scaled.astype(np.longdouble)
    vals_ld = vals.astype(np.longdouble)
    for _ in range(3):
        r = np.asarray(vals_ld - (scaled_ld @ sol.astype(np.longdouble)[..., None])[..., 0],
                       dtype=float)
        sol = sol + (pinv @ r[..., None])[..., 0]
    coeffs = sol / norms[bases]
    resid = np.max(np.abs((cols @ coeffs[..., None])[..., 0] - vals), axis=1)
    return coeffs, resid, cond


def finite_part(values) -> RegularizedIntegral:
    """Fit the asymptotic model to an eps-family and return its coefficients.

    ``values`` is the pair (eps array, value array), at least
    :data:`MIN_EPS_SAMPLES` samples over a factor of :data:`MIN_EPS_SPAN` in eps.
    The model terms eps^-3, eps^-1, log(1/eps) and 1 are always fitted; the
    decaying nuisance powers eps^1..eps^6 are added by forward selection
    (their coefficients in ``extras``, 0.0 for a power left out; the kept
    ones in ``kept_powers``) so that smooth o(1) tails do not contaminate
    the finite part.  A non-finite eps raises ValueError, and a non-finite
    value FitRejected, each naming the first such sample, before any fit.

    The design of all ten powers is built and column-scaled once; every
    basis is a subset of its columns.  Each selection step solves its
    candidates, which all have the same column count, as one stack of SVDs
    (:func:`_solve_stack`); the full-basis and bare-model fits are stacks of
    one.  A basis above condition number 1e9 raises FitRejected.  The
    result also reports how close the selection came to going another way:
    ``selection_gaps`` (per step with two or more candidates, the runner-up's
    residual over the best one's, minus 1), ``floor_ratio`` (the final
    residual over the stopping floor) and ``fits`` (the number of bases
    solved).
    """
    eps, vals = (np.asarray(a, dtype=float) for a in values)
    bad = np.flatnonzero(~np.isfinite(eps))
    if bad.size:
        raise ValueError(f"eps sample {bad[0]} is {eps[bad[0]]}, not finite")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise FitRejected(f"family value {k} (eps = {eps[k]:.6g}) is {vals[k]}, not finite")
    order = np.argsort(eps)
    eps, vals = eps[order], vals[order]
    if eps.size < MIN_EPS_SAMPLES:
        raise ValueError(f"need at least {MIN_EPS_SAMPLES} eps samples")
    if eps.max() / eps.min() < MIN_EPS_SPAN:
        raise ValueError(f"eps grid must span at least a factor of {MIN_EPS_SPAN:g}")

    design, norms = _design(eps)
    n_model = len(_MODEL_POWERS)
    _, (resid_full,), _ = _solve_stack(design, norms, vals, [range(len(_POWERS))])
    # forward selection of nuisance powers: start from the bare model and
    # greedily add the extra power that most reduces the residual, stopping
    # at the full-basis residual floor.  Exactly-representable families then
    # keep none of the nuisance terms, which would otherwise degrade the
    # conditioning of the finite part by orders of magnitude.  kept and
    # remaining hold design columns
    floor = 10.0 * float(resid_full) + 1e-13
    kept = list(range(n_model))
    remaining = list(range(n_model, len(_POWERS)))
    (coeffs,), (resid,), (cond_kept,) = _solve_stack(design, norms, vals, [kept])
    gaps, fits = [], 2
    while resid > floor and remaining:
        trials = _solve_stack(design, norms, vals, [kept + [c] for c in remaining])
        fits += len(remaining)
        # a stable sort ranks equal residuals in candidate order, as min() did
        ranked = np.argsort(trials[1], kind="stable")
        best = ranked[0]
        coeffs, resid, cond_kept = (t[best] for t in trials)
        if ranked.size > 1:
            runner_up = trials[1][ranked[1]]
            gaps.append(float(runner_up / resid - 1.0) if resid
                        else (math.inf if runner_up else 0.0))
        kept.append(remaining.pop(best))
    resid, cond_kept = float(resid), float(cond_kept)

    scale = max(1.0, float(np.max(np.abs(vals))))
    if resid > _FIT_TOL * scale:
        raise FitRejected(
            f"asymptotic model rejected (residual {resid:.3e} > {_FIT_TOL:.1e} * scale)"
        )

    by_key = dict.fromkeys(_POWERS, 0.0)
    by_key.update((_POWERS[c], float(v)) for c, v in zip(kept, coeffs))
    return RegularizedIntegral(
        c0=by_key[-3],
        c2=by_key[-1],
        log_coeff=by_key["log"],
        finite=by_key[0],
        fit_residual=resid,
        extras={p: by_key[p] for p in _NUISANCE_POWERS},
        cond=cond_kept,
        kept_powers=tuple(_POWERS[c] for c in kept[n_model:]),
        selection_gaps=tuple(gaps),
        floor_ratio=resid / floor,
        fits=fits,
    )


# -- collar integral families -------------------------------------------------


# Gauss-Kronrod 7/15 pair on [-1, 1] (Piessens et al., QUADPACK, 1983, dqk15):
# the nodes from 1 down to 0 with their K15 and G7 weights, G7 using every
# other node.  K15 (exact through degree 22) is the kept value; G7 (exact
# through degree 13) costs no extra evaluation, and |K15 - G7| is the panel's
# error estimate
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
# the 15 nodes ascending, and the two rules as rows of weights on them
_GK15_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_K15_WEIGHTS, _G7_WEIGHTS = (np.concatenate([w, w[-2::-1]]) for w in (_WGK, _WG))
_GK15_WEIGHTS = np.stack([_K15_WEIGHTS, _G7_WEIGHTS])
# widest panel, as the ratio of its ends: the rho^-4 growth of the densities
# makes the rule's error a function of that ratio.  At 1.3 the largest
# |K15 - G7| on the ball and theta = (0.05)^3 volume, action and Pfaffian
# families is 3.4e-13 of max(1, |panel value|), under the 1e-9 bound; at
# 1.72 (6 eps over 0.02..0.3, unsplit) it is 8.9e-10.  The default eps grid
# (ratio 1.279) needs no split.
_PANEL_RATIO = 1.3


def _cumulative_family(density, eps_grid: np.ndarray, rho_max: float, npts: int):
    """Integrals of a density over [eps_i, rho_max] by fixed Gauss-Kronrod panels.

    ``density`` maps a 1-D rho array to one row (or value) per slice; ``npts``
    is the number of boundary points per slice, which sizes the
    :func:`~ahrenvol.collar.map_slices` batches it is called with.  The
    panels are the eps intervals and [eps_max, rho_max], each split
    geometrically into panels no wider in ratio than ``_PANEL_RATIO``.  The
    density is evaluated once at each panel's 15 Kronrod nodes: the K15 value
    is kept and |K15 - G7|, with G7 read from 7 of those values, is its error
    estimate.  Returns the family, shape (eps, components), and the summed
    error estimates of its panels.
    """
    bounds = np.append(eps_grid, rho_max)
    # the left panel edges of each interval; eps_i is the first of its own
    lefts = [
        np.geomspace(lo, hi, max(1, math.ceil(math.log(hi / lo) / math.log(_PANEL_RATIO))) + 1)[:-1]
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    starts = np.cumsum([0] + [left.size for left in lefts[:-1]])
    edges = np.append(np.concatenate(lefts), rho_max)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])

    nodes = (mid[:, None] + half[:, None] * _GK15_NODES).ravel()
    vals = _collar.map_slices(density, nodes, npts)
    vals = vals.reshape(mid.size, _GK15_NODES.size, -1)
    kronrod, gauss = np.moveaxis(_GK15_WEIGHTS @ vals, 1, 0) * half[:, None]
    err = np.abs(kronrod - gauss)
    # written so that a NaN estimate counts as a miss
    bad = ~(np.max(err, axis=1) <= 1e-9 * np.maximum(1.0, np.max(np.abs(kronrod), axis=1)))
    if bad.any():
        k = int(np.argmax(bad))
        raise _collar.NonConvergence(
            f"quadrature non-convergence on [{edges[k]:.3g},{edges[k + 1]:.3g}] "
            f"(estimate {np.max(err[k]):.3e})"
        )
    tails = np.cumsum(kronrod[::-1], axis=0)[::-1][starts]
    errors = np.cumsum(err[::-1], axis=0)[::-1][starts]
    return tails, errors


# the doubling ladder of the interpolated families, and the largest accepted
# tail (below).  Level N samples the N - 1 interior Chebyshev extreme points
# t_j = cos(j pi / N), the zeros of U_{N-1}: the ends, rho = 0 and the radial
# cap, cannot be evaluated, and level 2N reuses every sample of level N.  On
# torus jet 3 both pieces stop at 19 nodes; on theta = (0.05)^3 the upper
# piece takes 39.  At the top level a kink in F at 0.1 reads 3.6e-5 and a
# near-pole 0.62; a NaN sample reads NaN at its own level
_CHEB_LEVELS = (10, 20, 40, 80)
_CHEB_TAIL_TOL = 1e-12


def _interpolated_family(density, eps_grid: np.ndarray, rho_max: float, npts: int):
    """:func:`_cumulative_family` of ``density`` read from Chebyshev interpolants.

    F = rho^4 density is analytic in rho, so it is sampled on each of the
    pieces (0, eps_max] and [eps_max, rho_max] at the nodes of the first level
    of ``_CHEB_LEVELS`` whose tail passes, and the panels integrate F / rho^4
    read from the two interpolants.  A piece's tail, the largest of its last
    two series coefficients over max(1, largest coefficient), estimates its
    interpolation error per column (Aurentz and Trefethen, Chopping a
    Chebyshev series, ACM TOMS 43 (2017) 33); one over 1e-12 moves the piece
    to the next level, and at the top level raises NonConvergence, as a NaN
    does at once.  Each level's new nodes, over the pieces still open, go to
    the engine together.  The split keeps the size of F near the cap out of
    the absolute error that rho^-4 amplifies at eps_min: with one interpolant
    on (0, rho_max] the |z|^2 family of theta = (0.05)^3 was 9.8e-11 off the
    engine's panels, split it is 2.1e-14 off.  The error estimates returned
    add to the panels' the size of the last two coefficients, carried through
    the integral of rho^-4.  Returns the family, the error estimates and the
    node count each piece settled on.
    """
    eps_max = float(eps_grid.max())
    pieces = ((0.0, eps_max), (eps_max, rho_max))
    top = _CHEB_LEVELS[-1]
    # every level's nodes are top-level nodes, ascending in rho along each row
    extremes = 0.5 * (1.0 - np.cos(math.pi * np.arange(1, top) / top))
    grid = np.array([lo + (hi - lo) * extremes for lo, hi in pieces])
    values = None
    sampled = np.zeros(grid.shape, dtype=bool)
    settled = [None] * len(pieces)
    for level in _CHEB_LEVELS:
        rung = np.zeros(top - 1, dtype=bool)
        rung[top // level - 1 :: top // level] = True
        open_ = np.array([s is None for s in settled])
        new = open_[:, None] & rung & ~sampled
        rho = grid[new]
        samples = _collar.map_slices(density, rho, npts).reshape(rho.size, -1)
        if values is None:
            values = np.empty(grid.shape + samples.shape[1:])
        values[new] = rho[:, None] ** 4 * samples
        sampled |= new
        for k in np.flatnonzero(open_):
            (lo, hi), f = pieces[k], values[k, rung]
            basis = _collar.ChebyshevRhoBasis(grid[k, rung], hi, lo)
            series = np.abs(basis.cardinal @ f)
            last = np.max(series[-2:], axis=0)
            tail = last / np.maximum(1.0, np.max(series, axis=0))
            # written so that a NaN tail fails the gate; every later level
            # keeps the NaN sample, so it raises at once
            if np.all(tail <= _CHEB_TAIL_TOL):
                settled[k] = (rung, last, basis)
            elif level == top or np.isnan(tail).any():
                raise _collar.NonConvergence(
                    f"Chebyshev interpolant non-convergence on ({lo:.3g},{hi:.3g}] "
                    f"(tail {np.max(tail):.3e})"
                )
        if all(s is not None for s in settled):
            break

    tail_errors = 0.0
    for (lo, hi), (rung, last, _) in zip(pieces, settled):
        # F's error on the piece, times int rho^-4 over its part of [eps_i, rho_max]
        reach = (np.maximum(eps_grid, lo) ** -3 - hi**-3) / 3.0
        tail_errors = tail_errors + reach[:, None] * last

    def interpolated(rho):
        # every panel node lies inside one piece: eps_max is a panel edge
        out = np.empty((rho.size, values.shape[-1]))
        upper = rho > eps_max
        for k, sel in enumerate((~upper, upper)):
            rung, _, basis = settled[k]
            (out[sel],) = basis.derivatives(values[k, rung], rho[sel], (0,))
        return out / rho[:, None] ** 4

    fams, errors = _cumulative_family(interpolated, eps_grid, rho_max, 1)
    nodes = tuple(int(rung.sum()) for rung, _, _ in settled)
    return fams, errors + tail_errors, nodes


def volume_family(geom, eps_grid=None):
    """Vol_g({eps < rho < geom.rho_max}) for each eps: quadrature of rho^-4 (det g_rho)^1/2.

    Returns the volumes, in ``eps_grid`` order, and the largest quadrature
    error estimate of the family.
    """
    eps_grid = _family_eps_grid(geom, eps_grid)

    def density(rho):
        # sqrt det g_rho through LAPACK rather than the engine's Cholesky dvol:
        # the eps-fit amplifies last-bit changes in the family about 1e7-fold,
        # and the Cholesky product moves the ball's hyperbolic_V and
        # hyperbolic_L deviations from 5.2e-12 and 8.0e-12 to 1.4e-10 and 7.3e-10
        vol = np.sqrt(np.linalg.det(geom.spatial(rho, 1)[0]))
        return _collar.slice_integral(geom, rho, np.ones_like(vol), vol, 4)

    vols, errors = _cumulative_family(density, eps_grid, geom.rho_max, geom.npts)
    return vols[:, 0], float(errors.max())


def boundary_II(geom, eps) -> dict:
    """Chern boundary transgression integrals over the slices {rho = eps}.

    In the slice-adapted orthonormal frame the second fundamental form of
    {rho = eps} in (M, g) is h = q^T G4 q with G4_ij = gbar_ij - (rho/2)
    d/d rho gbar_ij and q the engine's frame, q^T g_rho q = I.  Then

        Phi0 = int 6 det(h) dvol_slice,
        Phi1 = int (1/2) sum_{sig,eta} eps(sig) eps(eta)
                   R_{sig1 sig2 eta1 eta2} h_{sig3 eta3} dvol_slice,

    with R the orthonormal-frame curvature of g, and the boundary term in the
    Gauss-Bonnet identity is II = (Phi0/12 - Phi1/8) / pi^2.  ``eps`` is a
    scalar or a 1-D array in (0, geom.rho_max]; returns {'phi0', 'phi1',
    'ii'}, arrays in ``eps`` order, the slices going to the engine in
    :func:`~ahrenvol.collar.map_slices` batches (which refuse an empty one).
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    # written so that a NaN eps is outside too
    outside = ~((eps > 0.0) & (eps <= geom.rho_max))
    if outside.any():
        raise ValueError(f"eps={eps[outside][0]:.6g} outside the collar (0, {geom.rho_max:g}]")

    def phi_integrals(rho):
        data = _collar.curvature_in_frame(geom, rho)
        q = data["q"][:, :3, :3]
        h_on = _collar.to_on2(data["gamma"][:, 3, :3, :3], q)
        riem3 = data["riem_on"][:, :3, :3, :3, :3]
        phi1_pt = np.einsum("abc,def,nabde,ncf->n", _collar._EPS3, _collar._EPS3, riem3, h_on)
        # the slice measure of g is eps^-3 sqrt(det g_rho)
        integral = lambda f: _collar.slice_integral(geom, rho, f, data["dvol"], 3)
        return 6.0 * integral(np.linalg.det(h_on)), 0.5 * integral(phi1_pt)

    phi0, phi1 = _collar.map_slices(phi_integrals, eps, geom.npts)
    return {"phi0": phi0, "phi1": phi1, "ii": (phi0 / 12.0 - phi1 / 8.0) / math.pi**2}


def gauss_bonnet_audit(geom, eps_grid=None) -> dict:
    """Interior Pfaffian and boundary II families of a capped collar, with finite parts.

    Gauss-Bonnet says interior(eps) + boundary(eps) = chi for every eps, the
    interior integrated over {eps < rho < geom.rho_max}.  chi is ``geom.chi``
    (never computed topologically); a geometry whose chi is None raises
    ValueError.  Measurements only: the CLI judges them.  ``interpolant_nodes``
    is the node count each piece of the interior's interpolant settled on.
    """
    if geom.chi is None:
        raise ValueError("gauss_bonnet_audit needs a geometry that declares chi")
    eps_grid = _family_eps_grid(geom, eps_grid)

    pff = _collar._invariant_density(geom, [lambda cur: dfalg.batch_pfaffian(cur["riem_on"])])
    interior, quad_errors, nodes = _interpolated_family(pff, eps_grid, geom.rho_max, geom.npts)
    interior = interior[:, 0]
    boundary = boundary_II(geom, eps_grid)["ii"]
    return {
        "chi": geom.chi,
        "eps_grid": eps_grid,
        "interior": interior,
        "boundary": boundary,
        "total": interior + boundary,
        "fp_interior": finite_part((eps_grid, interior)),
        "fp_boundary": finite_part((eps_grid, boundary)),
        "quadrature_error": float(quad_errors.max()),
        "interpolant_nodes": nodes,
    }


def renormalized_action(geom, eps_grid=None) -> dict:
    """Finite parts of the curvature action families on {eps < rho < geom.rho_max}.

    Returns RegularizedIntegral values for int s^2, int |z|^2, int (s^2 - 3|r|^2)
    and int |W|^2.  The pointwise rewrite s^2 - 3|r|^2 = s^2/4 - 3|z|^2 must hold
    for the families (else NonConvergence) and their finite parts (else FitRejected);
    their relative deviations are returned as ``rewrite_deviation`` and
    ``rewrite_fp_deviation``, the families' largest error estimate as
    ``quadrature_error``, and the node count each piece of their interpolant
    settled on as ``interpolant_nodes``.
    """
    eps_grid = _family_eps_grid(geom, eps_grid)

    density = _collar._invariant_density(
        geom,
        [
            lambda cur: cur["invariants"]["s"] ** 2,
            lambda cur: cur["invariants"]["z2"],
            lambda cur: cur["invariants"]["w2"],
            lambda cur: cur["invariants"]["s"] ** 2 - 3.0 * cur["invariants"]["r2"],
        ],
    )
    fams, quad_errors, nodes = _interpolated_family(density, eps_grid, geom.rho_max, geom.npts)
    fits = {
        "s2": finite_part((eps_grid, fams[:, 0])),
        "z2": finite_part((eps_grid, fams[:, 1])),
        "w2": finite_part((eps_grid, fams[:, 2])),
        "action": finite_part((eps_grid, fams[:, 3])),
    }
    # rewrite identity s^2 - 3|r|^2 = s^2/4 - 3|z|^2: sharp at family level
    # (the families are pointwise-identical combinations); at finite-part
    # level the comparison additionally carries fit-conditioning noise from
    # the ~1e8 dynamic range, so it gets a looser floor.
    combo = fams[:, 3] - (0.25 * fams[:, 0] - 3.0 * fams[:, 1])
    dev = float(np.max(np.abs(combo))) / max(1.0, float(np.max(np.abs(fams[:, 3]))))
    if dev > 1e-8:
        raise _collar.NonConvergence(
            f"rewrite identity s^2-3|r|^2 == s^2/4 - 3|z|^2 violated at "
            f"family level (relative deviation {dev:.3e})"
        )
    fp_dev = abs(
        fits["action"].finite - (0.25 * fits["s2"].finite - 3.0 * fits["z2"].finite)
    ) / max(1.0, abs(fits["action"].finite))
    if fp_dev > 1e-5:
        raise FitRejected(
            f"rewrite identity FP(s^2-3|r|^2) == FP(s^2)/4 - 3 FP(|z|^2) "
            f"violated (relative deviation {fp_dev:.3e})"
        )
    fits["rewrite_deviation"] = dev
    fits["rewrite_fp_deviation"] = fp_dev
    fits["quadrature_error"] = float(quad_errors.max())
    fits["interpolant_nodes"] = nodes
    return fits
