"""Variational calculus for the renormalized |z|^2 functional.

The generalized Hessian ``DDt + DtD`` on double forms is computed on the
collar geometries of :mod:`ahrenvol.collar`, from covariant derivatives in
the scaled frame X_s = rho Xbar_s, assembled either from analytic rho-jets
of the field (exact, preferred) or, for a field the curvature engine only
samples (the trace-free Ricci z), from the rho-derivatives of its Chebyshev
interpolant (:class:`ahrenvol.collar.ChebyshevRhoBasis`).
It shares its conventions with the flat 4-torus calculus of the test
oracles (``FlatTorus4`` in ``tests/oracles.py``), which pins the D / Dt
normalization and exercises the adjoint identity
``deltat delta + delta deltat = *(DDt + DtD)*`` exactly (integration by
parts has no boundary terms on a torus).

The normalization of D and Dt is pinned operationally: on a flat background
the linearized curvature ``R'h = -1/4 (DDt + DtD) h`` must reproduce the
standard second-derivative display ``1/2 (dd_ik h_jl + dd_jl h_ik -
dd_il h_jk - dd_jk h_il)``.  With the conventions below this holds exactly,
and the curved-background formulas

    R'h = -1/4 (DDt+DtD) h + 1/4 F_h R
    r'h = -1/4 c (DDt+DtD) h - 1/4 c F_h R + 1/2 (r o h + h o r)
    s'h = -1/4 c^2 (DDt+DtD) h - <r, h>

validate against central finite differences of the collar curvature engine
with observed order 2 in the step.

The first variation of int |z|^2 dvol along a supported perturbation,
:func:`zprime_display`, integrates the paper's display, which
:func:`_display_density` assembles from the perturbation's second covariant
derivative; its oracles, ``fd_zprime`` and ``zprime_display_on``, are in
``tests/oracles.py``.  The gradient flow on the radial profile family runs
no curvature engine: its Z (:func:`z2_functional`) and dZ/dtheta
(:func:`z2_value_and_gradient`) come from the warped-product closed form of
the radial curvature and its forward derivative.  The engine's Gauss sum of
|z|^2 (``_z2_quadrature``) and the display along each parameter
(``display_flow_gradient``), both in ``tests/oracles.py``, are their
independent routes.

Dense double-form layout: trailing axes are p first-group indices followed
by q second-group indices; leading axes are grid axes.  A derivative axis is
always inserted immediately before the index block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.polynomial import polyder, polymul, polypow, polyval

from .collar import (
    ChebyshevRhoBasis,
    InvalidProfile,
    NonConvergence,
    PerturbedGeometry,
    _permute_slots,
    _slice_frame,
    chebyshev_rho_nodes,
    curvature_in_frame,
    frame_curvature,
    frame_ricci,
    gauss_nodes,
    map_slices,
    perturbed_profile,
    profile_basis_jet,
    slice_integral,
    to_on2,
    to_on4,
)
from .dfalg import kn_metric

__all__ = [
    "CutoffPerturbation",
    "frame_covariant_derivative",
    "hessian11",
    "fh_dense",
    "linearized_curvature",
    "fd_curvature_derivative",
    "convergence_order",
    "functional_gradient",
    "gradient_field",
    "el_slice_analysis",
    "zprime_display",
    "z2_functional",
    "z2_value_and_gradient",
    "FlowStep",
    "gradient_flow_step",
    "run_flow",
    "DEFAULT_SUPPORT",
]

# -- perturbations ------------------------------------------------------------

DEFAULT_SUPPORT = (0.1, 0.3)


class CutoffPerturbation:
    """Tangential perturbation m(x) times a C^3 window supported in [a, b].

    The window is ((rho-a)(b-rho))^4 normalized to 1 at the midpoint; it and
    its first three derivatives vanish at both endpoints, so perturbed
    metrics agree with the background near the boundary and integration by
    parts over the support has no boundary terms.  ``support`` is (a, b).
    """

    def __init__(self, fld: np.ndarray, a: float = DEFAULT_SUPPORT[0], b: float = DEFAULT_SUPPORT[1]):
        fld = np.asarray(fld, dtype=float)
        if fld.ndim != 3 or fld.shape[1:] != (3, 3):
            raise ValueError("expected (npts, 3, 3) field")
        bad = np.argwhere(~np.isfinite(fld))
        if bad.size:
            entry = tuple(int(i) for i in bad[0])
            raise ValueError(f"non-finite field: entry {entry} is {fld[entry]}")
        if np.max(np.abs(fld - fld.transpose(0, 2, 1))) > 1e-12:
            raise ValueError("asymmetric field")
        if not 0.0 < a < b:
            raise ValueError("support must satisfy 0 < a < b")
        self.field = fld
        self.support = (float(a), float(b))
        base = polypow(polymul([-a, 1.0], [b, -1.0]), 4)
        base = base / polyval((a + b) / 2.0, base)
        self._derivs = [polyder(base, k) for k in range(4)]

    def window(self, rho, order: int = 0):
        """Window derivative at a scalar rho (a float) or a 1-D rho array."""
        r = np.asarray(rho, dtype=float)
        a, b = self.support
        out = np.where((r > a) & (r < b), polyval(r, self._derivs[order]), 0.0)
        return float(out) if out.ndim == 0 else out

    def value(self, rho, order: int = 0) -> np.ndarray:
        """m(x) times the window; a 1-D rho stacks the slices rho-major."""
        w = np.reshape(self.window(rho, order), (-1, 1, 1, 1))
        return (w * self.field).reshape(-1, 3, 3)


def _require_boundary_fixing(pert) -> None:
    """Refuse a perturbation whose h = pert.value(rho, order), (npts, 3, 3) frame
    components, is not symmetric at 9 samples of rho in [0, 2], the widest
    collar, or is not boundary-fixing: h or dh/drho at rho = 0 does not vanish."""
    # one batched call: the values are 9 floats per point, not engine records
    samples = np.asarray(pert.value(np.linspace(0.0, 2.0, 9), 0), float)
    scale = max(1.0, float(np.max(np.abs(samples))))
    if np.max(np.abs(samples - np.swapaxes(samples, -1, -2))) > 1e-12 * scale:
        raise ValueError("asymmetric perturbation")
    low = max(float(np.max(np.abs(pert.value(0.0, k)))) for k in (0, 1))
    if low > 1e-12 * scale:
        raise ValueError("perturbation is not boundary-fixing: h or dh/drho at rho=0 "
                         f"reaches {low:.3e}")


def _require_rhos_in_collar(geom, rhos, caller: str) -> None:
    """Refuse a rho outside (0, geom.rho_max], a NaN rho too."""
    rhos = np.atleast_1d(np.asarray(rhos, float))
    bad = ~((rhos > 0.0) & (rhos <= geom.rho_max))  # written so that a NaN rho is bad too
    if bad.any():
        raise ValueError(f"{caller} needs rho > 0 and rho <= geom.rho_max = "
                         f"{geom.rho_max} (got {rhos[bad][0]})")


# -- collar covariant derivatives ---------------------------------------------


def frame_covariant_derivative(geom, cur, jet):
    """Covariant derivative of a (0, k) frame-component field on rho-slices.

    ``cur`` is the slices' :func:`frame_curvature` record, whose connection
    'gamma', 'dgamma' and per-point 'rho' are read, and ``jet`` is (T,
    dT/drho) or (T, dT/drho, d2T/drho2) on its points; the result is the jet
    one order shorter, (nabla T,) or (nabla T, d/drho nabla T), with the
    derivative axis prepended:
    (nabla T)_{a s...} = X_a(T_{s...}) - sum_slots Gamma^u_{a s_k} T_{..u..},
    with X_i = rho Xbar_i and X_4 = rho d/drho.
    """
    gamma, dgamma, rho = cur["gamma"], cur["dgamma"], cur["rho"]
    val, d1 = (np.asarray(j, float) for j in jet[:2])
    k = val.ndim - 1
    r = rho.reshape((-1,) + (1,) * k)

    def slot_first(fld, slot):
        # [n, u, (other slots)]: a view for the first and the last slot, one
        # gather for a slot between them
        if 0 < slot < k - 1:
            fld = _permute_slots(fld, (slot,) + tuple(s for s in range(k) if s != slot))
            return fld.reshape(fld.shape[0], 4, -1)
        return np.moveaxis(fld, 1 + slot, 1).reshape(fld.shape[0], 4, -1)

    def subtract_connection(out, terms):
        # per slot, Gamma as the matrix [n, (a s), u] times the field with that
        # slot moved first: one batched matmul per term, summed in place
        n = out.shape[0]

        def term(g, fld, slot):
            return g.reshape(n, 4, 16).swapaxes(1, 2) @ slot_first(fld, slot)

        for slot in range(k):
            corr = term(*terms[0], slot)
            # the sum starts at 0, as 0 + t1 + t2 did: a -0.0 of t1 becomes +0.0
            corr += 0.0
            for g, fld in terms[1:]:
                corr += term(g, fld, slot)
            out -= np.moveaxis(corr.reshape(out.shape), 2, 2 + slot)
            del corr  # before the next slot's term is formed

    xval = geom.xderiv(val)
    nabla = np.empty((val.shape[0], 4) + val.shape[1:])
    np.multiply(r[:, None], xval, out=nabla[:, :3])
    np.multiply(r, d1, out=nabla[:, 3])
    if len(jet) > 2:
        d2 = np.asarray(jet[2], float)
        dnabla = np.empty_like(nabla)
        np.multiply(r[:, None], geom.xderiv(d1), out=dnabla[:, :3])
        dnabla[:, :3] += xval
        np.multiply(r, d2, out=dnabla[:, 3])
        dnabla[:, 3] += d1
    # the x-derivatives go before the connection terms add to the peak
    del xval
    subtract_connection(nabla, [(gamma, val)])
    if len(jet) < 3:
        return (nabla,)
    subtract_connection(dnabla, [(dgamma / rho, val), (gamma, d1)])
    return nabla, dnabla


def _second_covariant_derivative(geom, cur, jet) -> np.ndarray:
    """n2[n, a, b, i, j] = (nabla_a nabla_b h)_{ij}: two passes of
    :func:`frame_covariant_derivative` over the jet (h, h', h'')."""
    nabla = frame_covariant_derivative(geom, cur, jet)
    return frame_covariant_derivative(geom, cur, nabla)[0]


def hessian11(geom, cur, jet) -> np.ndarray:
    """(DDt + DtD) of a (1, 1) frame-component field on collar rho-slices.

    ``jet`` is the embedded 4x4 field and its first two rho-derivatives on
    the points of ``cur``, as in :func:`frame_covariant_derivative`.
    With the full second covariant derivative n2[a, b, i, j] = (nabla_a
    nabla_b h)_{ij} and s_abcd = n2_acbd + n2_cadb, (DDt + DtD)_abcd is the
    double antisymmetrization -(s_abcd - s_bacd - s_abdc + s_badc).
    """
    n2 = _second_covariant_derivative(geom, cur, jet)
    s = _permute_slots(n2, (0, 2, 1, 3))
    # n2_cadb added through a transposed view: no second gathered copy of n2
    s += n2.transpose(0, 2, 4, 1, 3)
    del n2
    s -= _permute_slots(s, (1, 0, 2, 3))
    out = _permute_slots(s, (0, 1, 3, 2))
    out -= s
    return out


def _embed(val) -> np.ndarray:
    """4x4 frame embedding of a perturbation's values: tangential (points, 3, 3)
    values go into the spatial block, full (points, 4, 4) values pass through."""
    val = np.asarray(val, float)
    if val.shape[-2:] == (4, 4):
        return val.reshape(-1, 4, 4)
    val = val.reshape(-1, 3, 3)
    out = np.zeros((val.shape[0], 4, 4))
    out[:, :3, :3] = val
    return out


def _embed_jet(pert, rho):
    """Jet (h, dh/drho, d2h/drho2) of a perturbation on rho-slices, 4x4 embedded."""
    return tuple(_embed(pert.value(rho, order)) for order in range(3))


def fh_dense(h: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Slotwise derivation F_h on a dense (2, 2) form, ON components.

    Slot k's term sum_e h_{s_k e} R_{..e..} is one batched matmul of h with
    R viewed as a stack of matrices whose rows are slot k.
    """
    n = h.shape[0]
    # one copy of a strided R (to_on4's transposed view) instead of one per slot
    R = np.ascontiguousarray(R)
    out = (h @ R.reshape(n, 4, 64)).reshape(R.shape)
    out += (h[:, None] @ R.reshape(n, 4, 4, 16)).reshape(R.shape)
    out += (h[:, None] @ R.reshape(n, 16, 4, 4)).reshape(R.shape)
    out += (R.reshape(n, 64, 4) @ h.swapaxes(1, 2)).reshape(R.shape)
    return out


# -- linearized curvature ------------------------------------------------------


def linearized_curvature(geom, pert, rho) -> dict:
    """Linearized curvature fields in the ON frame on collar rho-slices.

    ``rho`` is a scalar or a 1-D array, with the point layout of
    :func:`curvature_in_frame`.  Returns R'h, r'h, s'h from the
    Hessian/contraction displays together with the ingredients: h and its
    Hessian in ON components, and 'background', the part of the background
    :func:`curvature_in_frame` record that they read or that describes the
    slices ('q', 'ginv', 'dvol', 'rho', 'riem_on' and 'invariants').  Every
    rho must lie in (0, geom.rho_max], else ValueError (NaN too).
    """
    _require_rhos_in_collar(geom, rho, "linearized_curvature")
    cur = curvature_in_frame(geom, rho)
    # the Hessian reads the connection and rho alone: the rest of the record
    # goes before it adds to the peak
    conn = {key: cur[key] for key in ("gamma", "dgamma", "rho")}
    background = {key: cur[key] for key in ("q", "ginv", "dvol", "rho", "riem_on", "invariants")}
    del cur
    q = background["q"]
    hjet = _embed_jet(pert, rho)
    h_on = to_on2(hjet[0], q)
    hess = hessian11(geom, conn, hjet)
    del conn, hjet
    H_on = to_on4(hess, q)
    del hess
    # R_on contiguous in place of to_on4's transposed view, which fh_dense
    # would copy: the same entries, and no second copy of R at its peak
    R_on = background["riem_on"] = np.ascontiguousarray(background["riem_on"])
    ric_on = background["invariants"]["ric"]
    fhr = fh_dense(h_on, R_on)
    c_h = np.einsum("niaib->nab", H_on)
    c_fhr = np.einsum("niaib->nab", fhr)
    # riem_p = -1/4 H + 1/4 F_h R, formed in F_h R's array
    riem_p = np.multiply(0.25, fhr, out=fhr)
    riem_p -= 0.25 * H_on
    comp = ric_on @ h_on
    comp = 0.5 * (comp + comp.transpose(0, 2, 1))
    ric_p = -0.25 * c_h - 0.25 * c_fhr + comp
    s_p = -0.25 * np.einsum("naa->n", c_h) - np.einsum("nab,nab->n", ric_on, h_on)
    return {
        "riem_p": riem_p,
        "ric_p": ric_p,
        "s_p": s_p,
        "hessian": H_on,
        "h_on": h_on,
        "background": background,
    }


def fd_curvature_derivative(geom, pert, background: dict, steps) -> list:
    """Central differences of frame curvature along g_rho + t m, ON at t=0.

    ``background`` is the unperturbed record of one rho-slice (a
    :func:`frame_curvature` record or :func:`linearized_curvature`'s
    'background'; its 'q' and 'rho' are read): the differences are taken on
    its slice and moved to the ON frame by its q.  One record {'riem_p',
    'ric_p', 's_p'} per step t in ``steps``.  The perturbed slices at rho, +t
    and -t of every step, are one :func:`ahrenvol.collar.map_slices` batch of
    a :class:`PerturbedGeometry` with one t per slice; no step is a
    ValueError from it.
    """
    q = background["q"]
    if q.shape[0] != geom.npts:
        raise ValueError(f"the background record holds {q.shape[0] // geom.npts} rho-slices, not 1")
    rho = background["rho"].flat[0]
    steps = np.atleast_1d(np.asarray(steps, dtype=float))

    def fields(ts):
        cur = frame_curvature(PerturbedGeometry(geom, pert, ts), np.full(ts.size, rho))
        return (cur["riem"],) + frame_ricci(cur["ginv"], cur["riem"])

    # slices (+t, -t) per step, each field regrouped as (step, sign, points, ...)
    ts = np.stack([steps, -steps], axis=1).reshape(-1)
    riem, ric, s = (f.reshape((steps.size, 2, -1) + f.shape[1:])
                    for f in map_slices(fields, ts, geom.npts))
    out = []
    for k, t in enumerate(steps):
        riem_p, ric_p, s_p = ((f[k, 0] - f[k, 1]) / (2.0 * t) for f in (riem, ric, s))
        out.append({"riem_p": to_on4(riem_p, q), "ric_p": to_on2(ric_p, q), "s_p": s_p})
    return out


def convergence_order(steps, deviations) -> float:
    """Least-squares slope of log(deviation) against log(step)."""
    x = np.log(np.asarray(steps, float))
    y = np.log(np.asarray(deviations, float))
    return float(np.polyfit(x, y, 1)[0])


# -- functional gradient and EL residual ---------------------------------------


def _frame_z(cur: dict) -> np.ndarray:
    """Trace-free Ricci z = ric - (s/4) gbar in scaled-frame components, from
    a :func:`frame_curvature` record."""
    ric, s = frame_ricci(cur["ginv"], cur["riem"])
    return ric - 0.25 * s[:, None, None] * cur["gbar"]


def gradient_field(z_on: np.ndarray, R_on: np.ndarray, ric_on: np.ndarray) -> np.ndarray:
    """Pointwise gradient field f = 1/2 |z|^2 g - R(z) - r o z (ON frame).

    The curvature-action term R(z)_xy = sum z_wi R_xiyw, symmetrized, carries
    coefficient 1, the value validated against finite differences of the
    functional (the stated coefficient 4 is a test oracle).  R(z) is the
    matrix R[n, (x y), (w i)] times z as a 16-vector, r o z the product
    ric z, both symmetrized.
    """
    n = z_on.shape[0]
    z2 = np.einsum("nab,nab->n", z_on, z_on)
    rcirc = (R_on.transpose(0, 1, 3, 4, 2).reshape(n, 16, 16) @ z_on.reshape(n, 16, 1)).reshape(n, 4, 4)
    rcirc = 0.5 * (rcirc + rcirc.transpose(0, 2, 1))
    comp = ric_on @ z_on
    comp = 0.5 * (comp + comp.transpose(0, 2, 1))
    return 0.5 * z2[:, None, None] * np.eye(4) - rcirc - comp


def _hessian_trace(ginv: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """c_bd = gbar^ac w_abcd of w = (DDt + DtD) h, X-frame, from n2 = nabla nabla h.

    With s as in :func:`hessian11`, each term of w is a permutation of n2, so
    c is gbar^-1 contracted over one slot pair of n2 per term: over the pairs
    (0, 1), (1, 2), (0, 3) and (2, 3) it gives T, U, V and W, and
    c = -[(T + T^t) - (U + U^t) - (V + V^t) + (W + W^t)].  This is the Ricci
    contraction :func:`ahrenvol.collar.frame_ricci` of :func:`hessian11`.
    """
    n = n2.shape[0]
    g = ginv.reshape(n, 1, 16)

    def contract(mat):
        return (g @ mat).reshape(n, 4, 4)

    # n2 as the matrix [n, (pair), (other pair)]: n2 itself and its transposed
    # view over (0, 1) and (2, 3), a gather over (1, 2) and (0, 3), one at a time
    mat = n2.reshape(n, 16, 16)
    x = contract(mat)
    x -= contract(_permute_slots(n2, (1, 2, 0, 3)).reshape(n, 16, 16))
    x -= contract(_permute_slots(n2, (0, 3, 1, 2)).reshape(n, 16, 16))
    x += contract(mat.swapaxes(1, 2))
    return -(x + x.swapaxes(1, 2))


# Chebyshev samples of z: torus E is 3e-7 off a 5-point stencil with 10, 3e-9 with 12
_Z_NODES = 12
# z is sampled past the largest rho, away from the interpolant's end, where its
# derivatives amplify sample noise most (the ball's E: 2.7e-10 at 1, 1.4e-11 at 1.25)
_Z_REACH = 1.25
# the least scale of z's Chebyshev series, whose tail estimates E's discretization
# error (README): the ball's z is roundoff, its largest coefficient 3e-16
_Z_SCALE_FLOOR = 1e-6


def functional_gradient(geom, rhos=None) -> dict:
    """The Euler-Lagrange residual E = f - 1/2 T2((DDt+DtD) z) on rho-slices,
    from the gradient field f (:func:`gradient_field`) and T2 of the z-Hessian.

    T2(w) = 1/2 c^2(w) g - c(w) reads w = (DDt+DtD) z only through its trace
    c(w), so no 4-index Hessian is formed: c comes from n2 = nabla nabla z by
    :func:`_hessian_trace` and goes to the ON frame as q^T c q.
    z has no closed-form rho-jet in general.  n2 takes z from one
    full engine record at each rho, which also serves f, the connection and
    the measure: once f and z are read, the slice keeps only the record's
    'gamma', 'dgamma', 'rho', 'q', 'ginv' and 'dvol', so that n2 is formed
    on a working set near the record's own peak (README, Working set).
    dz/drho and d2z/drho2 come from the Chebyshev interpolant of
    z through frame-only :func:`frame_curvature` slices at the
    ``_Z_NODES`` :func:`chebyshev_rho_nodes` of (0, min(1.25 max rho,
    geom.rho_max)].  The records and the frame-only slices both go through
    :func:`map_slices`.  Every rho must lie
    in (0, geom.rho_max], else ValueError (NaN too); one rho will do.

    Returns arrays: ``rhos``; ``E``, (n_rho, npts, 4, 4) in ON components;
    and ``slice_norms``, the integral of |E| over each slice.  ``z_tail`` is
    z's top two Chebyshev coefficients against its largest (at least 1e-6),
    a float.
    """
    rhos = np.linspace(0.1, 0.5, 9) if rhos is None else np.atleast_1d(np.asarray(rhos, float))
    _require_rhos_in_collar(geom, rhos, "functional_gradient")
    z_max = min(_Z_REACH * float(np.max(rhos)), geom.rho_max)
    z_grid = chebyshev_rho_nodes(z_max, _Z_NODES)
    z_nodes = map_slices(lambda r: _frame_z(frame_curvature(geom, r)), z_grid,
                         geom.npts).reshape(_Z_NODES, -1)
    z_basis = ChebyshevRhoBasis(z_grid, z_max)

    def slices(rho):
        cur = curvature_in_frame(geom, rho)
        inv = cur["invariants"]
        f_on = gradient_field(inv["z"], cur["riem_on"], inv["ric"])
        dz = z_basis.derivatives(z_nodes, rho, (1, 2))
        jet = (_frame_z(cur),) + tuple(d.reshape(f_on.shape) for d in dz)
        # n2 and c read the connection, rho, q, ginv and dvol alone: the rest
        # of the record goes before n2 adds to the peak
        cur = {key: cur[key] for key in ("gamma", "dgamma", "rho", "q", "ginv", "dvol")}
        del inv
        n2 = _second_covariant_derivative(geom, cur, jet)
        # T2(w) = 1/2 c^2(w) g - c(w), from c in the ON frame, q^T c q
        c_on = to_on2(_hessian_trace(cur["ginv"], n2), cur["q"])
        t2_on = 0.5 * np.trace(c_on, axis1=1, axis2=2)[:, None, None] * np.eye(4) - c_on
        t2_on = 0.5 * (t2_on + t2_on.swapaxes(1, 2))
        e_on = f_on - 0.5 * t2_on
        e_norm = np.sqrt(np.einsum("nab,nab->n", e_on, e_on))
        return e_on, slice_integral(geom, rho, e_norm, cur["dvol"])

    e_on, norms = map_slices(slices, rhos, geom.npts)
    # after the slices, so that the series does not add to their peak memory
    z_series = np.abs(z_basis.cardinal @ z_nodes)
    z_tail = float(np.max(z_series[-2:])) / max(_Z_SCALE_FLOOR, float(np.max(z_series)))
    return {"rhos": rhos, "E": e_on.reshape(rhos.size, -1, 4, 4), "slice_norms": norms,
            "z_tail": z_tail}


# E and h are sampled at the Chebyshev nodes of (0, _EL_RHO_MAX); phi^(k) is read to k = 6
_EL_RHO_MAX = 0.12
_EL_NODES = 12
_EL_ORDERS = 7


def el_slice_analysis(geom, pert) -> dict:
    """Slice diagnostics of phi(rho) = int <E, h> dvol_gamma near the boundary.

    Computes E by :func:`functional_gradient` and h at the 12
    :func:`chebyshev_rho_nodes` of (0, 0.12), and reads the Taylor
    coefficients at rho = 0, k <= 6, of phi, E and h from one Chebyshev
    interpolant of the three (:meth:`ChebyshevRhoBasis.derivatives`, divided
    by k!).  It reports which phi^(k) vanish (their contribution at rho = 0.12
    under 1e-8 max(1, max |phi|)), and cross-checks the low coefficients
    against the slice-coefficient pairings

        phi^(3) = <E^(0), h^(3)> + <E^(1), h^(2)>
        phi^(4) = <E^(0), h^(4)> + <E^(1), h^(3)> + <E^(2), h^(2)>

    (ON components, boundary measure of gamma = g_rho at rho = 0).  For the
    radial profile families E = O(rho^2), so both members of the order-3
    pairing vanish and the first observable coefficient is phi^(4).
    Diagnostic only: the inference from a vanishing phi^(k) to separate
    vanishing of the individual E^(j) is not asserted.  The pairings hold
    for a boundary-fixing h (h^(0) = h^(1) = 0), so any other ``pert`` raises
    ValueError, as an asymmetric one does, before any slice is computed.
    """
    _require_boundary_fixing(pert)
    rhos = chebyshev_rho_nodes(_EL_RHO_MAX, _EL_NODES)
    e_arr = functional_gradient(geom, rhos=rhos)["E"]
    dens0 = _slice_frame(geom, 0.0)["dvol"]

    def h_on(rho):
        return to_on2(_embed(pert.value(rho, 0)), _slice_frame(geom, rho)["q"])

    h_arr = map_slices(h_on, rhos, geom.npts).reshape(e_arr.shape)
    phi = geom.weight * np.einsum("rnab,rnab,n->r", e_arr, h_arr, dens0)
    # one interpolant of phi, E and h, side by side
    stacked = np.concatenate([phi[:, None], e_arr.reshape(_EL_NODES, -1),
                              h_arr.reshape(_EL_NODES, -1)], axis=1)
    orders = range(_EL_ORDERS)
    derivs = ChebyshevRhoBasis(rhos, _EL_RHO_MAX).derivatives(stacked, 0.0, orders)
    series = np.stack([d / math.factorial(k) for k, d in zip(orders, derivs)])
    coeffs = series[:, 0]
    e_series, h_series = (part.reshape((_EL_ORDERS,) + e_arr.shape[1:])
                          for part in np.split(series[:, 1:], 2, axis=1))
    contributions = np.abs(coeffs) * _EL_RHO_MAX ** np.arange(_EL_ORDERS)
    threshold = 1e-8 * max(1.0, float(np.max(np.abs(phi))))
    vanishing = [k for k, c in enumerate(contributions) if c < threshold]

    def pairing(e_term, h_term):
        return geom.weight * float(np.einsum("nab,nab,n->", e_term, h_term, dens0))

    phi3_pairing = pairing(e_series[0], h_series[3]) + pairing(e_series[1], h_series[2])
    phi4_pairing = (
        pairing(e_series[0], h_series[4])
        + pairing(e_series[1], h_series[3])
        + pairing(e_series[2], h_series[2])
    )
    return {
        "rhos": rhos,
        "phi": phi,
        "coefficients": coeffs,
        "contributions": contributions,
        "vanishing_orders": vanishing,
        "phi3_from_pairing": phi3_pairing,
        "phi4_from_pairing": phi4_pairing,
        "e_series": e_series,
        "critical": len(vanishing) == len(coeffs),
    }


# -- directional derivative of the regularized functional ----------------------


def _support(pert):
    """The interval (a, b) outside which the perturbation vanishes."""
    support = getattr(pert, "support", None)
    if support is None:
        raise ValueError("the perturbation declares no compact support to integrate over")
    return support


def _display_density(geom, pert, rho) -> np.ndarray:
    """Slice integrals of the first variation of |z|^2 dvol along ``pert`` on
    the rho-slices ``rho``, a 1-D array.

    The display, the pointwise derivative of |z|^2 dvol along h, is

        1/2 |z|^2 tr h - <R(z), h> - <r o z, h> - 1/8 <z . g, (DDt+DtD) h>,

    that is <f, h> (f the :func:`gradient_field`) minus 1/8 the full tensor
    sum with the Kulkarni-Nomizu product z . g.  f and z . g are pulled back
    to the X frame (:func:`ahrenvol.collar.to_on4` with q^T, the adjoint of
    the move to the ON frame), where they pair with h and with its second
    covariant derivative n2 (:func:`_second_covariant_derivative` of h's
    rho-jet): for a pair-symmetric K antisymmetric in each pair,
    <K, (DDt+DtD) h> = -8 sum K_abcd n2_acbd (see :func:`hessian11`).
    """
    cur = curvature_in_frame(geom, rho)
    inv, q = cur["invariants"], cur["q"]
    # to_on with q^T is the adjoint of to_on: <F_on, to_on(X, q)> = <to_on(F_on, q^T), X>
    f_x = to_on2(gradient_field(inv["z"], cur["riem_on"], inv["ric"]), q.swapaxes(1, 2))
    k_x = to_on4(kn_metric(inv["z"]), q.swapaxes(1, 2))
    dvol = cur["dvol"]
    # n2 reads the connection and rho alone: the rest of the record goes
    # before n2 adds to the peak
    conn = {key: cur[key] for key in ("gamma", "dgamma", "rho")}
    del cur, inv, q
    jet = _embed_jet(pert, rho)
    val = np.einsum("nab,nab->n", f_x, jet[0])
    del f_x
    n2 = _second_covariant_derivative(geom, conn, jet)
    val += np.einsum("nabcd,nacbd->n", k_x, n2)
    return slice_integral(geom, rho, val, dvol, 4)


def zprime_display(geom, pert, n_nodes: int = 64) -> float:
    """Directional derivative of int |z|^2 dvol along a supported perturbation.

    Integrates the display of :func:`_display_density` along the
    perturbation's rho-jet over ``pert.support`` as one Gauss segment, in
    :func:`map_slices` batches; a support that ends past geom.rho_max is a
    ValueError.  Requires an analytic rho-jet on ``pert`` (a stencil-free Hessian).
    """
    support = _support(pert)
    if not support[1] <= geom.rho_max:
        raise ValueError(f"the support {support} ends past geom.rho_max = {geom.rho_max}")
    nodes, wts = gauss_nodes([support], n_nodes)
    return float(wts @ map_slices(partial(_display_density, geom, pert), nodes, geom.npts))


# -- gradient flow on radial profile families -----------------------------------

_FLOW_SEGMENTS = ((0.02, 0.1), (0.1, 0.4), (0.4, 1.0), (1.0, 1.7), (1.7, 1.999))
# Gauss nodes per segment of Z, read by z2_functional and z2_value_and_gradient
_FLOW_NODES = 32


def z2_functional(theta, n_per: int = _FLOW_NODES) -> float:
    """int |z|^2 dvol over 0.02 <= rho <= 1.999 on the profile family A_theta.

    The family keeps A(0)=1, A'(0)=0, A(2)=0, A'(2)=-1, so every member is
    an AH metric on the ball with a totally geodesic boundary.  The
    integral is a Gauss rule on ``_FLOW_SEGMENTS``, ``n_per`` nodes each,
    which stop at rho = 0.02: the dropped head, int_0^0.02, is 0.8 to 13 %
    of the whole integral on the profiles measured (ROADMAP item 15), so
    the flow minimizes this truncated functional.  The tail past 1.999 is
    at most 2.0e-5 of Z on the profiles measured (1.45e-5 on (0.05)^3, 2.6e-4
    at 8 coefficients 0.01 cos k).  |z|^2 comes from :func:`_z2_closed_form`.
    """
    return _z2_closed_form(theta, n_per, 0)[0]


def _z2_closed_form(theta, n_per: int, n_grad: int):
    """(Z, the first ``n_grad`` components of dZ/dtheta) from the warped-product
    closed form of the radial curvature, on Z's Gauss rule.

    With rho = e^-t, g = rho^-2 (drho^2 + A^2 g_{S^3}) is dt^2 + f^2 g_{S^3},
    f = A / rho, whose radial and tangential sectional curvatures are
    a = -f_tt / f and b = (1 - f_t^2) / f^2, with f_t = f - A' and
    f_tt = f_t + rho A'' (O'Neill, Semi-Riemannian Geometry, 1983, ch. 7).
    So |z|^2 = 3 (a - b)^2 and dvol = f^3 dt over S^3's 2 pi^2, and Z sums
    2 pi^2 w_i 3 (a - b)^2 f^3 / rho_i (drho / rho = -dt).  dZ/dtheta_k
    differentiates that sum forward along dA/dtheta_k = u_k and its
    rho-derivatives (:func:`ahrenvol.collar.profile_basis_jet`):
    df = u_k / rho, df_t = df - u_k', da = -(df_t + rho u_k'' + a df) / f,
    db = -2 (f_t df_t + b f df) / f^2, and the sum's terms go to
    6 (a - b)(da - db) f^3 + 9 (a - b)^2 f^2 df.
    """
    nodes, wts = gauss_nodes(_FLOW_SEGMENTS, n_per)
    profile = perturbed_profile(np.asarray(theta, float))
    a0, a1, a2 = (profile.a(nodes, order) for order in range(3))
    f = a0 / nodes
    f_t = f - a1
    a = -(f_t + nodes * a2) / f
    b = (1.0 - f_t**2) / f**2
    value = float(2.0 * math.pi**2 * np.sum(wts * 3.0 * (a - b) ** 2 * f**3 / nodes))
    u0, u1, u2 = profile_basis_jet(n_grad, nodes).swapaxes(0, 1)
    df = u0 / nodes
    df_t = df - u1
    da = -(df_t + nodes * u2 + a * df) / f
    db = -2.0 * (f_t * df_t + b * f * df) / f**2
    dz = 6.0 * (a - b) * (da - db) * f**3 + 9.0 * (a - b) ** 2 * f**2 * df
    return value, 2.0 * math.pi**2 * (dz @ (wts / nodes))


def z2_value_and_gradient(theta):
    """(Z, dZ/dtheta) of :func:`z2_functional`, both from one
    :func:`_z2_closed_form` pass over its nodes, so Z is z2_functional's bit
    for bit.  No curvature engine runs."""
    theta = np.asarray(theta, float)
    return _z2_closed_form(theta, _FLOW_NODES, theta.size)


@dataclass(frozen=True)
class FlowStep:
    """One row of a flow's history, with the work that produced it.

    ``z_evaluations`` counts the functional's line-search candidates and
    ``gradient_passes`` the :func:`z2_value_and_gradient` passes; row 0 holds
    the pass that gave Z(theta_0).
    """

    step: int
    theta: tuple
    value: float
    eta: float
    z_evaluations: int = 0
    gradient_passes: int = 0


# the line search's budget of step halvings
_FLOW_MAX_HALVINGS = 20


def _require_finite_eta(eta) -> None:
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"step size must be finite and non-negative (got {eta})")


def gradient_flow_step(theta, value0: float, grad, eta: float):
    """One backtracking descent step on the profile parameters theta.

    ``value0`` and ``grad`` are Z and its gradient at theta, which the step
    does not evaluate again: only the line search calls :func:`z2_functional`,
    once per candidate, and each rejected candidate halves eta.  Returns
    (theta_new, value_new, eta_used).  eta = 0 is a no-op; a negative, NaN or
    infinite eta is a ValueError.  A candidate
    outside the profile family counts as an increase.  A non-finite theta or
    gradient, or a functional that fails to be non-increasing after
    ``_FLOW_MAX_HALVINGS`` halvings of eta, raises NonConvergence.
    """
    _require_finite_eta(eta)
    theta = np.asarray(theta, float)
    grad = np.asarray(grad, float)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match theta {theta.shape}")
    if eta == 0.0:
        return theta, value0, 0.0
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(grad))):
        raise NonConvergence(f"non-finite theta {theta} or gradient {grad}")
    cur_eta = float(eta)
    for _ in range(_FLOW_MAX_HALVINGS + 1):
        cand = theta - cur_eta * grad
        try:
            value = z2_functional(cand)
        except InvalidProfile:
            value = np.inf
        if value <= value0:
            return cand, value, cur_eta
        cur_eta *= 0.5
    raise NonConvergence("stalled")


def run_flow(theta0, steps: int = 200, eta: float = 1e-3, target_fraction: float = None) -> list:
    """Gradient descent on theta; returns the FlowStep history.

    Z(theta_0) and its gradient come from one :func:`z2_value_and_gradient`
    pass, and each later step starts with one pass at the theta that the
    step before it accepted; none runs after the last step.  With steps = 0
    or eta = 0 no step moves theta, so no gradient is taken and Z(theta_0) is
    one :func:`z2_functional` call.  The accepted step size is carried between
    iterations (doubled after each success, halved inside
    :func:`gradient_flow_step` as needed).  With ``target_fraction`` set,
    stops early once the functional drops below that fraction of its initial
    value.  A NaN or infinite eta or target_fraction is a ValueError.
    """
    _require_finite_eta(eta)
    if target_fraction is not None and not math.isfinite(target_fraction):
        raise ValueError(f"target_fraction must be finite (got {target_fraction})")
    theta = np.asarray(theta0, float)
    if steps > 0 and eta > 0.0:
        value, grad = z2_value_and_gradient(theta)
        history = [FlowStep(0, tuple(float(t) for t in theta), value, 0.0, gradient_passes=1)]
    else:
        # eta = 0 makes every step a no-op that never reads its gradient
        value, grad = z2_functional(theta), np.zeros_like(theta)
        history = [FlowStep(0, tuple(float(t) for t in theta), value, 0.0, z_evaluations=1)]
    cur_eta = float(eta)
    for k in range(1, steps + 1):
        passes = 0
        if grad is None:
            grad, passes = z2_value_and_gradient(theta)[1], 1
        new, value, used = gradient_flow_step(theta, value, grad, cur_eta)
        # the line search halves eta exactly, so the accepted eta counts its candidates
        calls = round(math.log2(cur_eta / used)) + 1 if used > 0 else 0
        if not np.array_equal(new, theta):
            grad = None
        theta = new
        history.append(FlowStep(k, tuple(float(t) for t in theta), value, used, calls, passes))
        cur_eta = max(min(2.0 * used, 1.0), 1e-12) if used > 0 else cur_eta
        if target_fraction is not None and value <= target_fraction * history[0].value:
            break
    return history
