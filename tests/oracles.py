"""Independent brute-force oracles for the double-form algebra and the collar families.

The dense algebra oracles work on *dense* component arrays of shape
(n,)*p + (n,)*q and use naive full-index loops (no compressed storage, no
shared sign helpers), so agreement with ahrenvol.dfalg is a genuine
two-implementation check.  Permutation signs are computed from determinants
of permutation matrices.  The ``*_loop`` oracles are the compressed-storage
operators in their per-call loop form, which recomputes every permutation
sign; ahrenvol.dfalg applies the same signs from cached tables, so the two
must agree entry for entry.  The eps-families of ahrenvol.renorm are checked
against adaptive quadrature, one scalar rho at a time, and their finite
parts against Taylor subtraction.  The perturbed radial profile is checked
against its ``Polynomial``-arithmetic construction.  The collar curvature
engine is checked against its einsum form with per-axis FFT boundary
derivatives, its orthonormal frame against one LAPACK routine per quantity
(``frame_oracle``) and its invariants against a second frame
(``symmetric_frame``),
the stacked algebra suite against its per-trial loop (``algebra_suite_loop``),
the engine's gathered and transposed-view kernels against their strided-copy
form bit for bit (``to_on4_slot_loop``, ``christoffels_bar_transposed_adds``
and friends),
the variation layer's per-slice kernels, which drop what they no longer
read, against their form that held the whole working set, bit for bit
(``functional_gradient_whole_record``, ``linearized_curvature_whole_record``),
the collar Hessian's D / Dt conventions against the flat 4-torus calculus,
its double antisymmetrization against the eight-permutation sum, and the
variation layer's batched-matmul contractions (covariant derivative,
gradient field, F_h) against their per-slot einsum form.  The
Euler-Lagrange residual, whose z-jet comes from a Chebyshev interpolant, is
checked against the same residual with a 5-point finite-difference z-jet
(``stencil_el_residual``), and against the same residual with T2 taken from
the whole Hessian moved to the ON frame, where the library forms it from the
Hessian's trace alone (``el_residual_whole_hessian``, ``einstein_t2_on``).  The
first-variation display, which the library assembles in the X frame, is
checked against central differences of the functional along a supported
perturbation (``fd_zprime``) and against its ON-frame assembly from the
antisymmetrized Hessian (``zprime_display_on``).  The flow's Z and
dZ/dtheta, which the library takes from the warped-product closed form of
the radial curvature and its forward derivative, are checked against the
engine's Gauss sum of |z|^2 (``_z2_quadrature``), against that display along
each parameter (``display_flow_gradient``, one Hessian per parameter),
against central differences (``fd_flow_gradient``) and against the same
closed form (``warped_radial``) differentiated by the complex step; the
engine's |z|^2, s and Pfaffian density on the
radial family against ``warped_radial`` pointwise; the radial volume
coefficients v2 and v3 against the jet of A^3 (``warped_volume_coefficients``);
and the radial action families and their finite parts against the closed-form
integrands (``warped_action_integrands``) and their Taylor coefficients by
power-series arithmetic (``warped_action_taylor``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy import integrate

from ahrenvol import dfalg
from ahrenvol.collar import (
    ChebyshevRhoBasis,
    NonConvergence,
    PerturbedGeometry,
    RadialGeometry,
    _gbar_blocks,
    _invariant_density,
    _rho_per_point,
    chebyshev_rho_nodes,
    curvature_in_frame,
    frame_curvature,
    gauss_nodes,
    map_slices,
    slice_integral,
    spectral_deriv,
    to_on2,
    to_on4,
)
from ahrenvol.dfalg import _EPS4, _combo_pos, _combos, _insert_sign, _merge_sign
from ahrenvol.renorm import (
    _FIT_COND_LIMIT,
    _FIT_TOL,
    _MODEL_POWERS,
    _NUISANCE_POWERS,
    FitRejected,
    RegularizedIntegral,
)


def perm_sign(perm) -> int:
    """Sign of a permutation of distinct integers, via a determinant."""
    order = np.argsort(np.argsort(perm))
    mat = np.zeros((len(perm), len(perm)))
    mat[np.arange(len(perm)), order] = 1.0
    return int(round(np.linalg.det(mat)))


def levi_civita_sign(tup) -> int:
    """Sign of an index tuple as a permutation; 0 on repeats."""
    if len(set(tup)) != len(tup):
        return 0
    return perm_sign(list(tup))


def dense_kn(a: np.ndarray, pa: int, qa: int, b: np.ndarray, pb: int, qb: int) -> np.ndarray:
    """Kulkarni-Nomizu product on dense arrays via the shuffle formula."""
    n = a.shape[0] if a.ndim else b.shape[0]
    p, q = pa + pb, qa + qb
    out = np.zeros((n,) * (p + q))
    row_shuffles = list(itertools.combinations(range(p), pa))
    col_shuffles = list(itertools.combinations(range(q), qa))
    for S in itertools.product(range(n), repeat=p):
        if len(set(S)) != p:
            continue
        for T in itertools.product(range(n), repeat=q):
            if len(set(T)) != q:
                continue
            acc = 0.0
            for rs in row_shuffles:
                rrest = tuple(i for i in range(p) if i not in rs)
                sgn_r = perm_sign(list(rs) + list(rrest))
                Sa = tuple(S[i] for i in rs)
                Sb = tuple(S[i] for i in rrest)
                for cs in col_shuffles:
                    crest = tuple(j for j in range(q) if j not in cs)
                    sgn_c = perm_sign(list(cs) + list(crest))
                    Ta = tuple(T[j] for j in cs)
                    Tb = tuple(T[j] for j in crest)
                    acc += sgn_r * sgn_c * a[Sa + Ta] * b[Sb + Tb]
            out[S + T] = acc
    return out


def dense_contract(w: np.ndarray, p: int, q: int) -> np.ndarray | float:
    """Trace the first slot of each factor group: sum_j w[j, S, j, T]."""
    n = w.shape[0]
    out = np.zeros((n,) * (p - 1 + q - 1))
    for S in itertools.product(range(n), repeat=p - 1):
        for T in itertools.product(range(n), repeat=q - 1):
            out[S + T] = sum(w[(j,) + S + (j,) + T] for j in range(n))
    if p == 1 and q == 1:
        return float(out)
    return out


def dense_star(w: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Factor-wise Hodge star on dense arrays, complement signs from dets."""
    out = np.zeros((n,) * (n - p + n - q))
    for I in itertools.combinations(range(n), p):
        Ic = tuple(i for i in range(n) if i not in I)
        si = levi_civita_sign(I + Ic)
        for J in itertools.combinations(range(n), q):
            Jc = tuple(j for j in range(n) if j not in J)
            sj = levi_civita_sign(J + Jc)
            val = si * sj * w[I + J]
            # scatter to every permutation of the complement tuples
            for PI in itertools.permutations(Ic):
                for PJ in itertools.permutations(Jc):
                    out[PI + PJ] = levi_civita_sign(
                        tuple(Ic.index(i) for i in PI)
                    ) * levi_civita_sign(tuple(Jc.index(j) for j in PJ)) * val
    return out


def dense_fh(h: np.ndarray, w: np.ndarray, p: int, q: int) -> np.ndarray:
    """Slot-wise derivation by the endomorphism of h on dense arrays."""
    n = h.shape[0]
    out = np.zeros_like(w)
    for idx in itertools.product(range(n), repeat=p + q):
        acc = 0.0
        for slot in range(p + q):
            for m in range(n):
                repl = idx[:slot] + (m,) + idx[slot + 1 :]
                acc += h[idx[slot], m] * w[repl]
        out[idx] = acc
    return out


def dense_inner_full(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def dense_inner_compressed(a: np.ndarray, b: np.ndarray, p: int, q: int) -> float:
    return float(np.sum(a * b)) / (math.factorial(p) * math.factorial(q))


def dense_pfaffian(R: np.ndarray) -> float:
    """Gauss-Bonnet density via the independent c^4(R.R) route at n = 4."""
    RR = dense_kn(R, 2, 2, R, 2, 2)
    x: np.ndarray | float = RR
    p = q = 4
    while p > 0:
        x = dense_contract(x, p, q)  # type: ignore[arg-type]
        p -= 1
        q -= 1
    return float(x) / ((2.0 * math.pi) ** 2 * 48.0)


def dense_rcirc(z: np.ndarray, R: np.ndarray) -> np.ndarray:
    """rcirc(x, y) = sum_i z(R(x, x_i) y, x_i), with [R(X_s,X_t)X_u]_w = R[s,t,u,w]."""
    n = z.shape[0]
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            acc = 0.0
            for i in range(n):
                for w in range(n):
                    acc += z[w, i] * R[x, i, y, w]
            out[x, y] = acc
    return 0.5 * (out + out.T)


def dense_compose(z: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Symmetrized endomorphism product of Ricci with z."""
    n = z.shape[0]
    ric = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            ric[a, b] = sum(R[i, a, i, b] for i in range(n))
    comp = ric @ z
    return 0.5 * (comp + comp.T)


# -- compressed-storage operators, loop form ------------------------------------


def kn_product_loop(a: dfalg.DoubleForm, b: dfalg.DoubleForm) -> dfalg.DoubleForm:
    """Kulkarni-Nomizu product: wedge on both factor groups."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    p, q = a.p + b.p, a.q + b.q
    if p > n or q > n:
        raise ValueError("degree exceeds dimension")
    pos_p = _combo_pos(n, p)
    pos_q = _combo_pos(n, q)
    out = np.zeros((math.comb(n, p), math.comb(n, q)))
    for ia, I in enumerate(_combos(n, a.p)):
        for ib, K in enumerate(_combos(n, b.p)):
            mi = _merge_sign(I, K)
            if mi is None:
                continue
            si, rowI = mi
            row = pos_p[rowI]
            for ja, J in enumerate(_combos(n, a.q)):
                for jb, L in enumerate(_combos(n, b.q)):
                    mj = _merge_sign(J, L)
                    if mj is None:
                        continue
                    sj, colJ = mj
                    out[row, pos_q[colJ]] += si * sj * a.coeffs[ia, ja] * b.coeffs[ib, jb]
    return dfalg.DoubleForm(n, p, q, out)


def contract_loop(w: dfalg.DoubleForm) -> dfalg.DoubleForm | float:
    """Trace one slot from each factor against the orthonormal frame.

    Maps D^{p+1,q+1} -> D^{p,q}; a (0, 0) result is returned as a float.
    """
    if w.p < 1 or w.q < 1:
        raise ValueError("cannot contract degree zero")
    n, p, q = w.n, w.p - 1, w.q - 1
    pos_p = _combo_pos(n, w.p)
    pos_q = _combo_pos(n, w.q)
    out = np.zeros((math.comb(n, p), math.comb(n, q)))
    for a, I in enumerate(_combos(n, p)):
        for b, J in enumerate(_combos(n, q)):
            acc = 0.0
            for j in range(n):
                si = _insert_sign(j, I)
                sj = _insert_sign(j, J)
                if si is None or sj is None:
                    continue
                acc += si[0] * sj[0] * w.coeffs[pos_p[si[1]], pos_q[sj[1]]]
            out[a, b] = acc
    if p == 0 and q == 0:
        return float(out[0, 0])
    return dfalg.DoubleForm(n, p, q, out)


def hodge_star_loop(w: dfalg.DoubleForm) -> dfalg.DoubleForm:
    """Factor-wise Hodge star D^{p,q} -> D^{n-p,n-q}.

    Satisfies g.w = (-1)^(n(p+q)) *c*w and ** = (-1)^(p(n-p)+q(n-q)).
    """
    n = w.n
    p, q = n - w.p, n - w.q
    pos_p = _combo_pos(n, p)
    pos_q = _combo_pos(n, q)
    out = np.zeros((math.comb(n, p), math.comb(n, q)))
    full = tuple(range(n))
    for a, I in enumerate(_combos(n, w.p)):
        Ic = tuple(i for i in full if i not in I)
        si, _ = _merge_sign(I, Ic)  # type: ignore[misc]
        for b, J in enumerate(_combos(n, w.q)):
            Jc = tuple(j for j in full if j not in J)
            sj, _ = _merge_sign(J, Jc)  # type: ignore[misc]
            out[pos_p[Ic], pos_q[Jc]] = si * sj * w.coeffs[a, b]
    return dfalg.DoubleForm(n, p, q, out)


def f_h_loop(h: dfalg.SymBilinear, w: dfalg.DoubleForm) -> dfalg.DoubleForm:
    """Derivation attached to h, acting slot-wise on both factor groups."""
    if h.n != w.n:
        raise ValueError("dimension mismatch")
    n = w.n
    out = np.zeros_like(w.coeffs)
    pos_p = _combo_pos(n, w.p)
    pos_q = _combo_pos(n, w.q)

    def act(group: int) -> None:
        # derivation on one factor group: replace slot index i by j, weight h_ij
        combos = _combos(n, w.p if group == 0 else w.q)
        pos = pos_p if group == 0 else pos_q
        for a, I in enumerate(combos):
            for slot, i in enumerate(I):
                rest = I[:slot] + I[slot + 1 :]
                for j in range(n):
                    hij = h.entries[i, j]
                    if hij == 0.0:
                        continue
                    s = _insert_sign(j, rest)
                    if s is None:
                        continue
                    sgn, newI = s
                    # sign of removing slot `slot` from I
                    sgn *= (-1) ** slot
                    if group == 0:
                        out[a, :] += sgn * hij * w.coeffs[pos[newI], :]
                    else:
                        out[:, a] += sgn * hij * w.coeffs[:, pos[newI]]

    act(0)
    act(1)
    return dfalg.DoubleForm(n, w.p, w.q, out)


def to_dense_loop(w: dfalg.DoubleForm) -> np.ndarray:
    """Expand to a dense array of shape (n,)*p + (n,)*q."""
    n, p, q = w.n, w.p, w.q
    out = np.zeros((n,) * (p + q))
    for I in itertools.permutations(range(n), p):
        for J in itertools.permutations(range(n), q):
            out[I + J] = w.component(I, J)
    return out


# -- random inputs -----------------------------------------------------------


def random_form_dense(rng: np.random.Generator, n: int, p: int, q: int) -> np.ndarray:
    """Random dense double form: antisymmetrize a random tensor in each group."""
    raw = rng.standard_normal((n,) * (p + q))
    out = np.zeros_like(raw)
    for sig in itertools.permutations(range(p)):
        for tau in itertools.permutations(range(q)):
            axes = list(sig) + [p + t for t in tau]
            out += perm_sign(list(sig)) * perm_sign(list(tau)) * np.transpose(raw, axes)
    return out


def random_curvature_dense(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random curvature-type tensor: pair-antisymmetric and pair-exchange symmetric."""
    raw = rng.standard_normal((n, n, n, n))
    raw = raw - raw.transpose(1, 0, 2, 3)
    raw = raw - raw.transpose(0, 1, 3, 2)
    return raw + raw.transpose(2, 3, 0, 1)


# -- the algebra suite, one trial at a time -------------------------------------


def _suite_form(rng, n, p, q):
    coeffs = rng.standard_normal((math.comb(n, p), math.comb(n, q)))
    return dfalg.DoubleForm(n, p, q, coeffs)


def _suite_curvature(rng, n=4):
    dense = rng.standard_normal((n,) * 4)
    dense = dense - dense.transpose(1, 0, 2, 3)
    dense = dense - dense.transpose(0, 1, 3, 2)
    dense = 0.5 * (dense + dense.transpose(2, 3, 0, 1))
    return dfalg.DoubleForm.from_dense(n, 2, 2, dense)


def _suite_sym(rng, n=4):
    m = rng.standard_normal((n, n))
    return dfalg.SymBilinear(n, 0.5 * (m + m.T))


def algebra_suite_loop(seed: int) -> list[float]:
    """The seven algebra-suite deviations, one trial per loop pass.

    ``cli.run_algebra_suite`` draws the same inputs in the same order and
    evaluates each identity once per stacked group; the two agree exactly.
    """
    rng = np.random.default_rng(seed)
    degrees = [(3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 2, 2), (5, 1, 2), (5, 2, 2)]
    dev_comm = dev_adj = dev_hodge = 0.0
    for _ in range(100):
        n, p, q = degrees[rng.integers(0, len(degrees))]
        g = dfalg.metric_g(n)
        w = _suite_form(rng, n, p, q)
        lhs = dfalg.contract(dfalg.kn_product(g, w))
        cw = dfalg.contract(w)
        if isinstance(cw, float):
            rhs = (n - p - q) * w + cw * dfalg.kn_product(g, dfalg.unit_scalar(n))
        else:
            rhs = dfalg.kn_product(g, cw) + (n - p - q) * w
        scale = max(1.0, float(np.max(np.abs(lhs.coeffs))))
        dev_comm = max(dev_comm, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale)

        b = _suite_form(rng, n, p + 1, q + 1)
        lhs2 = dfalg.inner(dfalg.kn_product(g, w), b)
        cb = dfalg.contract(b)
        rhs2 = cb * w.coeffs[0, 0] if isinstance(cb, float) else dfalg.inner(w, cb)
        dev_adj = max(dev_adj, abs(lhs2 - rhs2) / max(1.0, abs(lhs2)))

        lhs3 = dfalg.kn_product(g, w)
        sign = (-1.0) ** (n * (p + q))
        rhs3 = sign * dfalg.hodge_star(dfalg.contract(dfalg.hodge_star(w)))
        scale = max(1.0, float(np.max(np.abs(lhs3.coeffs))))
        dev_hodge = max(dev_hodge, float(np.max(np.abs(lhs3.coeffs - rhs3.coeffs))) / scale)

    dev_deriv = dev_selfadj = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        h = _suite_sym(rng, n)
        a = _suite_form(rng, n, 1, 1)
        b = _suite_form(rng, n, 1, 1)
        lhs = dfalg.f_h(h, dfalg.kn_product(a, b))
        rhs = dfalg.kn_product(dfalg.f_h(h, a), b) + dfalg.kn_product(a, dfalg.f_h(h, b))
        scale = max(1.0, float(np.max(np.abs(lhs.coeffs))))
        dev_deriv = max(dev_deriv, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale)
        p1 = dfalg.inner(dfalg.f_h(h, a), b)
        p2 = dfalg.inner(a, dfalg.f_h(h, b))
        dev_selfadj = max(dev_selfadj, abs(p1 - p2) / max(1.0, abs(p1)))

    dev_pair = dev_rcirc = 0.0
    for _ in range(100):
        R = _suite_curvature(rng)
        z = _suite_sym(rng)
        h = _suite_sym(rng)
        lhs = dfalg.inner(z.to_doubleform(), dfalg.contract(dfalg.f_h(h, R)))
        parts = dfalg.bilinear_algebra(z, R)
        rhs = 2.0 * float(np.sum(parts["rcirc"].entries * h.entries)) + 2.0 * float(
            np.sum(parts["compose"].entries * h.entries)
        )
        dev_pair = max(dev_pair, abs(lhs - rhs) / max(1.0, abs(lhs)))
        p1 = float(np.sum(z.entries * dfalg.bilinear_algebra(h, R)["rcirc"].entries))
        p2 = float(np.sum(parts["rcirc"].entries * h.entries))
        dev_rcirc = max(dev_rcirc, abs(p1 - p2) / max(1.0, abs(p1)))

    return [dev_comm, dev_adj, dev_hodge, dev_deriv, dev_selfadj, dev_pair, dev_rcirc]


# -- radial profiles -------------------------------------------------------------


def perturbed_profile_polynomial(theta) -> Polynomial:
    """The perturbed profile's polynomial built by ``Polynomial`` arithmetic.

    A + sum_k theta_k rho^(2+k) (1 - rho/2)^2 with each bump formed as
    ``float(t) * rho^(2+k) * window`` and added in turn; collar's
    ``perturbed_profile`` sums the same convolutions as plain coefficient
    arrays and must agree bit for bit.
    """
    poly = Polynomial([1.0, 0.0, -0.25])
    window = Polynomial([1.0, -0.5]) ** 2
    for k, t in enumerate(np.atleast_1d(np.asarray(theta, dtype=float))):
        poly = poly + float(t) * Polynomial([0.0] * (2 + k) + [1.0]) * window
    return poly


# -- collar integral families ------------------------------------------------


def adaptive_family(density, eps_grid, rho_max: float) -> np.ndarray:
    """Integrals of a batched density over [eps_i, rho_max] by adaptive quad_vec.

    ``density`` maps a 1-D rho array to one row per slice; it is called one
    rho at a time.  Returns shape (eps, components).
    """
    bounds = list(np.asarray(eps_grid, dtype=float)) + [rho_max]
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        val, err = integrate.quad_vec(
            lambda rho: np.reshape(density(np.array([rho])), -1), lo, hi,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        assert err <= 1e-9 * max(1.0, float(np.max(np.abs(val)))), (lo, hi, err)
        pieces.append(val)
    return np.cumsum(np.asarray(pieces)[::-1], axis=0)[::-1]


def paycha_finite_part(func, taylor, a: float, cutoff: float = 0.05) -> float:
    """Finite part of int_eps^a rho^-4 f(rho) drho by Taylor subtraction.

    ``taylor`` holds Taylor coefficients (f0, f1, f2, ..., at least 8) of f
    at rho = 0.  The first four span the divergent model, integrated in
    closed form and dropped; the regular remainder (f - T3) rho^-4 is
    integrated by the series tail below ``cutoff`` (direct evaluation there
    loses all precision to cancellation) and by quadrature above it.
    Independent of ``finite_part`` (no asymptotic fitting) -- the
    cross-check oracle on backends whose Taylor coefficients are available.
    """
    coeffs = [float(c) for c in taylor]
    if len(coeffs) < 8:
        raise ValueError("need at least 8 Taylor coefficients")
    f0, f1, f2, f3 = coeffs[:4]

    head = sum(c * cutoff ** (k - 3) / (k - 3) for k, c in enumerate(coeffs) if k >= 4)

    def reduced(rho):
        t = f0 + f1 * rho + f2 * rho**2 + f3 * rho**3
        return (func(rho) - t) / rho**4

    tail, err = integrate.quad(
        reduced, cutoff, a, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    if err > 1e-8 * max(1.0, abs(tail)):
        raise NonConvergence(f"quadrature non-convergence (err={err:.3e})")
    return (
        head + tail - f0 / (3.0 * a**3) - f1 / (2.0 * a**2) - f2 / a + f3 * math.log(a)
    )


# -- the eps-fit, one basis at a time -------------------------------------------


def _design_columns(eps: np.ndarray, powers) -> tuple[np.ndarray, list]:
    cols, keys = [], []
    for p in powers:
        if p == "log":
            cols.append(np.log(1.0 / eps))
        else:
            cols.append(eps ** float(p))
        keys.append(p)
    return np.stack(cols, axis=1), keys


def ls_fit(eps: np.ndarray, vals: np.ndarray, powers_list):
    """Column-scaled least squares with extended-precision refinement.

    The columns span several orders of magnitude, so a single float64 solve
    loses ~cond digits on exactly-representable models; refinement against
    long-double residuals recovers them.
    """
    design, keys = _design_columns(eps, list(powers_list))
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = design / norms
    cond = float(np.linalg.cond(scaled))
    if cond > _FIT_COND_LIMIT:
        raise FitRejected(f"ill-conditioned asymptotic fit (cond={cond:.3e})")
    sol, _, _, _ = np.linalg.lstsq(scaled, vals, rcond=None)
    scaled_ld = scaled.astype(np.longdouble)
    vals_ld = vals.astype(np.longdouble)
    for _ in range(3):
        r = np.asarray(vals_ld - scaled_ld @ sol.astype(np.longdouble), dtype=float)
        sol = sol + np.linalg.lstsq(scaled, r, rcond=None)[0]
    coeffs = sol / norms
    resid = float(np.max(np.abs(design @ coeffs - vals)))
    return dict(zip(keys, coeffs)), resid, cond


def finite_part_loop(values):
    """renorm.finite_part with every basis fitted on its own by ``ls_fit``.

    The selection loop refits each candidate basis from scratch: one
    ``np.linalg.cond`` and four ``lstsq`` solves per basis.  Returns the
    RegularizedIntegral, its selection diagnostics counted the same way as
    finite_part's, and the trace: the stopping ``floor`` and, per selection
    step, the residual of each candidate power (``steps``).
    """
    eps, vals = (np.asarray(a, dtype=float) for a in values)
    order = np.argsort(eps)
    eps, vals = eps[order], vals[order]

    all_powers = list(_MODEL_POWERS + _NUISANCE_POWERS)
    _, resid_full, _ = ls_fit(eps, vals, all_powers)
    floor = 10.0 * resid_full + 1e-13
    kept = list(_MODEL_POWERS)
    remaining = list(_NUISANCE_POWERS)
    by_key, resid, cond_kept = ls_fit(eps, vals, kept)
    steps = []
    while resid > floor and remaining:
        trials = [ls_fit(eps, vals, kept + [p]) + (p,) for p in remaining]
        steps.append({t[3]: t[1] for t in trials})
        by_key, resid, cond_kept, best = min(trials, key=lambda t: t[1])
        kept.append(best)
        remaining.remove(best)

    scale = max(1.0, float(np.max(np.abs(vals))))
    if resid > _FIT_TOL * scale:
        raise FitRejected(
            f"asymptotic model rejected (residual {resid:.3e} > {_FIT_TOL:.1e} * scale)"
        )

    gaps = []
    for step in steps:
        if len(step) > 1:
            best, second = sorted(step.values())[:2]
            gaps.append(second / best - 1.0 if best else (math.inf if second else 0.0))
    extras = {p: float(by_key.get(p, 0.0)) for p in _NUISANCE_POWERS}
    fit = RegularizedIntegral(
        c0=float(by_key.get(-3, 0.0)),
        c2=float(by_key.get(-1, 0.0)),
        log_coeff=float(by_key.get("log", 0.0)),
        finite=float(by_key[0]),
        fit_residual=resid,
        extras=extras,
        cond=cond_kept,
        kept_powers=tuple(kept[len(_MODEL_POWERS) :]),
        selection_gaps=tuple(gaps),
        floor_ratio=resid / floor,
        fits=2 + sum(len(step) for step in steps),
    )
    return fit, {"floor": floor, "steps": steps}


# -- flat-torus double-form calculus -----------------------------------------


class FlatTorus4:
    """Dense double-form calculus on the side-2pi flat 4-torus.

    Fields have shape (n, n, n, n) + (4,)*p + (4,)*q.  Derivatives are
    spectral, so products of low-mode fields stay exact as long as the grid
    resolves them (keep total mode content below the Nyquist frequency).
    """

    def __init__(self, n_grid: int):
        if n_grid < 4:
            raise ValueError("insufficient stencil width")
        self.n_grid = int(n_grid)
        self.weight = (2.0 * math.pi / n_grid) ** 4

    # scalar/grid derivatives ------------------------------------------------

    def deriv(self, fld: np.ndarray, axis: int) -> np.ndarray:
        return spectral_deriv(fld, axis)

    def d_all(self, fld: np.ndarray) -> np.ndarray:
        """All four derivatives, new axis inserted before the index block."""
        return np.stack([self.deriv(fld, a) for a in range(4)], axis=4)

    # first-order operators ----------------------------------------------------

    def D(self, fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """Exterior derivative on the first factor: (p, q) -> (p+1, q)."""
        der = self.d_all(fld)
        g0 = der.ndim - p - q - 1
        out = der.copy()
        for s in range(1, p + 1):
            out += (-1.0) ** s * np.moveaxis(der, g0, g0 + s)
        return out

    def Dt(self, fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """Exterior derivative on the second factor: (p, q) -> (p, q+1).

        The overall sign is pinned by the flat-background linearized
        curvature identity (see the ahrenvol.variation module docstring).
        """
        der = self.d_all(fld)
        g0 = der.ndim - p - q - 1
        der2 = np.moveaxis(der, g0, g0 + p)
        out = der2.copy()
        for s in range(1, q + 1):
            out += (-1.0) ** s * np.moveaxis(der2, g0 + p, g0 + p + s)
        return -out

    # pointwise algebra ----------------------------------------------------

    @staticmethod
    def contract(fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """c: trace the first slot of each factor group; (p, q) -> (p-1, q-1)."""
        nd = fld.ndim
        return np.trace(fld, axis1=nd - p - q, axis2=nd - q)

    @staticmethod
    def star_group(fld: np.ndarray, p: int, q: int, group: int) -> np.ndarray:
        letters_p = "abcd"[:p]
        letters_q = "ijkl"[:q]
        if group == 0:
            comp = "efgh"[: 4 - p]
            spec = f"{letters_p}{comp},...{letters_p}{letters_q}->...{comp}{letters_q}"
            return np.einsum(spec, _EPS4, fld) / math.factorial(p)
        comp = "mnop"[: 4 - q]
        spec = f"{letters_q}{comp},...{letters_p}{letters_q}->...{letters_p}{comp}"
        return np.einsum(spec, _EPS4, fld) / math.factorial(q)

    def star(self, fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """Hodge star on both factor groups (flat ON frame)."""
        return self.star_group(self.star_group(fld, p, q, 0), 4 - p, q, 1)

    # second-order operators -------------------------------------------------

    def hessian(self, fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """(DDt + DtD) fld, bidegree (p+1, q+1)."""
        return self.D(self.Dt(fld, p, q), p, q + 1) + self.Dt(self.D(fld, p, q), p + 1, q)

    def delta(self, fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """delta = c Dt + Dt c : (p, q) -> (p-1, q)."""
        t1 = self.contract(self.Dt(fld, p, q), p, q + 1)
        t2 = self.Dt(self.contract(fld, p, q), p - 1, q - 1)
        return t1 + t2

    def deltat(self, fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """deltat = c D + D c : (p, q) -> (p, q-1)."""
        t1 = self.contract(self.D(fld, p, q), p + 1, q)
        t2 = self.D(self.contract(fld, p, q), p - 1, q - 1)
        return t1 + t2

    def adjoint_hessian(self, fld: np.ndarray, p: int, q: int) -> np.ndarray:
        """(deltat delta + delta deltat) fld, bidegree (p-1, q-1)."""
        return self.deltat(self.delta(fld, p, q), p - 1, q) + self.delta(
            self.deltat(fld, p, q), p, q - 1
        )

    def inner(self, a: np.ndarray, b: np.ndarray, p: int, q: int) -> float:
        """Integrated compressed inner product (full sum / p! q!)."""
        return self.weight * float(np.sum(a * b)) / (
            math.factorial(p) * math.factorial(q)
        )


def hessian_ops(torus: FlatTorus4, fld: np.ndarray, p: int, q: int) -> dict:
    """Generalized Hessian and its formal adjoint on the flat torus.

    Returns ``{"DDt": (DDt+DtD) fld, "adjoint": (deltat delta + delta deltat)
    fld}``; the two are intertwined by the double Hodge star, which the test
    suite checks pointwise.
    """
    if min(p, q) < 1:
        raise ValueError("adjoint requires bidegree at least (1, 1)")
    return {
        "DDt": torus.hessian(fld, p, q),
        "adjoint": torus.adjoint_hessian(fld, p, q),
    }


# -- reference curvature engine ------------------------------------------------
# The einsum form of the collar engine's kernels, the reference for the
# batched-matmul kernels of ahrenvol.collar and ahrenvol.dfalg.  Each body is
# the engine's former code; only the boundary derivative is spelled
# fft_xderiv(geom, field, i), the per-axis FFT, where it read
# geom.xderiv(field, i).


def fft_xderiv(geom, field: np.ndarray, axis: int) -> np.ndarray:
    """Derivative along boundary coordinate ``axis`` by one FFT pair; zero on S^3."""
    while isinstance(geom, PerturbedGeometry):
        geom = geom.base
    if isinstance(geom, RadialGeometry):
        return np.zeros_like(field)
    n = geom.n_grid
    grid = field.reshape((-1, n, n, n) + field.shape[1:])
    return spectral_deriv(grid, axis + 1).reshape(field.shape)


def christoffels_bar_einsum(geom, rho):
    """Levi-Civita symbols of gbar in the frame Xbar, plus d/d rho.

    Returns (Gbar, dGbar) with Gbar[n, u, a, b] = Gammabar^u_ab, from the
    Koszul formula with structure-function terms.
    """
    gbar, dgbar, d2gbar = _gbar_blocks(geom, rho)
    c4 = geom.cbar

    def koszul(gb, xg):
        # xg[n, a, b, c] = Xbar_a (gbar_bc); target index order (c, a, b)
        lower = 0.5 * (
            np.einsum("nabc->ncab", xg)  # X_a g_bc
            + np.einsum("nbac->ncab", xg)  # X_b g_ac
            - np.einsum("ncab->ncab", xg)  # X_c g_ab
        )
        # structure-constant terms: + C^d_ab g_dc - C^d_ac g_db - C^d_bc g_da
        lower = lower + 0.5 * (
            np.einsum("dab,ndc->ncab", c4, gb)
            - np.einsum("dac,ndb->ncab", c4, gb)
            - np.einsum("dbc,nda->ncab", c4, gb)
        )
        return lower

    def xgrad(gb, dgb_rho):
        xg = np.zeros((gb.shape[0], 4, 4, 4))
        for i in range(3):
            xg[:, i] = fft_xderiv(geom, gb, i)
        xg[:, 3] = dgb_rho
        return xg

    ginv = np.linalg.inv(gbar)
    dginv = -np.einsum("nab,nbc,ncd->nad", ginv, dgbar, ginv)

    lower = koszul(gbar, xgrad(gbar, dgbar))
    dlower = koszul(dgbar, xgrad(dgbar, d2gbar))
    gamma = np.einsum("nuc,ncab->nuab", ginv, lower)
    dgamma = np.einsum("nuc,ncab->nuab", dginv, lower) + np.einsum(
        "nuc,ncab->nuab", ginv, dlower
    )
    return gamma, dgamma


def christoffels_einsum(geom, rho):
    """Frame Christoffels of g in X_s = rho Xbar_s, and rho d/d rho of them.

    Gamma^u_st = rho Gammabar^u_st - delta_su delta_t4 + delta_u4 gbar_st.
    """
    gbar, dgbar, _ = _gbar_blocks(geom, rho)
    gamma_bar, dgamma_bar = christoffels_bar_einsum(geom, rho)
    rho = _rho_per_point(rho, gbar.shape[0])
    eye = np.eye(4)
    delta_term = np.einsum("su,t->ust", eye, eye[3])
    gamma = (
        rho * gamma_bar
        - delta_term[None, :, :, :]
        + np.einsum("u,nst->nust", eye[3], gbar)
    )
    # rho d/d rho Gamma = rho (Gammabar + rho dGammabar + delta_u4 dgbar)
    dgamma = rho * (
        gamma_bar + rho * dgamma_bar + np.einsum("u,nst->nust", eye[3], dgbar)
    )
    return gamma, dgamma


def frame_curvature_einsum(geom, gamma, radial_deriv, spatial_scale, cfun, gbar):
    """Riem_stuv = gbar(R(F_s, F_t) F_u, F_v) for a frame with given data.

    gamma[n,u,a,b]: connection symbols; radial_deriv: F_4 applied to gamma;
    spatial_scale: factor multiplying Xbar_i to give F_i; cfun[(n),x,s,t]:
    structure functions of the frame F.
    """
    npts = gamma.shape[0]
    dg = np.zeros((npts, 4) + gamma.shape[1:])
    for i in range(3):
        dg[:, i] = spatial_scale * fft_xderiv(geom, gamma, i)
    dg[:, 3] = radial_deriv
    # dg[n, s, w, t, u] = F_s Gamma^w_tu
    t1 = dg - np.transpose(dg, (0, 3, 2, 1, 4))
    quad = np.einsum("nxtu,nwsx->nswtu", gamma, gamma)
    t2 = quad - np.transpose(quad, (0, 3, 2, 1, 4))
    if cfun.ndim == 3:
        t3 = np.einsum("xst,nwxu->nswtu", cfun, gamma)
    else:
        t3 = np.einsum("nxst,nwxu->nswtu", cfun, gamma)
    rup = t1 + t2 - t3
    return np.einsum("nswtu,nwv->nstuv", rup, gbar)


def to_on4_pairs(fld: np.ndarray, q: np.ndarray) -> np.ndarray:
    """collar.to_on4 as one 16 x 16 product per index pair (the Kronecker q (x) q)."""
    n = q.shape[0]
    # qq[n, (s, t), (a, b)] = q[n, s, a] q[n, t, b] moves an index pair at once
    qq = (q[:, :, None, :, None] * q[:, None, :, None, :]).reshape(n, 16, 16)
    return (qq.swapaxes(1, 2) @ fld.reshape(n, 16, 16) @ qq).reshape(fld.shape)


def to_on4_einsum(fld: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.einsum("nstuv,nsa,ntb,nuc,nvd->nabcd", fld, q, q, q, q, optimize=True)


# The engine's kernels in their strided-copy form: each index permutation is
# a transposed view that numpy copies (or reads strided) before the product
# or the add.  The engine gathers them or hands BLAS a transposed view
# instead, keeping every operand pair, summation index and order of adds, so
# the two must agree bit for bit (and to_on4 in its returned layout too).


def to_on4_slot_loop(fld: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    out = fld
    # one slot per product: contract the last slot with q, then move the new
    # index first, so after four products the slots are back in order
    for _ in range(4):
        out = (out.reshape(n, 64, 4) @ q).reshape(n, 4, 4, 4, 4).transpose(0, 4, 1, 2, 3)
    return out


def christoffels_bar_transposed_adds(geom, frame):
    """collar.christoffels_bar with the Koszul terms as two 5-D transposed adds."""
    gbar, dgbar, ginv = frame["gbar"], frame["dgbar"], frame["ginv"]
    npts = gbar.shape[0]
    pair = np.stack([gbar, dgbar], axis=1)  # (n, f, 4, 4): gbar and d/d rho gbar
    # xg[n, f, a, b, c] = Xbar_a (pair_f)_bc, one x-derivative call for both fields
    xg = np.empty((npts, 2, 4, 4, 4))
    xg[:, :, :3] = geom.xderiv(pair).transpose(0, 2, 1, 3, 4)
    xg[:, 0, 3] = dgbar
    xg[:, 1, 3] = frame["d2gbar"]
    # minus the structure-constant terms, C^d_ab (pair_f)_dc at [n, f, c, a, b]
    xg -= np.tensordot(pair, geom.cbar, axes=([2], [0]))
    # lower[n, f, c, a, b] = 1/2 (X_a g_bc + X_b g_ac - X_c g_ab
    #                             + C^d_ab g_dc - C^d_ac g_db - C^d_bc g_da)
    lower = xg.transpose(0, 1, 4, 2, 3) + xg.transpose(0, 1, 4, 3, 2) - xg
    lower = 0.5 * lower.reshape(npts, 2, 4, 16)
    gamma = ginv @ lower[:, 0]
    # d/d rho (g^-1 lower) = g^-1 (dlower - dgbar g^-1 lower)
    dgamma = ginv @ (lower[:, 1] - dgbar @ gamma)
    return gamma.reshape(npts, 4, 4, 4), dgamma.reshape(npts, 4, 4, 4)


def xderiv_axis_copies(geom, field: np.ndarray) -> np.ndarray:
    """TorusJetGeometry.xderiv with each axis's product copied into a point-major result."""
    n = geom.n_grid
    grid = field.reshape(-1, n, n, n, math.prod(field.shape[1:]))
    out = np.empty(grid.shape[:4] + (3, grid.shape[4]))
    for axis in range(3):
        # the grid axes before ``axis`` batch the product, those after it ride along
        lead = grid.shape[0] * n**axis
        out[..., axis, :] = (geom._dmat @ grid.reshape(lead, n, -1)).reshape(grid.shape)
    return out.reshape((field.shape[0], 3) + field.shape[1:])


def frame_ricci_transposed(ginv: np.ndarray, riem: np.ndarray):
    n = ginv.shape[0]
    ric = (ginv.reshape(n, 1, 16) @ riem.transpose(0, 1, 3, 2, 4).reshape(n, 16, 16)).reshape(n, 4, 4)
    return ric, np.einsum("nab,nab->n", ginv, ric)


def covariant_derivative_moveaxis(geom, cur, jet):
    """variation.frame_covariant_derivative with every slot moved first by moveaxis."""
    gamma, dgamma, rho = cur["gamma"], cur["dgamma"], cur["rho"]
    val, d1 = (np.asarray(j, float) for j in jet[:2])
    k = val.ndim - 1
    r = rho.reshape((-1,) + (1,) * k)

    def subtract_connection(out, terms):
        n = out.shape[0]
        for slot in range(k):
            corr = sum(
                g.reshape(n, 4, 16).swapaxes(1, 2) @ np.moveaxis(fld, 1 + slot, 1).reshape(n, 4, -1)
                for g, fld in terms
            )
            out -= np.moveaxis(corr.reshape(out.shape), 2, 2 + slot)

    xval = geom.xderiv(val)
    nabla = np.zeros((val.shape[0], 4) + val.shape[1:])
    nabla[:, :3] = r[:, None] * xval
    nabla[:, 3] = r * d1
    subtract_connection(nabla, [(gamma, val)])
    if len(jet) < 3:
        return (nabla,)
    d2 = np.asarray(jet[2], float)
    dnabla = np.zeros_like(nabla)
    dnabla[:, :3] = xval + r[:, None] * geom.xderiv(d1)
    dnabla[:, 3] = d1 + r * d2
    subtract_connection(dnabla, [(dgamma / rho, val), (gamma, d1)])
    return nabla, dnabla


def fh_dense_reshapes(h: np.ndarray, R: np.ndarray) -> np.ndarray:
    """variation.fh_dense reshaping R once per slot (a copy each for a strided R)."""
    n = h.shape[0]
    out = (h @ R.reshape(n, 4, 64)).reshape(R.shape)
    out += (h[:, None] @ R.reshape(n, 4, 4, 16)).reshape(R.shape)
    out += (h[:, None] @ R.reshape(n, 16, 4, 4)).reshape(R.shape)
    out += (R.reshape(n, 64, 4) @ h.swapaxes(1, 2)).reshape(R.shape)
    return out


def hessian11_transposed_adds(n2: np.ndarray) -> np.ndarray:
    """The double antisymmetrization of variation.hessian11 from n2 = nabla nabla h."""
    s = n2.transpose(0, 1, 3, 2, 4) + n2.transpose(0, 2, 4, 1, 3)
    s -= s.swapaxes(1, 2)
    return s.swapaxes(3, 4) - s


def hessian_trace_transposed(ginv: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """variation._hessian_trace with each slot pair moved first by a transposed reshape."""
    n = n2.shape[0]
    g = ginv.reshape(n, 1, 16)

    def contract(pair):
        rest = [slot for slot in range(4) if slot not in pair]
        m = n2.transpose(0, *(1 + slot for slot in (*pair, *rest))).reshape(n, 16, 16)
        return (g @ m).reshape(n, 4, 4)

    t, u, v, w = (contract(pair) for pair in ((0, 1), (1, 2), (0, 3), (2, 3)))
    x = t - u - v + w
    return -(x + x.swapaxes(1, 2))


# The variation layer's per-slice kernels as they were when each held its
# whole working set: the engine record to the end of the slice, the field's
# x-derivative and every slot's summed connection term to the end of a
# covariant derivative, n2 to the end of the Hessian and all four traces of n2
# at once.  The library drops each before the next temporary is formed and
# keeps every operand pair and order of adds, so the two agree bit for bit.


def covariant_derivative_summed(geom, cur, jet):
    """variation.frame_covariant_derivative summing each slot's connection
    terms with sum(), which copies the first term into 0 + t1."""
    from ahrenvol.collar import _permute_slots

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
        # slot moved first: one batched matmul per term
        n = out.shape[0]
        for slot in range(k):
            corr = sum(g.reshape(n, 4, 16).swapaxes(1, 2) @ slot_first(fld, slot) for g, fld in terms)
            out -= np.moveaxis(corr.reshape(out.shape), 2, 2 + slot)

    xval = geom.xderiv(val)
    nabla = np.empty((val.shape[0], 4) + val.shape[1:])
    np.multiply(r[:, None], xval, out=nabla[:, :3])
    np.multiply(r, d1, out=nabla[:, 3])
    subtract_connection(nabla, [(gamma, val)])
    if len(jet) < 3:
        return (nabla,)
    d2 = np.asarray(jet[2], float)
    dnabla = np.empty_like(nabla)
    np.multiply(r[:, None], geom.xderiv(d1), out=dnabla[:, :3])
    dnabla[:, :3] += xval
    np.multiply(r, d2, out=dnabla[:, 3])
    dnabla[:, 3] += d1
    subtract_connection(dnabla, [(dgamma / rho, val), (gamma, d1)])
    return nabla, dnabla


def _second_covariant_derivative_summed(geom, cur, jet) -> np.ndarray:
    nabla = covariant_derivative_summed(geom, cur, jet)
    return covariant_derivative_summed(geom, cur, nabla)[0]


def hessian11_holding_n2(geom, cur, jet) -> np.ndarray:
    """variation.hessian11 holding n2 and gathering both of its terms of s."""
    from ahrenvol.collar import _permute_slots

    n2 = _second_covariant_derivative_summed(geom, cur, jet)
    s = _permute_slots(n2, (0, 2, 1, 3))
    s += _permute_slots(n2, (1, 3, 0, 2))
    s -= _permute_slots(s, (1, 0, 2, 3))
    out = _permute_slots(s, (0, 1, 3, 2))
    out -= s
    return out


def hessian_trace_at_once(ginv: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """variation._hessian_trace forming the four traces T, U, V, W together."""
    from ahrenvol.collar import _permute_slots

    n = n2.shape[0]
    g = ginv.reshape(n, 1, 16)
    # n2 as the matrix [n, (pair), (other pair)]: n2 itself and its transposed
    # view over (0, 1) and (2, 3), a gather over (1, 2) and (0, 3)
    mat = n2.reshape(n, 16, 16)
    t, u, v, w = ((g @ m).reshape(n, 4, 4) for m in (
        mat, _permute_slots(n2, (1, 2, 0, 3)).reshape(n, 16, 16),
        _permute_slots(n2, (0, 3, 1, 2)).reshape(n, 16, 16), mat.swapaxes(1, 2)))
    x = t - u - v + w
    return -(x + x.swapaxes(1, 2))


def functional_gradient_whole_record(geom, rhos=None) -> dict:
    """variation.functional_gradient holding each slice's whole engine record."""
    from ahrenvol.variation import (_Z_NODES, _Z_REACH, _Z_SCALE_FLOOR, _frame_z,
                                    gradient_field)

    rhos = np.linspace(0.1, 0.5, 9) if rhos is None else np.atleast_1d(np.asarray(rhos, float))
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
        n2 = _second_covariant_derivative_summed(geom, cur, jet)
        # T2(w) = 1/2 c^2(w) g - c(w), from c in the ON frame, q^T c q
        q = cur["q"]
        c_on = q.swapaxes(1, 2) @ hessian_trace_at_once(cur["ginv"], n2) @ q
        t2_on = 0.5 * np.trace(c_on, axis1=1, axis2=2)[:, None, None] * np.eye(4) - c_on
        t2_on = 0.5 * (t2_on + t2_on.swapaxes(1, 2))
        e_on = f_on - 0.5 * t2_on
        e_norm = np.sqrt(np.einsum("nab,nab->n", e_on, e_on))
        return f_on, t2_on, e_on, slice_integral(geom, rho, e_norm, cur["dvol"])

    f_on, t2_on, e_on, norms = map_slices(slices, rhos, geom.npts)
    z_series = np.abs(z_basis.cardinal @ z_nodes)
    z_tail = float(np.max(z_series[-2:])) / max(_Z_SCALE_FLOOR, float(np.max(z_series)))
    fields = (rhos.size, -1, 4, 4)
    return {"rhos": rhos, "f": f_on.reshape(fields), "T2omega": t2_on.reshape(fields),
            "E": e_on.reshape(fields), "slice_norms": norms, "z_tail": z_tail}


def linearized_curvature_whole_record(geom, pert, rho) -> dict:
    """variation.linearized_curvature holding the whole engine record and
    forming R'h out of place."""
    from ahrenvol.variation import _embed_jet, fh_dense

    cur = curvature_in_frame(geom, rho)
    hjet = _embed_jet(pert, rho)
    h_on = to_on2(hjet[0], cur["q"])
    H_on = to_on4(hessian11_holding_n2(geom, cur, hjet), cur["q"])
    R_on, ric_on = cur["riem_on"], cur["invariants"]["ric"]
    fhr = fh_dense(h_on, R_on)
    riem_p = -0.25 * H_on + 0.25 * fhr
    c_h = np.einsum("niaib->nab", H_on)
    c_fhr = np.einsum("niaib->nab", fhr)
    comp = ric_on @ h_on
    comp = 0.5 * (comp + comp.transpose(0, 2, 1))
    ric_p = -0.25 * c_h - 0.25 * c_fhr + comp
    s_p = -0.25 * np.einsum("naa->n", c_h) - np.einsum("nab,nab->n", ric_on, h_on)
    return {"riem_p": riem_p, "ric_p": ric_p, "s_p": s_p, "hessian": H_on, "h_on": h_on,
            "background": cur}


def zg_einsum(z: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product z.g of a batch of (4, 4) fields with the identity."""
    eye = np.eye(4)
    return (
        np.einsum("...ac,bd->...abcd", z, eye)
        + np.einsum("...bd,ac->...abcd", z, eye)
        - np.einsum("...ad,bc->...abcd", z, eye)
        - np.einsum("...bc,ad->...abcd", z, eye)
    )


def hessian11_einsum(n2: np.ndarray) -> np.ndarray:
    """(DDt + DtD) from the second covariant derivative n2[n, a, b, i, j] as
    the sum of its eight index permutations, the reference for the double
    antisymmetrization in ahrenvol.variation.hessian11."""
    ddt = -(
        np.einsum("nacbd->nabcd", n2)
        - np.einsum("nadbc->nabcd", n2)
        - np.einsum("nbcad->nabcd", n2)
        + np.einsum("nbdac->nabcd", n2)
    )
    dtd = -(
        np.einsum("ncadb->nabcd", n2)
        - np.einsum("ncbda->nabcd", n2)
        - np.einsum("ndacb->nabcd", n2)
        + np.einsum("ndbca->nabcd", n2)
    )
    return ddt + dtd


def w2_einsum(R: np.ndarray, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|W|^2 with W = R - (s/24) g.g - (1/2) z.g, the KN products through zg_einsum."""
    eye = np.eye(4)
    gg = 2.0 * (np.einsum("ac,bd->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye))
    W = R - s[..., None, None, None, None] / 24.0 * gg - 0.5 * zg_einsum(z)
    return np.einsum("...abcd,...abcd->...", W, W)


# eps_abcd eps_efgh R_abef R_cdgh: eps against R, eps against that, then the
# pointwise pairing with R.  Each step is a 16x16-block tensordot; a fixed
# path skips the per-call path search.
_PFAFFIAN_PATH = ["einsum_path", (0, 2), (0, 2), (0, 1)]


def pfaffian_einsum(R: np.ndarray) -> np.ndarray:
    """Pfaffian density (1/16) eps eps R R / (8 pi^2) of a batch, as one einsum."""
    pff = np.einsum(
        "abcd,efgh,...abef,...cdgh->...", _EPS4, _EPS4, R, R, optimize=_PFAFFIAN_PATH
    )
    return pff / (16.0 * 8.0 * math.pi**2)


def frame_oracle(gbar: np.ndarray):
    """q, gbar^-1 and sqrt det g_rho of frame metrics, one LAPACK route each.

    q = L^-T from np.linalg.cholesky and np.linalg.inv, gbar^-1 from
    np.linalg.inv and the measure from np.linalg.det: the three routes that
    collar._on_frame replaces with one closed-form Cholesky factor.
    """
    q = np.zeros_like(gbar)
    q[:, :3, :3] = np.linalg.inv(np.linalg.cholesky(gbar[:, :3, :3])).swapaxes(1, 2)
    q[:, 3, 3] = 1.0
    return q, np.linalg.inv(gbar), np.sqrt(np.linalg.det(gbar[:, :3, :3]))


def symmetric_frame(gbar: np.ndarray):
    """A second orthonormal frame, with the layout of collar._on_frame.

    q = V diag(w^-1/2) V^T (+) 1 from the eigendecomposition g_rho = V diag(w) V^T:
    the symmetric inverse square root, which differs from the Cholesky frame by
    a pointwise rotation, so every invariant must come out the same in it.
    """
    w, v = np.linalg.eigh(gbar[:, :3, :3])
    q = np.zeros_like(gbar)
    q[:, :3, :3] = np.einsum("nab,nb,ncb->nac", v, 1.0 / np.sqrt(w), v)
    q[:, 3, 3] = 1.0
    return q, np.linalg.inv(gbar), np.sqrt(np.prod(w, axis=1))


def curvature_in_frame_einsum(geom, rho) -> dict:
    """The fields of collar.curvature_in_frame, from the kernels above.

    The frame is frame_oracle's.  The invariants are dfalg.batch_invariants of
    the reference riem_on, with |W|^2 recomputed through zg_einsum; 'pff' is
    pfaffian_einsum of riem_on.
    """
    gbar, _, _ = _gbar_blocks(geom, rho)
    gamma, dgamma = christoffels_einsum(geom, rho)
    rho = _rho_per_point(rho, gbar.shape[0])
    eye = np.eye(4)
    cfun = np.einsum("s,xt->xst", eye[3], eye) - np.einsum("t,xs->xst", eye[3], eye)
    cfun = cfun + rho * geom.cbar
    riem = frame_curvature_einsum(geom, gamma, dgamma, rho, cfun, gbar)
    q, ginv, dvol = frame_oracle(gbar)
    riem_on = to_on4_einsum(riem, q)
    inv = dict(dfalg.batch_invariants(riem_on))
    inv["w2"] = w2_einsum(riem_on, inv["s"], inv["z"])
    return {"gamma": gamma, "riem": riem, "q": q, "ginv": ginv, "dvol": dvol,
            "riem_on": riem_on, "invariants": inv, "pff": pfaffian_einsum(riem_on)}


def frame_ricci_einsum(ginv: np.ndarray, riem: np.ndarray):
    """Ricci ric_ab = ginv^sv riem_savb and s = ginv^ab ric_ab, the einsum form
    of collar.frame_ricci."""
    ric = np.einsum("nsv,nsavb->nab", ginv, riem)
    return ric, np.einsum("nab,nab->n", ginv, ric)


def curvature_bar_einsum(geom, rho) -> dict:
    """The fields of collar.curvature_bar, from the kernels above."""
    gbar, _, _ = _gbar_blocks(geom, rho)
    gamma_bar, dgamma_bar = christoffels_bar_einsum(geom, rho)
    riem = frame_curvature_einsum(geom, gamma_bar, dgamma_bar, 1.0, geom.cbar, gbar)
    return {"riem": riem, "ric": frame_ricci_einsum(frame_oracle(gbar)[1], riem)[0]}


# -- reference variation kernels -------------------------------------------------
# The einsum form of ahrenvol.variation's contractions, the reference for its
# batched-matmul kernels; the boundary derivative is spelled fft_xderiv.


def frame_covariant_derivative_einsum(geom, rho, jet, christ):
    """variation.frame_covariant_derivative with one einsum per slot and term:
    (nabla T)_{a s...} = X_a(T_{s...}) - sum_slots Gamma^u_{a s_k} T_{..u..}."""
    gamma, dgamma = christ
    val, d1 = (np.asarray(j, float) for j in jet[:2])
    k = val.ndim - 1
    rho_pt = _rho_per_point(rho, val.shape[0])
    r = rho_pt.reshape((-1,) + (1,) * k)

    def xderiv(fld):
        return np.stack([fft_xderiv(geom, fld, i) for i in range(3)], axis=1)

    def subtract_connection(out, terms):
        for slot in range(k):
            corr = sum(
                np.einsum("nuas,nu...->nas...", g, np.moveaxis(fld, 1 + slot, 1))
                for g, fld in terms
            )
            out -= np.moveaxis(corr, 2, 2 + slot)

    xval = xderiv(val)
    nabla = np.zeros((val.shape[0], 4) + val.shape[1:])
    nabla[:, :3] = r[:, None] * xval
    nabla[:, 3] = r * d1
    subtract_connection(nabla, [(gamma, val)])
    if len(jet) < 3:
        return (nabla,)
    d2 = np.asarray(jet[2], float)
    dnabla = np.zeros_like(nabla)
    dnabla[:, :3] = xval + r[:, None] * xderiv(d1)
    dnabla[:, 3] = d1 + r * d2
    subtract_connection(dnabla, [(dgamma / rho_pt, val), (gamma, d1)])
    return nabla, dnabla


def fh_dense_einsum(h: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Slotwise derivation F_h on a dense (2, 2) form, one einsum per slot."""
    return (
        np.einsum("nae,nebcd->nabcd", h, R)
        + np.einsum("nbe,naecd->nabcd", h, R)
        + np.einsum("nce,nabed->nabcd", h, R)
        + np.einsum("nde,nabce->nabcd", h, R)
    )


def _rcirc_einsum(z_on: np.ndarray, R_on: np.ndarray) -> np.ndarray:
    """R(z)_xy = sum z_wi R_xiyw, symmetrized."""
    rcirc = np.einsum("nwi,nxiyw->nxy", z_on, R_on)
    return 0.5 * (rcirc + rcirc.transpose(0, 2, 1))


def gradient_field_einsum(z_on: np.ndarray, R_on: np.ndarray, ric_on: np.ndarray) -> np.ndarray:
    """f = 1/2 |z|^2 g - R(z) - r o z, the einsum form of variation.gradient_field."""
    z2 = np.einsum("nab,nab->n", z_on, z_on)
    comp = np.einsum("nae,neb->nab", ric_on, z_on)
    comp = 0.5 * (comp + comp.transpose(0, 2, 1))
    return 0.5 * z2[:, None, None] * np.eye(4) - _rcirc_einsum(z_on, R_on) - comp


def zprime_display_stated(geom, pert, n_nodes: int = 64) -> float:
    """variation.zprime_display with the stated coefficient 4 on the
    curvature-action term: the display at coefficient 1 minus 3 int <R(z), h>,
    on the same Gauss nodes of ``pert.support`` and the same measure."""
    from ahrenvol.variation import _embed, _support, zprime_display

    nodes, wts = gauss_nodes([_support(pert)], n_nodes)

    def density(rho):
        cur = curvature_in_frame(geom, rho)
        rcirc = _rcirc_einsum(cur["invariants"]["z"], cur["riem_on"])
        h_on = to_on2(_embed(pert.value(rho, 0)), cur["q"])
        return slice_integral(geom, rho, np.einsum("nab,nab->n", rcirc, h_on), cur["dvol"], 4)

    rz_h = float(wts @ map_slices(density, nodes, geom.npts))
    return zprime_display(geom, pert, n_nodes) - 3.0 * rz_h


def fd_jet(samples, step: float):
    """Jet (f, f', f'') at the centre of a 5-point radial stencil.

    ``samples`` are f at rho + step * (-2, -1, 0, 1, 2); both derivatives are
    fourth-order accurate.  The caller keeps the stencil clear of rho = 0.
    """
    f_m2, f_m1, f_0, f_p1, f_p2 = samples
    d1 = (-f_p2 + 8 * f_p1 - 8 * f_m1 + f_m2) / (12.0 * step)
    d2 = (-f_p2 + 16 * f_p1 - 30 * f_0 + 16 * f_m1 - f_m2) / (12.0 * step**2)
    return f_0, d1, d2


def einstein_t2_on(omega_on: np.ndarray) -> np.ndarray:
    """T2(w) = 1/2 c^2(w) g - c(w) on dense ON (2, 2) fields, c(w) traced from
    the whole ON tensor."""
    cw = np.einsum("niaib->nab", omega_on)
    c2w = np.einsum("naa->n", cw)
    out = 0.5 * c2w[:, None, None] * np.eye(4) - cw
    return 0.5 * (out + out.transpose(0, 2, 1))


def _el_residual_on(geom, rhos, z_jet) -> np.ndarray:
    """E = f - 1/2 T2((DDt+DtD) z) on the slices ``rhos`` one rho at a time,
    (n_rho, npts, 4, 4) in ON components, with T2 from the whole Hessian
    (hessian11), moved by to_on4 and traced (:func:`einstein_t2_on`); the
    z-jet at rho is ``z_jet(rho, z)``, z the record's trace-free Ricci."""
    from ahrenvol.variation import _frame_z, gradient_field, hessian11

    e = []
    for rho in rhos:
        cur = curvature_in_frame(geom, rho)
        inv = cur["invariants"]
        f_on = gradient_field(inv["z"], cur["riem_on"], inv["ric"])
        omega_on = to_on4(hessian11(geom, cur, z_jet(rho, _frame_z(cur))), cur["q"])
        e.append(f_on - 0.5 * einstein_t2_on(omega_on))
    return np.stack(e)


def stencil_el_residual(geom, rhos, step: float = 0.005) -> np.ndarray:
    """E = f - 1/2 T2((DDt+DtD) z) of variation.functional_gradient, (n_rho,
    npts, 4, 4) in ON components, with the z-jet from :func:`fd_jet` over
    frame curvature slices at rho + step * (-2, ..., 2), one rho at a time."""
    from ahrenvol.variation import _frame_z

    def z_jet(rho, z):
        return fd_jet([_frame_z(frame_curvature(geom, rho + k * step)) for k in range(-2, 3)], step)

    return _el_residual_on(geom, rhos, z_jet)


def el_residual_whole_hessian(geom, rhos) -> np.ndarray:
    """E of variation.functional_gradient at ``rhos`` with its own Chebyshev
    z-jet, but T2 from the whole Hessian moved to the ON frame
    (:func:`_el_residual_on`) instead of its trace."""
    from ahrenvol import variation as v

    z_max = min(v._Z_REACH * float(np.max(rhos)), geom.rho_max)
    grid = chebyshev_rho_nodes(z_max, v._Z_NODES)
    nodes = np.stack([v._frame_z(frame_curvature(geom, r)) for r in grid]).reshape(grid.size, -1)
    basis = ChebyshevRhoBasis(grid, z_max)

    def z_jet(rho, z):
        return (z,) + tuple(d.reshape(z.shape) for d in basis.derivatives(nodes, rho, (1, 2)))

    return _el_residual_on(geom, rhos, z_jet)


# -- the flow's theta-gradient ----------------------------------------------------


def fd_flow_gradient(theta) -> np.ndarray:
    """Central differences of the flow functional, step 1e-5 per parameter.

    The reference for variation.z2_value_and_gradient's gradient: 2n calls
    of ``variation.z2_functional``.
    """
    from ahrenvol.variation import z2_functional

    step = 1e-5
    theta = np.asarray(theta, float)
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        probe = np.zeros_like(theta)
        probe[k] = step
        grad[k] = (z2_functional(theta + probe) - z2_functional(theta - probe)) / (2 * step)
    return grad


def _z2_quadrature(geom, segments, n_per: int) -> float:
    """Gauss quadrature of the int |z|^2 dvol slice integrals over ``segments``,
    |z|^2 from the curvature engine: variation.z2_functional's independent
    route on the radial family, whose Z comes from the warped-product closed
    form, and the functional that fd_zprime differentiates on any collar."""
    nodes, wts = gauss_nodes(segments, n_per)
    dens = map_slices(_invariant_density(geom, [lambda cur: cur["invariants"]["z2"]]), nodes, geom.npts)
    return float(sum(wts * dens[:, 0]))


def fd_zprime(geom, pert) -> float:
    """Central-difference oracle for the directional derivative of
    variation.zprime_display.

    The perturbation has compact support, so the finite parts of the two
    functionals differ by a plain integral over that support, taken as one
    48-node Gauss segment, on which the integrand is smooth.  The differences
    at steps t = 1e-3 and t/2 are combined by Richardson extrapolation.
    """
    from ahrenvol.variation import _support

    segment, t = [_support(pert)], 1e-3

    def z2_of(tt: float) -> float:
        return _z2_quadrature(PerturbedGeometry(geom, pert, tt), segment, 48)

    fd_t = (z2_of(t) - z2_of(-t)) / (2.0 * t)
    fd_half = (z2_of(t / 2.0) - z2_of(-t / 2.0)) / t
    return (4.0 * fd_half - fd_t) / 3.0


def _display_on(geom, pert, nodes, wts) -> float:
    """The first-variation display of variation.zprime_display integrated on
    (nodes, wts), assembled in the ON frame: f and z . g pair with h and its
    antisymmetrized Hessian (hessian11 and to_on4), which
    variation.linearized_curvature returns with the background record."""
    from ahrenvol.variation import gradient_field, linearized_curvature

    def density(rho):
        lin = linearized_curvature(geom, pert, rho)
        cur = lin["background"]
        inv = cur["invariants"]
        # fold the pure-trace part of f into the display's 1/2 |z|^2 tr h term
        val = np.einsum("nab,nab->n", gradient_field(inv["z"], cur["riem_on"], inv["ric"]),
                        lin["h_on"])
        val -= 0.125 * np.einsum("nabcd,nabcd->n", dfalg.kn_metric(inv["z"]), lin["hessian"])
        return slice_integral(geom, rho, val, cur["dvol"], 4)

    return float(wts @ map_slices(density, nodes, geom.npts))


def zprime_display_on(geom, pert, n_nodes: int = 64) -> float:
    """variation.zprime_display by the ON-frame route (:func:`_display_on`)
    on the same Gauss nodes of ``pert.support``."""
    from ahrenvol.variation import _support

    return _display_on(geom, pert, *gauss_nodes([_support(pert)], n_nodes))


def warped_radial(a_jet, rho) -> dict:
    """Curvature of the radial family from the warped-product closed form.

    With rho = e^-t, g = rho^-2 (drho^2 + A^2 g_{S^3}) is dt^2 + f^2 g_{S^3},
    f = A / rho, whose radial and tangential sectional curvatures are
    a = -f_tt / f and b = (1 - f_t^2) / f^2, with f_t = A/rho - A' and
    f_tt = A/rho - A' + rho A''.  Then s = 6 (a + b), |z|^2 = 3 (a - b)^2 and
    dvol = f^3 dt, and since W = 0 the Pfaffian density is
    8 pi^2 Pff = s^2/24 - 1/2 |z|^2.  ``a_jet`` is (A, A', A'') at ``rho``;
    numpy arithmetic only, so a complex jet gives the complex step.  s carries
    the sign of this formula, -12 on the hyperbolic ball; Pff is even in it.
    """
    a0, a1, a2 = a_jet
    f = a0 / rho
    f_t = f - a1
    f_tt = f_t + rho * a2
    a = -f_tt / f
    b = (1.0 - f_t**2) / f**2
    s, z2 = 6.0 * (a + b), 3.0 * (a - b) ** 2
    pff = (s**2 / 24.0 - 0.5 * z2) / (8.0 * math.pi**2)
    return {"a": a, "b": b, "s": s, "z2": z2, "pff": pff, "dvol": f**3}


def warped_volume_coefficients(profile) -> tuple:
    """(v2, v3) of the radial family from its profile's jet at rho = 0.

    g_rho = A^2 g_{S^3}, so the volume density ratio (det g_rho / det
    gamma)^(1/2) is A^3, and with A(0) = 1 and A'(0) = 0 it reads
    1 + 3/2 A''(0) rho^2 + A'''(0)/2 rho^3 + O(rho^4).
    """
    return 1.5 * profile.a(0.0, 2), 0.5 * profile.a(0.0, 3)


def _series_quotient(num, den, n: int) -> np.ndarray:
    """The first n Taylor coefficients of num / den at 0, den[0] != 0."""
    num = np.pad(np.asarray(num, float), (0, n))[:n]
    den = np.pad(np.asarray(den, float), (0, n))[:n]
    out = np.zeros(n)
    for k in range(n):
        out[k] = (num[k] - den[1 : k + 1] @ out[:k][::-1]) / den[0]
    return out


def warped_action_taylor(profile, n: int = 10) -> dict:
    """Taylor coefficients at rho = 0 of F = 2 pi^2 A^3 inv for the action
    integrands inv = s^2, |z|^2, |W|^2 and s^2/4 - 3|z|^2 (keys 's2', 'z2',
    'w2', 'action'): the radial action family is int_eps^2 rho^-4 F drho.

    By power-series arithmetic on :func:`warped_radial`'s closed form: with
    N_a = -(A - rho A' + rho^2 A'') A and N_b = rho^2 - (A - rho A')^2,
    a = N_a / A^2 and b = N_b / A^2, so A^3 (a +- b)^2 = (N_a +- N_b)^2 / A.
    """
    P = np.polynomial.polynomial
    coef = profile.coef
    rho2 = [0.0, 0.0, 1.0]
    edge = P.polysub(coef, P.polymul([0.0, 1.0], P.polyder(coef)))
    num_a = -P.polymul(P.polyadd(edge, P.polymul(rho2, P.polyder(coef, 2))), coef)
    num_b = P.polysub(rho2, P.polymul(edge, edge))
    s2, z2 = (2.0 * math.pi**2 * c * _series_quotient(P.polymul(p, p), coef, n)
              for c, p in ((36.0, P.polyadd(num_a, num_b)), (3.0, P.polysub(num_a, num_b))))
    return {"s2": s2, "z2": z2, "w2": np.zeros(n), "action": 0.25 * s2 - 3.0 * z2}


def warped_action_integrands(profile, rho) -> dict:
    """F = 2 pi^2 A^3 inv at rho for the keys of :func:`warped_action_taylor`,
    from :func:`warped_radial`."""
    w = warped_radial([profile.a(rho, k) for k in range(3)], rho)
    weight = 2.0 * math.pi**2 * profile.a(rho) ** 3
    s2 = w["s"] ** 2
    return {"s2": weight * s2, "z2": weight * w["z2"], "w2": 0.0 * weight,
            "action": weight * (0.25 * s2 - 3.0 * w["z2"])}


def _warped_z2(a_jet, nodes, wts):
    """2 pi^2 sum_i w_i |z|^2 f^3 / rho_i, Z's rule in drho / rho = -dt."""
    w = warped_radial(a_jet, nodes)
    return 2.0 * math.pi**2 * np.sum(wts * w["z2"] * w["dvol"] / nodes)


def warped_flow_value_and_gradient(theta):
    """(Z, dZ/dtheta) of variation.z2_functional from :func:`warped_radial` on
    Z's own nodes; dZ/dtheta_k is the complex step (h = 1e-30) along
    collar.profile_basis_jet, which has no subtraction to lose digits to."""
    from ahrenvol.collar import perturbed_profile, profile_basis_jet
    from ahrenvol.variation import _FLOW_NODES, _FLOW_SEGMENTS

    theta = np.asarray(theta, float)
    profile = perturbed_profile(theta)
    nodes, wts = gauss_nodes(_FLOW_SEGMENTS, _FLOW_NODES)
    a_jet = np.stack([profile.a(nodes, order) for order in range(3)])
    step = 1e-30
    grad = [_warped_z2(a_jet + 1j * step * b, nodes, wts).imag / step
            for b in profile_basis_jet(theta.size, nodes)]
    return float(_warped_z2(a_jet, nodes, wts)), np.array(grad)


def display_flow_gradient(theta) -> np.ndarray:
    """dZ/dtheta_k as the zprime_display integrand along each direction in turn.

    At Z's own Gauss nodes, m_k = 2 A rho^(2+k) (1 - rho/2)^2 g_{S^3} is a
    ``PolynomialPerturbation`` built by ``Polynomial`` arithmetic, and the
    display along it is assembled in the ON frame (:func:`_display_on`): n
    Hessians per node, against the closed form's forward derivative in
    variation.z2_value_and_gradient.
    """
    from ahrenvol.collar import PolynomialPerturbation, perturbed_profile
    from ahrenvol.variation import _FLOW_NODES, _FLOW_SEGMENTS

    theta = np.asarray(theta, float)
    geom = RadialGeometry(perturbed_profile(theta))
    a_poly = perturbed_profile_polynomial(theta)
    nodes, wts = gauss_nodes(_FLOW_SEGMENTS, _FLOW_NODES)
    grad = np.zeros(theta.size)
    for k in range(theta.size):
        phi = 2.0 * a_poly * Polynomial([0.0] * (2 + k) + [1.0]) * Polynomial([1.0, -0.5]) ** 2
        pert = PolynomialPerturbation({p: c * np.eye(3)[None] for p, c in enumerate(phi.coef)})
        grad[k] = _display_on(geom, pert, nodes, wts)
    return grad
