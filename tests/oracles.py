"""Independent brute-force oracles for the double-form algebra and the collar families.

Everything for the algebra works on *dense* component arrays of shape
(n,)*p + (n,)*q and uses naive full-index loops (no compressed storage, no
shared sign helpers), so agreement with ahrenvol.dfalg is a genuine
two-implementation check.  Permutation signs are computed from determinants
of permutation matrices.  The eps-families of ahrenvol.renorm are checked
against adaptive quadrature, one scalar rho at a time, and their finite
parts against Taylor subtraction.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

from ahrenvol.collar import NonConvergence


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
