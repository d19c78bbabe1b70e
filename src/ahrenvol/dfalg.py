"""Pointwise multilinear algebra of double forms over R^n.

A double form of bidegree (p, q) is an element of Lambda^p x Lambda^q over an
n-dimensional inner-product space, with components taken in a fixed
orthonormal frame.  Storage is compressed: only strictly increasing
multi-indices are kept, and general components are recovered by expanding with
permutation signs.

Conventions (pinned once, used everywhere):

* wedge evaluation carries no 1/k! factor, so ``(a^b)(x^y) = a(x)b(y) - a(y)b(x)``;
* ``inner`` makes the increasing-multi-index basis orthonormal, which is the
  unique normalization for which ``<g w1, w2> = <w1, c w2>`` holds at every
  bidegree; ``inner_full`` is the full index sum over all tuples (the two
  differ by p! q!) and is the convention behind tensor norms like |W|^2;
* the contraction ``c`` traces one slot from each factor against the frame,
  so ``contract(metric(n)) == n``;
* curvature sign: constant-curvature hyperbolic space has
  ``R = 1/2 kn(g, g)`` and scalar curvature +12 at n = 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "DoubleForm",
    "SymBilinear",
    "CurvatureDecomposition",
    "metric_g",
    "unit_scalar",
    "zero_form",
    "kn_product",
    "contract",
    "hodge_star",
    "inner",
    "inner_full",
    "f_h",
    "bilinear_algebra",
    "einstein_t2",
    "pfaffian_density",
    "decompose_curvature",
    "hyperbolic_curvature",
    "batch_invariants",
]


@lru_cache(maxsize=None)
def _combos(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(n), p))


@lru_cache(maxsize=None)
def _combo_pos(n: int, p: int) -> dict[tuple[int, ...], int]:
    return {I: k for k, I in enumerate(_combos(n, p))}


def _insert_sign(j: int, I: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and sorted result of e^j ^ e^I; None if j already occurs."""
    if j in I:
        return None
    k = sum(1 for i in I if i < j)
    return (-1) ** k, tuple(sorted(I + (j,)))


def _merge_sign(I: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and sorted result of e^I ^ e^J; None on a repeated index."""
    if set(I) & set(J):
        return None
    merged = I + J
    # count inversions of the concatenation
    inv = sum(1 for a, b in itertools.combinations(merged, 2) if a > b)
    return (-1) ** inv, tuple(sorted(merged))


@dataclass(frozen=True)
class DoubleForm:
    """Element of D^{p,q} with compressed antisymmetric storage."""

    n: int
    p: int
    q: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (0 <= self.p <= self.n and 0 <= self.q <= self.n):
            raise ValueError("degree exceeds dimension")
        want = (math.comb(self.n, self.p), math.comb(self.n, self.q))
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape != want:
            raise ValueError(f"coefficient array must have shape {want}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zeros(cls, n: int, p: int, q: int) -> "DoubleForm":
        return cls(n, p, q, np.zeros((math.comb(n, p), math.comb(n, q))))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "DoubleForm") -> "DoubleForm":
        self._check_match(other)
        return DoubleForm(self.n, self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other: "DoubleForm") -> "DoubleForm":
        self._check_match(other)
        return DoubleForm(self.n, self.p, self.q, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "DoubleForm":
        return DoubleForm(self.n, self.p, self.q, self.coeffs * float(a))

    __rmul__ = __mul__

    def __neg__(self) -> "DoubleForm":
        return self * -1.0

    def _check_match(self, other: "DoubleForm") -> None:
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ValueError("bidegree or dimension mismatch")

    def transpose(self) -> "DoubleForm":
        """Swap the two factor groups (defined for p == q)."""
        if self.p != self.q:
            raise ValueError("transpose needs p == q")
        return DoubleForm(self.n, self.p, self.q, self.coeffs.T.copy())

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        return self.p == self.q and bool(
            np.max(np.abs(self.coeffs - self.coeffs.T), initial=0.0) <= tol
        )

    def norm(self) -> float:
        """Tensor norm in the full-index-sum convention (see inner_full)."""
        return math.sqrt(inner_full(self, self))

    def component(self, I: tuple[int, ...], J: tuple[int, ...]) -> float:
        """Component at arbitrary (possibly unordered) index tuples."""
        if len(set(I)) != len(I) or len(set(J)) != len(J):
            return 0.0
        sI = _merge_sign((), tuple(I))
        sJ = _merge_sign((), tuple(J))
        if sI is None or sJ is None:
            return 0.0
        (a, Is), (b, Js) = sI, sJ
        return a * b * self.coeffs[_combo_pos(self.n, self.p)[Is], _combo_pos(self.n, self.q)[Js]]

    def to_dense(self) -> np.ndarray:
        """Expand to a dense array of shape (n,)*p + (n,)*q."""
        n, p, q = self.n, self.p, self.q
        out = np.zeros((n,) * (p + q))
        for I in itertools.permutations(range(n), p):
            for J in itertools.permutations(range(n), q):
                out[I + J] = self.component(I, J)
        return out

    @classmethod
    def from_dense(cls, n: int, p: int, q: int, dense: np.ndarray) -> "DoubleForm":
        coeffs = np.zeros((math.comb(n, p), math.comb(n, q)))
        for a, I in enumerate(_combos(n, p)):
            for b, J in enumerate(_combos(n, q)):
                coeffs[a, b] = dense[I + J]
        return cls(n, p, q, coeffs)


@dataclass(frozen=True)
class SymBilinear:
    """Symmetric bilinear form in the fixed orthonormal frame."""

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        ent = np.array(self.entries, dtype=float)
        if ent.shape != (self.n, self.n):
            raise ValueError("entries must be n x n")
        if np.max(np.abs(ent - ent.T), initial=0.0) > 1e-12 * max(
            1.0, float(np.max(np.abs(ent)))
        ):
            raise ValueError("entries must be symmetric")
        ent = 0.5 * (ent + ent.T)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def identity(cls, n: int) -> "SymBilinear":
        return cls(n, np.eye(n))

    @classmethod
    def zeros(cls, n: int) -> "SymBilinear":
        return cls(n, np.zeros((n, n)))

    def to_doubleform(self) -> DoubleForm:
        return DoubleForm(self.n, 1, 1, self.entries.copy())

    @classmethod
    def from_doubleform(cls, w: DoubleForm) -> "SymBilinear":
        if (w.p, w.q) != (1, 1):
            raise ValueError("expected bidegree (1, 1)")
        return cls(w.n, 0.5 * (w.coeffs + w.coeffs.T))

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __add__(self, other: "SymBilinear") -> "SymBilinear":
        return SymBilinear(self.n, self.entries + other.entries)

    def __sub__(self, other: "SymBilinear") -> "SymBilinear":
        return SymBilinear(self.n, self.entries - other.entries)

    def __mul__(self, a: float) -> "SymBilinear":
        return SymBilinear(self.n, self.entries * float(a))

    __rmul__ = __mul__


@dataclass(frozen=True)
class CurvatureDecomposition:
    """Orthogonal split R = (s/24) g.g + (1/2) z.g + w at n = 4."""

    s: float
    z: SymBilinear
    w: DoubleForm

    def reassemble(self) -> DoubleForm:
        g = metric_g(self.z.n)
        gg = kn_product(g, g)
        zg = kn_product(self.z.to_doubleform(), g)
        return (self.s / 24.0) * gg + 0.5 * zg + self.w


# -- constructors ----------------------------------------------------------


def unit_scalar(n: int) -> DoubleForm:
    return DoubleForm(n, 0, 0, np.ones((1, 1)))


def zero_form(n: int, p: int, q: int) -> DoubleForm:
    return DoubleForm.zeros(n, p, q)


def metric_g(n: int) -> DoubleForm:
    return DoubleForm(n, 1, 1, np.eye(n))


def hyperbolic_curvature(n: int) -> DoubleForm:
    """Curvature of constant-curvature hyperbolic space, R = 1/2 kn(g, g)."""
    g = metric_g(n)
    return 0.5 * kn_product(g, g)


# -- core operators --------------------------------------------------------


def kn_product(a: DoubleForm, b: DoubleForm) -> DoubleForm:
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
    return DoubleForm(n, p, q, out)


def contract(w: DoubleForm) -> DoubleForm | float:
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
    return DoubleForm(n, p, q, out)


def contract_k(w: DoubleForm, k: int) -> DoubleForm | float:
    out: DoubleForm | float = w
    for _ in range(k):
        out = contract(out)  # type: ignore[arg-type]
    return out


def hodge_star(w: DoubleForm) -> DoubleForm:
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
    return DoubleForm(n, p, q, out)


def inner(w1: DoubleForm, w2: DoubleForm) -> float:
    """Inner product making the increasing-multi-index basis orthonormal.

    This is the pairing for which the adjointness ``<g w1, w2> = <w1, c w2>``
    holds exactly at every bidegree.  It agrees with the full index sum on
    bidegrees (p, 1-or-0) but differs by p! q! in general; use
    :func:`inner_full` for tensor-norm conventions such as |W|^2.
    """
    w1._check_match(w2)
    return float(np.sum(w1.coeffs * w2.coeffs))


def inner_full(w1: DoubleForm, w2: DoubleForm) -> float:
    """Full-index-sum pairing, sum over all (not just increasing) tuples."""
    w1._check_match(w2)
    scale = math.factorial(w1.p) * math.factorial(w1.q)
    return scale * float(np.sum(w1.coeffs * w2.coeffs))


def f_h(h: SymBilinear, w: DoubleForm) -> DoubleForm:
    """Derivation attached to h, acting slot-wise on both factor groups.

    On curvature-type (2, 2) forms this reproduces the four-term expression
    built from h(R(X,Y)Z, W); on other bidegrees it is the derivation induced
    by the endomorphism of h, which keeps both the product rule
    F_h(w t) = F_h(w) t + w F_h(t) and self-adjointness in the inner product.
    """
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
    return DoubleForm(n, w.p, w.q, out)


# -- curvature-level operations --------------------------------------------


def _require_curvature_type(R: DoubleForm) -> None:
    if (R.p, R.q) != (2, 2):
        raise ValueError("not curvature-type")
    if not R.is_symmetric(tol=1e-10 * max(1.0, float(np.max(np.abs(R.coeffs))))):
        raise ValueError("not curvature-type")


def bilinear_algebra(z: SymBilinear, R: DoubleForm):
    """Return {'rcirc': R(z) ring-composition, 'compose': r o z (symmetrized)}.

    rcirc(x, y) = sum_i z(R(x, x_i) y, x_i); compose is the symmetrized
    endomorphism product of the Ricci tensor with z.
    """
    _require_curvature_type(R)
    if z.n != R.n:
        raise ValueError("dimension mismatch")
    dense = R.to_dense()  # R[s,t,u,v] = R(X_s^X_t, X_u^X_v)
    # rcirc_{xy} = sum_{i,w} z_{wi} R_{x i y w}
    rcirc = np.einsum("wi,xiyw->xy", z.entries, dense)
    rcirc = 0.5 * (rcirc + rcirc.T)
    ric = np.einsum("iaib->ab", dense)
    comp = ric @ z.entries
    comp = 0.5 * (comp + comp.T)
    return {
        "rcirc": SymBilinear(z.n, rcirc),
        "compose": SymBilinear(z.n, comp),
    }


def einstein_t2(w: DoubleForm) -> SymBilinear:
    """Generalized Einstein tensor T2(w) = 1/2 c^2(w) g - c(w) for w in C^2."""
    if (w.p, w.q) != (2, 2):
        raise ValueError("expected bidegree (2, 2)")
    if not w.is_symmetric(tol=1e-10 * max(1.0, float(np.max(np.abs(w.coeffs))))):
        raise ValueError("asymmetric input")
    cw = contract(w)
    c2w = contract(cw)  # type: ignore[arg-type]
    ent = 0.5 * c2w * np.eye(w.n) - cw.coeffs  # type: ignore[union-attr]
    return SymBilinear(w.n, 0.5 * (ent + ent.T))


def pfaffian_density(R: DoubleForm) -> float:
    """Chern-Gauss-Bonnet density against dvol: c^4(R.R) / ((2 pi)^2 4! 2!)."""
    if R.n != 4:
        raise ValueError("Pfaffian density implemented for n=4 only")
    _require_curvature_type(R)
    RR = kn_product(R, R)
    c4 = contract_k(RR, 4)
    return float(c4) / ((2.0 * math.pi) ** 2 * 48.0)


def decompose_curvature(R: DoubleForm) -> CurvatureDecomposition:
    """Split into scalar, trace-free Ricci and Weyl parts (n = 4)."""
    if R.n != 4:
        raise ValueError("decomposition implemented for n=4 only")
    _require_curvature_type(R)
    g = metric_g(4)
    r = contract(R)
    s = contract(r)  # type: ignore[arg-type]
    z = SymBilinear(4, r.coeffs - (s / 4.0) * np.eye(4))  # type: ignore[union-attr]
    w = R - (s / 24.0) * kn_product(g, g) - 0.5 * kn_product(z.to_doubleform(), g)
    return CurvatureDecomposition(s=float(s), z=z, w=w)


# -- vectorized fast path ---------------------------------------------------

_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _inv = sum(1 for _a, _b in itertools.combinations(_perm, 2) if _a > _b)
    _EPS4[_perm] = (-1.0) ** _inv

# eps_abcd eps_efgh R_abef R_cdgh as a full-index matrix pairing: with E the
# (ab, cd) reshape of eps (symmetric) and R viewed as the (ab, ef) matrix, the
# sum over all 256^2 index pairs is <E R E, R>.  No antisymmetry of R is
# assumed, which a 6x6 bivector form would need.
_EPS4_MATRIX = _EPS4.reshape(16, 16)


def batch_invariants(R: np.ndarray) -> dict[str, np.ndarray]:
    """Scalar invariants of a batch of orthonormal-frame curvature tensors.

    ``R`` has shape (..., 4, 4, 4, 4) with R[..., s, t, u, v] the components
    of a curvature-type double form.  Returns s, |r|^2, |z|^2, |W|^2, |R|^2
    and the Pfaffian density, each of shape (...,).  This mirrors the
    DoubleForm operations above entry for entry (tested against them) but
    vectorizes over grid points.
    """
    if R.shape[-4:] != (4, 4, 4, 4):
        raise ValueError("expected trailing shape (4, 4, 4, 4)")
    ric = np.einsum("...iaib->...ab", R)
    s = np.einsum("...aa->...", ric)
    r2 = np.einsum("...ab,...ab->...", ric, ric)
    z = ric - s[..., None, None] / 4.0 * np.eye(4)
    z2 = np.einsum("...ab,...ab->...", z, z)
    # Weyl part: W = R - (s/24) g.g - (1/2) z.g = R - u.g with u = z/2 + (s/24) g,
    # u.g = u_ac g_bd + u_bd g_ac - u_ad g_bc - u_bc g_ad, one slot pair at a time
    u = 0.5 * z + s[..., None, None] / 24.0 * np.eye(4)
    W = R.copy()
    for b in range(4):
        W[..., :, b, :, b] -= u
        W[..., b, :, b, :] -= u
        W[..., :, b, b, :] += u
        W[..., b, :, :, b] += u
    w2 = np.einsum("...abcd,...abcd->...", W, W)
    R2 = np.einsum("...abcd,...abcd->...", R, R)
    # Pfaffian density: (1/16) eps eps R R / (8 pi^2)
    mat = R.reshape(R.shape[:-4] + (16, 16))
    pff = np.einsum("...ij,...ij->...", _EPS4_MATRIX @ mat @ _EPS4_MATRIX, mat)
    pff = pff / (16.0 * 8.0 * math.pi**2)
    return {"s": s, "r2": r2, "z2": z2, "w2": w2, "R2": R2, "pff": pff, "ric": ric, "z": z}
