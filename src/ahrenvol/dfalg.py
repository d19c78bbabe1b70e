"""Pointwise multilinear algebra of double forms over R^n.

A double form of bidegree (p, q) is an element of Lambda^p x Lambda^q over an
n-dimensional inner-product space, with components taken in a fixed
orthonormal frame.  Storage is compressed: only strictly increasing
multi-indices are kept, and general components are recovered by expanding with
permutation signs.

The operators do not recompute permutation signs on each call.  Each one
looks up a sign and index table, built once per (n, degree) on first use
(``functools.lru_cache``; the arrays are read-only), and applies it with array
operations.  The Kulkarni-Nomizu product, the contraction and F_h gather the
signed terms of every output entry and sum them in the order of the per-call
loops the tables replace; the Hodge star, ``to_dense`` and ``from_dense`` are
signed gathers.  ``tests/oracles.py`` keeps those loops as the reference, and
the two agree exactly.

Stacks.  A ``DoubleForm`` may hold a stack of forms of one bidegree, with
coefficients of shape (..., C(n, p), C(n, q)), and a ``SymBilinear`` a stack
of entries of shape (..., n, n).  The checks (shape, symmetry, curvature
type) apply to each form with that form's own tolerance.  ``kn_product``,
``contract``, ``hodge_star``, ``inner``, ``inner_full``, ``f_h``,
``to_dense``, ``from_dense``, ``bilinear_algebra`` and ``DoubleForm`` scalar
multiplication (by one scalar per form) broadcast over the leading axes, and each form of a
stack gets the bits it gets alone: every entry still sums its terms in loop
order, and ``inner`` sums each form's products as one row.  There is one code
path; a single form is a stack with no leading axes, and it still contracts
to, and pairs into, a ``float``, where a stack gives an array.  The other
operations (``component``, ``trace``, the curvature-level operations) take
single forms.

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
    "kn_product",
    "contract",
    "contract_k",
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
    "batch_pfaffian",
    "kn_metric",
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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached tables read-only: every caller shares the same arrays."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _sum_in_order(*parts: np.ndarray) -> np.ndarray:
    """Sum the terms on axis -3 of each part, strictly left to right, part after part.

    This is the order in which the loop forms add them.  ``np.sum`` pairs
    terms up when the reduction is contiguous, which changes the rounding; a
    running sum does not, and it keeps no partial sums.  No terms sum to zero.
    """
    total = None
    for part in parts:
        for term in np.moveaxis(part, -3, 0):
            if total is None:
                total = term.copy()
            else:
                total += term
    if total is None:
        return np.zeros(parts[0].shape[:-3] + parts[0].shape[-2:])
    return total


def _form_max(arr: np.ndarray) -> np.ndarray:
    """Largest |entry| of each form of a stack, shape (...,)."""
    return np.max(np.abs(arr), axis=(-2, -1), initial=0.0)


def _per_form(value: np.ndarray) -> np.ndarray | float:
    """A per-form scalar: a ``float`` for a single form, else the array."""
    return float(value) if np.ndim(value) == 0 else value


@lru_cache(maxsize=None)
def _wedge_table(n: int, p: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, sign), shape (C(p + r, p), C(n, p + r)).

    Column m lists the ways to write e^M, the m-th multi-index of degree
    p + r, as sign * e^I ^ e^K, with I and K at positions left and right among
    the increasing multi-indices of degrees p and r, in increasing I.
    """
    shape = (math.comb(p + r, p), math.comb(n, p + r))
    left, right = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.intp)
    sign = np.zeros(shape)
    pos_p, pos_r = _combo_pos(n, p), _combo_pos(n, r)
    for m, M in enumerate(_combos(n, p + r)):
        for u, I in enumerate(itertools.combinations(M, p)):
            K = tuple(i for i in M if i not in I)
            merged = _merge_sign(I, K)[0]  # type: ignore[index]
            left[u, m], right[u, m], sign[u, m] = pos_p[I], pos_r[K], merged
    return _frozen(left, right, sign)


@lru_cache(maxsize=None)
def _insert_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign), shape (n, C(n, p)): e^j ^ e^I = sign * e^(combo index).

    The sign is 0, and the index 0, where j already occurs in I.
    """
    pos = _combo_pos(n, p + 1)
    index = np.zeros((n, math.comb(n, p)), dtype=np.intp)
    sign = np.zeros((n, math.comb(n, p)))
    for a, I in enumerate(_combos(n, p)):
        for j in range(n):
            inserted = _insert_sign(j, I)
            if inserted is not None:
                sign[j, a], index[j, a] = inserted[0], pos[inserted[1]]
    return _frozen(index, sign)


@lru_cache(maxsize=None)
def _complement_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, sign), shape (C(n, n - p),): the star of e^I is sign * e^(I^c).

    Entry c belongs to the c-th complement multi-index and holds the position
    of its complement I among the degree-p combinations.
    """
    pos = _combo_pos(n, p)
    full = tuple(range(n))
    source = np.zeros(math.comb(n, p), dtype=np.intp)
    sign = np.zeros(math.comb(n, p))
    for c, Ic in enumerate(_combos(n, n - p)):
        I = tuple(i for i in full if i not in Ic)
        sign[c], source[c] = _merge_sign(I, Ic)[0], pos[I]  # type: ignore[index]
    return _frozen(source, sign)


@lru_cache(maxsize=None)
def _expand_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(position, sign), shape (n**p,), over all index tuples in C order.

    A tuple with distinct entries is sign * its sorted combination; a tuple
    with a repeated index has sign 0.
    """
    pos = _combo_pos(n, p)
    position = np.zeros(n**p, dtype=np.intp)
    sign = np.zeros(n**p)
    for t, I in enumerate(itertools.product(range(n), repeat=p)):
        merged = _merge_sign((), I) if len(set(I)) == p else None
        if merged is not None:
            sign[t], position[t] = merged[0], pos[merged[1]]
    return _frozen(position, sign)


@lru_cache(maxsize=None)
def _derivation_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h_index, source, sign), shape (p * n, C(n, p)).

    Row slot * n + j, column a: replacing the slot-th index i of the a-th
    multi-index I by j gives sign * e^(source), weighted by h[i, j], which is
    entry h_index = i * n + j of the flattened h.  The sign is 0 where j
    already occurs in the rest of I.
    """
    shape = (p * n, math.comb(n, p))
    h_index, source = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.intp)
    sign = np.zeros(shape)
    pos = _combo_pos(n, p)
    for a, I in enumerate(_combos(n, p)):
        for slot, i in enumerate(I):
            rest = I[:slot] + I[slot + 1 :]
            for j in range(n):
                k = slot * n + j
                h_index[k, a] = i * n + j
                inserted = _insert_sign(j, rest)
                if inserted is not None:
                    # (-1)^slot is the sign of removing slot `slot` from I
                    sign[k, a], source[k, a] = inserted[0] * (-1) ** slot, pos[inserted[1]]
    return _frozen(h_index, source, sign)


@lru_cache(maxsize=None)
def _dense_index(n: int, p: int, q: int) -> np.ndarray:
    """Flat C-order position in (n,)*(p + q) of each increasing (I, J), shape (C(n,p), C(n,q))."""

    def flat(k: int) -> np.ndarray:
        return np.array([sum(i * n ** (k - 1 - s) for s, i in enumerate(I)) for I in _combos(n, k)],
                        dtype=np.intp)

    return _frozen(flat(p)[:, None] * n**q + flat(q)[None, :])[0]


@dataclass(frozen=True)
class DoubleForm:
    """Element of D^{p,q} with compressed antisymmetric storage.

    ``coeffs`` has shape (C(n,p), C(n,q)), or (..., C(n,p), C(n,q)) for a
    stack of forms of one bidegree.
    """

    n: int
    p: int
    q: int
    coeffs: np.ndarray = field(repr=False)
    # an array of per-form scalars times a form defers to __rmul__
    __array_ufunc__ = None

    def __post_init__(self):
        if not (0 <= self.p <= self.n and 0 <= self.q <= self.n):
            raise ValueError("degree exceeds dimension")
        want = (math.comb(self.n, self.p), math.comb(self.n, self.q))
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape[-2:] != want or arr.ndim < 2:
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

    def __mul__(self, a) -> "DoubleForm":
        """Times one scalar, or one scalar per form of a stack."""
        scale = np.asarray(a, dtype=float)[..., None, None]
        return DoubleForm(self.n, self.p, self.q, self.coeffs * scale)

    __rmul__ = __mul__

    def __neg__(self) -> "DoubleForm":
        return self * -1.0

    def _check_match(self, other: "DoubleForm") -> None:
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ValueError("bidegree or dimension mismatch")

    def is_symmetric(self, tol=1e-12) -> bool:
        """Whether every form is symmetric within ``tol`` (one value, or one per form)."""
        return self.p == self.q and bool(
            np.all(_form_max(self.coeffs - np.swapaxes(self.coeffs, -1, -2)) <= tol)
        )

    def component(self, I: tuple[int, ...], J: tuple[int, ...]) -> float:
        """Component of a single form at arbitrary (possibly unordered) index tuples."""
        if len(set(I)) != len(I) or len(set(J)) != len(J):
            return 0.0
        sI = _merge_sign((), tuple(I))
        sJ = _merge_sign((), tuple(J))
        if sI is None or sJ is None:
            return 0.0
        (a, Is), (b, Js) = sI, sJ
        return a * b * self.coeffs[_combo_pos(self.n, self.p)[Is], _combo_pos(self.n, self.q)[Js]]

    def to_dense(self) -> np.ndarray:
        """Expand to a dense array of shape (..., ) + (n,)*p + (n,)*q."""
        pos_p, sign_p = _expand_table(self.n, self.p)
        pos_q, sign_q = _expand_table(self.n, self.q)
        dense = np.outer(sign_p, sign_q) * self.coeffs[..., pos_p[:, None], pos_q[None, :]]
        return dense.reshape(self.coeffs.shape[:-2] + (self.n,) * (self.p + self.q))

    @classmethod
    def from_dense(cls, n: int, p: int, q: int, dense: np.ndarray) -> "DoubleForm":
        """Read the increasing-index components of dense arrays of shape (...,) + (n,)*(p+q)."""
        dense = np.asarray(dense)
        lead = dense.ndim - (p + q)
        if lead < 0 or dense.shape[lead:] != (n,) * (p + q):
            raise ValueError(f"dense array must end in shape {(n,) * (p + q)}")
        return cls(n, p, q, dense.reshape(dense.shape[:lead] + (-1,))[..., _dense_index(n, p, q)])


@dataclass(frozen=True)
class SymBilinear:
    """Symmetric bilinear form in the fixed orthonormal frame.

    ``entries`` has shape (n, n), or (..., n, n) for a stack of forms.
    """

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        ent = np.array(self.entries, dtype=float)
        if ent.shape[-2:] != (self.n, self.n) or ent.ndim < 2:
            raise ValueError("entries must be n x n")
        ent_t = np.swapaxes(ent, -1, -2)
        if np.any(_form_max(ent - ent_t) > 1e-12 * np.maximum(1.0, _form_max(ent))):
            raise ValueError("entries must be symmetric")
        ent = 0.5 * (ent + ent_t)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def identity(cls, n: int) -> "SymBilinear":
        return cls(n, np.eye(n))

    def to_doubleform(self) -> DoubleForm:
        return DoubleForm(self.n, 1, 1, self.entries.copy())

    @classmethod
    def from_doubleform(cls, w: DoubleForm) -> "SymBilinear":
        if (w.p, w.q) != (1, 1):
            raise ValueError("expected bidegree (1, 1)")
        return cls(w.n, 0.5 * (w.coeffs + np.swapaxes(w.coeffs, -1, -2)))

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
    left_p, right_p, sign_p = (t[:, None, :, None] for t in _wedge_table(n, a.p, b.p))
    left_q, right_q, sign_q = (t[None, :, None, :] for t in _wedge_table(n, a.q, b.q))
    # terms (..., Tp, Tq, Cp, Cq): each entry's Tp * Tq terms, in loop order
    terms = sign_p * sign_q * a.coeffs[..., left_p, left_q] * b.coeffs[..., right_p, right_q]
    out = _sum_in_order(terms.reshape(terms.shape[:-4] + (-1,) + terms.shape[-2:]))
    return DoubleForm(n, p, q, out)


def contract(w: DoubleForm) -> DoubleForm | np.ndarray | float:
    """Trace one slot from each factor against the orthonormal frame.

    Maps D^{p+1,q+1} -> D^{p,q}; a (0, 0) result is returned as a float, or
    as an array of one value per form for a stack.
    """
    if w.p < 1 or w.q < 1:
        raise ValueError("cannot contract degree zero")
    n, p, q = w.n, w.p - 1, w.q - 1
    index_p, sign_p = _insert_table(n, p)
    index_q, sign_q = _insert_table(n, q)
    signs = sign_p[:, :, None] * sign_q[:, None, :]
    out = _sum_in_order(signs * w.coeffs[..., index_p[:, :, None], index_q[:, None, :]])
    if p == 0 and q == 0:
        return _per_form(out[..., 0, 0])
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
    source_p, sign_p = _complement_table(n, w.p)
    source_q, sign_q = _complement_table(n, w.q)
    out = np.outer(sign_p, sign_q) * w.coeffs[..., source_p[:, None], source_q[None, :]]
    return DoubleForm(n, p, q, out)


def _pair_rows(c1: np.ndarray, c2: np.ndarray) -> np.ndarray | float:
    """Sum of products of each form's coefficients, as one contiguous row."""
    prod = c1 * c2
    return _per_form(np.sum(prod.reshape(prod.shape[:-2] + (-1,)), axis=-1))


def inner(w1: DoubleForm, w2: DoubleForm) -> np.ndarray | float:
    """Inner product making the increasing-multi-index basis orthonormal.

    This is the pairing for which the adjointness ``<g w1, w2> = <w1, c w2>``
    holds exactly at every bidegree.  It agrees with the full index sum on
    bidegrees (p, 1-or-0) but differs by p! q! in general; use
    :func:`inner_full` for tensor-norm conventions such as |W|^2.
    """
    w1._check_match(w2)
    return _pair_rows(w1.coeffs, w2.coeffs)


def inner_full(w1: DoubleForm, w2: DoubleForm) -> np.ndarray | float:
    """Full-index-sum pairing, sum over all (not just increasing) tuples."""
    w1._check_match(w2)
    scale = math.factorial(w1.p) * math.factorial(w1.q)
    return scale * _pair_rows(w1.coeffs, w2.coeffs)


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
    h_flat = h.entries.reshape(h.entries.shape[:-2] + (-1,))
    index_p, source_p, sign_p = _derivation_table(n, w.p)
    index_q, source_q, sign_q = _derivation_table(n, w.q)
    # the first factor group's terms, then the second's, as the loop adds them:
    # rows and cols are (..., terms, Cp, Cq)
    rows = (sign_p * h_flat[..., index_p])[..., None] * w.coeffs[..., source_p, :]
    cols = (sign_q * h_flat[..., index_q])[..., None, :] * np.swapaxes(
        w.coeffs[..., :, source_q], -3, -2)
    out = _sum_in_order(rows, cols)
    return DoubleForm(n, w.p, w.q, out)


# -- curvature-level operations --------------------------------------------


def _require_curvature_type(R: DoubleForm) -> None:
    if (R.p, R.q) != (2, 2):
        raise ValueError("not curvature-type")
    if not R.is_symmetric(tol=1e-10 * np.maximum(1.0, _form_max(R.coeffs))):
        raise ValueError("not curvature-type")


def bilinear_algebra(z: SymBilinear, R: DoubleForm):
    """Return {'rcirc': R(z) ring-composition, 'compose': r o z (symmetrized)}.

    rcirc(x, y) = sum_i z(R(x, x_i) y, x_i); compose is the symmetrized
    endomorphism product of the Ricci tensor with z.
    """
    _require_curvature_type(R)
    if z.n != R.n:
        raise ValueError("dimension mismatch")
    dense = R.to_dense()  # R[..., s,t,u,v] = R(X_s^X_t, X_u^X_v)
    # rcirc_{xy} = sum_{i,w} z_{wi} R_{x i y w}
    rcirc = np.einsum("...wi,...xiyw->...xy", z.entries, dense)
    rcirc = 0.5 * (rcirc + np.swapaxes(rcirc, -1, -2))
    ric = np.einsum("...iaib->...ab", dense)
    comp = ric @ z.entries
    comp = 0.5 * (comp + np.swapaxes(comp, -1, -2))
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

# Kulkarni-Nomizu product with the metric as a (16, 256) table: row (i, j) is
# d(u.g)/du_ij, so u.g = u16 @ _KN_METRIC for u16 the (ij) reshape of u, with
# u.g_abcd = u_ac g_bd + u_bd g_ac - u_ad g_bc - u_bc g_ad.
_KN_METRIC = np.zeros((4, 4, 4, 4, 4, 4))
for _i, _j, _b in itertools.product(range(4), repeat=3):
    _KN_METRIC[_i, _j, _i, _b, _j, _b] += 1.0
    _KN_METRIC[_i, _j, _b, _i, _b, _j] += 1.0
    _KN_METRIC[_i, _j, _i, _b, _b, _j] -= 1.0
    _KN_METRIC[_i, _j, _b, _i, _j, _b] -= 1.0
_KN_METRIC = _KN_METRIC.reshape(16, 256)
_KN_METRIC.setflags(write=False)


def _check_curvature_batch(R: np.ndarray) -> None:
    if R.shape[-4:] != (4, 4, 4, 4):
        raise ValueError("expected trailing shape (4, 4, 4, 4)")


def kn_metric(u: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product u.g of (..., 4, 4) fields with the ON metric."""
    return (u.reshape(u.shape[:-2] + (16,)) @ _KN_METRIC).reshape(u.shape[:-2] + (4, 4, 4, 4))


def batch_invariants(R: np.ndarray) -> dict[str, np.ndarray]:
    """Scalar invariants of a batch of orthonormal-frame curvature tensors.

    ``R`` has shape (..., 4, 4, 4, 4) with R[..., s, t, u, v] the components
    of a curvature-type double form.  Returns s, |r|^2, |z|^2, |W|^2 and
    |R|^2, each of shape (...,), with the Ricci and trace-free Ricci fields
    'ric' and 'z'.  This mirrors the DoubleForm operations above entry for
    entry (tested against them) but vectorizes over grid points.  The
    Pfaffian density is :func:`batch_pfaffian`.
    """
    _check_curvature_batch(R)
    ric = np.einsum("...iaib->...ab", R)
    s = np.einsum("...aa->...", ric)
    r2 = np.einsum("...ab,...ab->...", ric, ric)
    z = ric - s[..., None, None] / 4.0 * np.eye(4)
    z2 = np.einsum("...ab,...ab->...", z, z)
    # Weyl part: W = R - (s/24) g.g - (1/2) z.g = R - u.g with u = z/2 + (s/24) g
    u = 0.5 * z + s[..., None, None] / 24.0 * np.eye(4)
    W = kn_metric(u)
    np.subtract(R, W, out=W)
    w2 = np.einsum("...abcd,...abcd->...", W, W)
    R2 = np.einsum("...abcd,...abcd->...", R, R)
    return {"s": s, "r2": r2, "z2": z2, "w2": w2, "R2": R2, "ric": ric, "z": z}


def batch_pfaffian(R: np.ndarray) -> np.ndarray:
    """Pfaffian density (1/16) eps eps R R / (8 pi^2) of a batch, shape (...,).

    ``R`` is as in :func:`batch_invariants`; this is the vectorized
    :func:`pfaffian_density`.
    """
    _check_curvature_batch(R)
    mat = R.reshape(R.shape[:-4] + (16, 16))
    pff = np.einsum("...ij,...ij->...", _EPS4_MATRIX @ mat @ _EPS4_MATRIX, mat)
    return pff / (16.0 * 8.0 * math.pi**2)
