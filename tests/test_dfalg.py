"""Unit tests for the double-form algebra, checked against dense-loop oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahrenvol import dfalg
from ahrenvol.dfalg import (
    CurvatureDecomposition,
    DoubleForm,
    SymBilinear,
    bilinear_algebra,
    batch_invariants,
    batch_pfaffian,
    contract,
    contract_k,
    decompose_curvature,
    einstein_t2,
    f_h,
    hodge_star,
    hyperbolic_curvature,
    inner,
    inner_full,
    kn_product,
    metric_g,
    pfaffian_density,
    unit_scalar,
)

import oracles


def random_form(rng, n, p, q):
    """Random DoubleForm together with its dense oracle representation."""
    dense = oracles.random_form_dense(rng, n, p, q)
    return DoubleForm.from_dense(n, p, q, dense), dense


def random_curvature(rng, n=4):
    dense = oracles.random_curvature_dense(rng, n)
    return DoubleForm.from_dense(n, 2, 2, dense), dense


class TestStorage:
    def test_dense_roundtrip(self):
        """to_dense/from_dense are mutually inverse on random forms."""
        rng = np.random.default_rng(0)
        for n, p, q in [(3, 1, 2), (4, 2, 2), (5, 2, 1), (4, 0, 3)]:
            w, dense = random_form(rng, n, p, q)
            assert np.allclose(w.to_dense(), dense, atol=1e-12)
            back = DoubleForm.from_dense(n, p, q, w.to_dense())
            assert np.allclose(back.coeffs, w.coeffs, atol=1e-14)

    def test_component_antisymmetry(self):
        """Swapping two indices in either group flips the component sign."""
        rng = np.random.default_rng(1)
        w, _ = random_form(rng, 4, 2, 2)
        assert w.component((1, 0), (2, 3)) == -w.component((0, 1), (2, 3))
        assert w.component((0, 1), (3, 2)) == -w.component((0, 1), (2, 3))
        assert w.component((1, 1), (2, 3)) == 0.0

    def test_input_copied_and_frozen(self):
        """Constructor copies its array; stored coefficients are read-only."""
        arr = np.eye(4)
        g = DoubleForm(4, 1, 1, arr)
        arr[0, 0] = 99.0
        assert g.coeffs[0, 0] == 1.0
        with pytest.raises(ValueError):
            g.coeffs[0, 0] = 5.0

    def test_degree_errors(self):
        with pytest.raises(ValueError, match="degree exceeds dimension"):
            DoubleForm.zeros(3, 4, 1)
        with pytest.raises(ValueError, match="degree exceeds dimension"):
            g = metric_g(2)
            kn_product(kn_product(g, g), g)
        with pytest.raises(ValueError, match="cannot contract degree zero"):
            contract(unit_scalar(4))

    def test_arithmetic(self):
        rng = np.random.default_rng(2)
        a, da = random_form(rng, 4, 1, 2)
        b, db = random_form(rng, 4, 1, 2)
        assert np.allclose((a + b).to_dense(), da + db)
        assert np.allclose((a - 2.0 * b).to_dense(), da - 2.0 * db)
        assert np.allclose((-a).to_dense(), -da)

    def test_symbilinear_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymBilinear(2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        h = SymBilinear.identity(3)
        assert h.trace() == 3.0
        assert SymBilinear.from_doubleform(h.to_doubleform()).entries == pytest.approx(np.eye(3))


class TestDenseOracles:
    """Every operator agrees with a naive full-index-loop implementation."""

    def test_kn_product_matches_dense(self):
        rng = np.random.default_rng(10)
        cases = [(3, 1, 1, 1, 1), (4, 1, 1, 1, 1), (4, 2, 1, 1, 2), (4, 2, 2, 1, 1), (5, 1, 2, 1, 1)]
        for n, pa, qa, pb, qb in cases:
            a, da = random_form(rng, n, pa, qa)
            b, db = random_form(rng, n, pb, qb)
            got = kn_product(a, b).to_dense()
            want = oracles.dense_kn(da, pa, qa, db, pb, qb)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_kn_product_matches_dense_top_degree(self):
        """(2,2)x(2,2) -> (4,4) at n = 4, the Gauss-Bonnet configuration."""
        rng = np.random.default_rng(11)
        a, da = random_curvature(rng)
        got = kn_product(a, a).to_dense()
        want = oracles.dense_kn(da, 2, 2, da, 2, 2)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_contract_matches_dense(self):
        rng = np.random.default_rng(12)
        for n, p, q in [(3, 1, 1), (4, 2, 2), (4, 1, 2), (5, 2, 1), (4, 3, 3)]:
            w, dw = random_form(rng, n, p, q)
            got = contract(w)
            want = oracles.dense_contract(dw, p, q)
            if isinstance(got, float):
                assert got == pytest.approx(want, abs=1e-12)
            else:
                assert np.max(np.abs(got.to_dense() - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_hodge_star_matches_dense(self):
        rng = np.random.default_rng(13)
        for n, p, q in [(3, 1, 1), (4, 2, 2), (4, 1, 2), (4, 0, 1), (5, 2, 3)]:
            w, dw = random_form(rng, n, p, q)
            got = hodge_star(w).to_dense()
            want = oracles.dense_star(dw, n, p, q)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_f_h_matches_dense(self):
        rng = np.random.default_rng(14)
        for n, p, q in [(3, 1, 1), (4, 2, 2), (4, 1, 2), (5, 2, 2), (4, 3, 1)]:
            w, dw = random_form(rng, n, p, q)
            h = SymBilinear(n, _random_sym(rng, n))
            got = f_h(h, w).to_dense()
            want = oracles.dense_fh(h.entries, dw, p, q)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_inner_matches_dense(self):
        rng = np.random.default_rng(15)
        for n, p, q in [(3, 1, 2), (4, 2, 2), (5, 1, 1), (4, 3, 2)]:
            a, da = random_form(rng, n, p, q)
            b, db = random_form(rng, n, p, q)
            assert inner_full(a, b) == pytest.approx(oracles.dense_inner_full(da, db), rel=1e-12)
            assert inner(a, b) == pytest.approx(
                oracles.dense_inner_compressed(da, db, p, q), rel=1e-12
            )

    def test_pfaffian_matches_dense(self):
        rng = np.random.default_rng(16)
        R, dR = random_curvature(rng)
        assert pfaffian_density(R) == pytest.approx(oracles.dense_pfaffian(dR), rel=1e-11)

    def test_bilinear_algebra_matches_dense(self):
        rng = np.random.default_rng(17)
        R, dR = random_curvature(rng)
        z = SymBilinear(4, _random_sym(rng, 4))
        got = bilinear_algebra(z, R)
        assert np.allclose(got["rcirc"].entries, oracles.dense_rcirc(z.entries, dR), atol=1e-11)
        assert np.allclose(got["compose"].entries, oracles.dense_compose(z.entries, dR), atol=1e-11)


def _random_sym(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


# every bidegree for n = 1..4, and at n = 5 the bidegrees of the random forms
# algebra-suite draws (w, its partner b of one degree more, and the (1, 1) pairs)
_TABLE_CASES = [(n, p, q) for n in range(1, 5) for p in range(n + 1) for q in range(n + 1)] + [
    (5, p, q) for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
]
_TABLES = ("_wedge_table", "_insert_table", "_complement_table", "_expand_table",
           "_derivation_table", "_dense_index")


def _compressed(rng, n, p, q):
    return DoubleForm(n, p, q, rng.standard_normal((math.comb(n, p), math.comb(n, q))))


class TestSignTables:
    """The table-driven operators against their per-call loop forms.

    The tables keep each output entry's terms in the loop's order and sum them
    left to right, so the two agree exactly, not just to roundoff.
    """

    def test_kn_product_matches_loop(self):
        rng = np.random.default_rng(30)
        for n, pa, qa in _TABLE_CASES:
            a = _compressed(rng, n, pa, qa)
            for m, pb, qb in _TABLE_CASES:
                if m == n and pa + pb <= n and qa + qb <= n:
                    b = _compressed(rng, n, pb, qb)
                    got, want = kn_product(a, b), oracles.kn_product_loop(a, b)
                    assert (got.p, got.q) == (want.p, want.q)
                    assert np.array_equal(got.coeffs, want.coeffs), (n, pa, qa, pb, qb)

    def test_contract_matches_loop(self):
        rng = np.random.default_rng(31)
        for n, p, q in _TABLE_CASES:
            if p and q:
                w = _compressed(rng, n, p, q)
                got, want = contract(w), oracles.contract_loop(w)
                if p == q == 1:
                    assert isinstance(got, float) and got == want
                else:
                    assert np.array_equal(got.coeffs, want.coeffs), (n, p, q)

    def test_hodge_star_and_to_dense_match_loop(self):
        rng = np.random.default_rng(32)
        for n, p, q in _TABLE_CASES:
            w = _compressed(rng, n, p, q)
            assert np.array_equal(hodge_star(w).coeffs, oracles.hodge_star_loop(w).coeffs)
            assert np.array_equal(w.to_dense(), oracles.to_dense_loop(w)), (n, p, q)

    def test_f_h_matches_loop(self):
        rng = np.random.default_rng(33)
        for n, p, q in _TABLE_CASES:
            w = _compressed(rng, n, p, q)
            h = SymBilinear(n, _random_sym(rng, n))
            assert np.array_equal(f_h(h, w).coeffs, oracles.f_h_loop(h, w).coeffs), (n, p, q)

    def test_cached_tables_are_read_only(self):
        for name, args in zip(_TABLES, [(4, 2, 2), (4, 1), (4, 2), (4, 2), (4, 2), (4, 2, 1)]):
            tables = getattr(dfalg, name)(*args)
            for table in tables if isinstance(tables, tuple) else (tables,):
                with pytest.raises(ValueError):
                    table.flat[0] = 1

    def test_import_builds_no_table(self):
        """Tables are built on first use, so importing dfalg costs no set-up."""
        src = os.path.dirname(os.path.dirname(dfalg.__file__))
        code = (
            "from ahrenvol import dfalg; "
            f"print(sum(getattr(dfalg, t).cache_info().currsize for t in {_TABLES!r}))"
        )
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


_STACK = 3


def _stack(rng, n, p, q):
    """A stack of _STACK forms and the same forms one by one."""
    stack = DoubleForm(n, p, q, rng.standard_normal((_STACK, math.comb(n, p), math.comb(n, q))))
    return stack, [DoubleForm(n, p, q, c) for c in stack.coeffs]


def _sym_stack(rng, n):
    stack = SymBilinear(n, np.stack([_random_sym(rng, n) for _ in range(_STACK)]))
    return stack, [SymBilinear(n, e) for e in stack.entries]


class TestStacks:
    """Each form of a stack gets exactly the bits it gets alone."""

    def test_kn_product(self):
        rng = np.random.default_rng(80)
        for n, pa, qa in _TABLE_CASES:
            a, a1 = _stack(rng, n, pa, qa)
            for m, pb, qb in _TABLE_CASES:
                if m == n and pa + pb <= n and qa + qb <= n:
                    b, b1 = _stack(rng, n, pb, qb)
                    got = kn_product(a, b).coeffs
                    # a stack times one form broadcasts that form over the stack
                    with_one = kn_product(a, b1[0]).coeffs
                    for k in range(_STACK):
                        assert np.array_equal(got[k], kn_product(a1[k], b1[k]).coeffs)
                        assert np.array_equal(with_one[k], kn_product(a1[k], b1[0]).coeffs)

    def test_contract(self):
        rng = np.random.default_rng(81)
        for n, p, q in _TABLE_CASES:
            if p and q:
                w, w1 = _stack(rng, n, p, q)
                got = contract(w)
                for k in range(_STACK):
                    one = contract(w1[k])
                    if p == q == 1:
                        assert isinstance(one, float) and got.shape == (_STACK,)
                        assert got[k] == one
                    else:
                        assert np.array_equal(got.coeffs[k], one.coeffs), (n, p, q)

    def test_hodge_star_inner_and_dense(self):
        rng = np.random.default_rng(82)
        for n, p, q in _TABLE_CASES:
            w, w1 = _stack(rng, n, p, q)
            v, v1 = _stack(rng, n, p, q)
            star, dense = hodge_star(w).coeffs, w.to_dense()
            back = DoubleForm.from_dense(n, p, q, dense).coeffs
            pair, pair_full = inner(w, v), inner_full(w, v)
            assert dense.shape == (_STACK,) + (n,) * (p + q)
            for k in range(_STACK):
                assert np.array_equal(star[k], hodge_star(w1[k]).coeffs)
                assert np.array_equal(dense[k], w1[k].to_dense())
                assert np.array_equal(back[k], DoubleForm.from_dense(n, p, q, dense[k]).coeffs)
                assert np.array_equal(back[k], w1[k].coeffs)
                assert pair[k] == inner(w1[k], v1[k]), (n, p, q)
                assert pair_full[k] == inner_full(w1[k], v1[k])
            assert isinstance(inner(w1[0], v1[0]), float)

    def test_from_dense_matches_element_reads(self):
        """The gather reads the increasing-index entries of the dense array."""
        rng = np.random.default_rng(83)
        for n, p, q in _TABLE_CASES:
            dense = rng.standard_normal((n,) * (p + q))
            want = [[dense[I + J] for J in dfalg._combos(n, q)] for I in dfalg._combos(n, p)]
            assert np.array_equal(DoubleForm.from_dense(n, p, q, dense).coeffs, want)
        with pytest.raises(ValueError, match="dense array must end in shape"):
            DoubleForm.from_dense(4, 2, 1, np.zeros((4, 4)))

    def test_f_h(self):
        rng = np.random.default_rng(84)
        for n, p, q in _TABLE_CASES:
            w, w1 = _stack(rng, n, p, q)
            h, h1 = _sym_stack(rng, n)
            got, with_one = f_h(h, w).coeffs, f_h(h1[0], w).coeffs
            for k in range(_STACK):
                assert np.array_equal(got[k], f_h(h1[k], w1[k]).coeffs), (n, p, q)
                assert np.array_equal(with_one[k], f_h(h1[0], w1[k]).coeffs)

    def test_bilinear_algebra(self):
        rng = np.random.default_rng(85)
        for n in range(2, 6):
            dense = np.stack([oracles.random_curvature_dense(rng, n) for _ in range(_STACK)])
            R = DoubleForm.from_dense(n, 2, 2, dense)
            z, z1 = _sym_stack(rng, n)
            got = bilinear_algebra(z, R)
            for k in range(_STACK):
                one = bilinear_algebra(z1[k], DoubleForm.from_dense(n, 2, 2, dense[k]))
                for key in ("rcirc", "compose"):
                    assert np.array_equal(got[key].entries[k], one[key].entries), (n, key)

    def test_scalar_per_form(self):
        rng = np.random.default_rng(86)
        w, w1 = _stack(rng, 4, 2, 1)
        scale = rng.standard_normal(_STACK)
        for got in ((w * scale).coeffs, (scale * w).coeffs):
            for k in range(_STACK):
                assert np.array_equal(got[k], (scale[k] * w1[k]).coeffs)

    def test_kth_asymmetric_form_raises_as_alone(self):
        rng = np.random.default_rng(87)
        entries = np.stack([_random_sym(rng, 4) for _ in range(_STACK)])
        entries[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="entries must be symmetric"):
            SymBilinear(4, entries[1])
        with pytest.raises(ValueError, match="entries must be symmetric"):
            SymBilinear(4, entries)
        # each form is judged against its own scale: a large form does not
        # excuse the asymmetry of a small one
        entries[0] *= 1e8
        with pytest.raises(ValueError, match="entries must be symmetric"):
            SymBilinear(4, entries)

    def test_kth_non_curvature_form_raises_as_alone(self):
        rng = np.random.default_rng(88)
        dense = np.stack([oracles.random_curvature_dense(rng, 4) for _ in range(_STACK)])
        coeffs = DoubleForm.from_dense(4, 2, 2, dense).coeffs.copy()
        coeffs[2, 0, 1] += 1e-6
        coeffs[0] *= 1e8
        z = SymBilinear.identity(4)
        with pytest.raises(ValueError, match="not curvature-type"):
            bilinear_algebra(z, DoubleForm(4, 2, 2, coeffs[2]))
        with pytest.raises(ValueError, match="not curvature-type"):
            bilinear_algebra(z, DoubleForm(4, 2, 2, coeffs))
        bilinear_algebra(z, DoubleForm(4, 2, 2, coeffs[:2]))

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="coefficient array must have shape"):
            DoubleForm(4, 1, 1, np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="coefficient array must have shape"):
            DoubleForm(4, 0, 0, np.zeros(1))
        with pytest.raises(ValueError, match="entries must be n x n"):
            SymBilinear(3, np.zeros((2, 3, 4)))


class TestAlgebraIdentities:
    """Structural identities, over seeded random inputs at n in {3, 4, 5}."""

    def test_graded_commutativity(self):
        rng = np.random.default_rng(20)
        for n, pa, qa, pb, qb in [(4, 1, 1, 1, 1), (4, 2, 1, 1, 2), (5, 1, 2, 2, 1), (3, 1, 1, 1, 1)]:
            a, _ = random_form(rng, n, pa, qa)
            b, _ = random_form(rng, n, pb, qb)
            sign = (-1.0) ** (pa * pb + qa * qb)
            diff = kn_product(a, b) - sign * kn_product(b, a)
            assert np.max(np.abs(diff.coeffs), initial=0.0) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(21)
        for n in (3, 4, 5):
            a, _ = random_form(rng, n, 1, 1)
            b, _ = random_form(rng, n, 1, 1)
            c, _ = random_form(rng, n, 1, 0)
            lhs = kn_product(kn_product(a, b), c)
            rhs = kn_product(a, kn_product(b, c))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(
                1.0, np.max(np.abs(lhs.coeffs))
            )

    def test_unit(self):
        rng = np.random.default_rng(22)
        w, _ = random_form(rng, 4, 2, 1)
        assert np.allclose(kn_product(unit_scalar(4), w).coeffs, w.coeffs)

    def test_adjointness_metric_vs_contraction(self):
        """<g w1, w2> = <w1, c w2> for the basis-orthonormal inner product."""
        rng = np.random.default_rng(23)
        for n, p, q in [(3, 0, 0), (4, 1, 1), (4, 2, 1), (4, 2, 2), (5, 1, 2), (4, 3, 3)]:
            a, _ = random_form(rng, n, p, q)
            b, _ = random_form(rng, n, p + 1, q + 1)
            lhs = inner(kn_product(metric_g(n), a), b)
            cb = contract(b)
            rhs = cb * a.coeffs[0, 0] if isinstance(cb, float) else inner(a, cb)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_contraction_commutator(self):
        """c(g w) = g c(w) + (n - p - q) w on D^{p,q} with p, q >= 1."""
        rng = np.random.default_rng(24)
        for n, p, q in [(3, 1, 1), (4, 1, 1), (4, 2, 2), (4, 2, 1), (5, 2, 2)]:
            w, _ = random_form(rng, n, p, q)
            g = metric_g(n)
            lhs = contract(kn_product(g, w))
            cw = contract(w)
            if isinstance(cw, float):
                rhs = (n - p - q) * w + cw * kn_product(g, unit_scalar(n))
            else:
                rhs = kn_product(g, cw) + (n - p - q) * w
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11 * max(
                1.0, np.max(np.abs(lhs.coeffs))
            )

    def test_hodge_metric_multiplication(self):
        """g w = (-1)^(n(p+q)) * c * w wherever both sides are defined."""
        rng = np.random.default_rng(25)
        for n, p, q in [(3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 2, 2), (5, 1, 2), (5, 1, 1), (3, 1, 2)]:
            w, _ = random_form(rng, n, p, q)
            lhs = kn_product(metric_g(n), w)
            sw = contract(hodge_star(w))
            assert not isinstance(sw, float)
            rhs = (-1.0) ** (n * (p + q)) * hodge_star(sw)
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(
                1.0, np.max(np.abs(lhs.coeffs))
            )

    def test_double_star(self):
        """** = (-1)^(p(n-p) + q(n-q)) on D^{p,q} in Euclidean signature."""
        rng = np.random.default_rng(26)
        for n, p, q in [(4, 1, 1), (4, 1, 0), (4, 2, 2), (3, 1, 2), (5, 2, 1)]:
            w, _ = random_form(rng, n, p, q)
            sign = (-1.0) ** (p * (n - p) + q * (n - q))
            back = hodge_star(hodge_star(w))
            assert np.max(np.abs(back.coeffs - sign * w.coeffs)) < 1e-13

    def test_star_isometry(self):
        rng = np.random.default_rng(27)
        a, _ = random_form(rng, 4, 2, 1)
        b, _ = random_form(rng, 4, 2, 1)
        assert inner(hodge_star(a), hodge_star(b)) == pytest.approx(inner(a, b), rel=1e-12)

    def test_f_h_derivation(self):
        """F_h(a b) = F_h(a) b + a F_h(b)."""
        rng = np.random.default_rng(28)
        for n in (3, 4, 5):
            a, _ = random_form(rng, n, 1, 1)
            b, _ = random_form(rng, n, 1, 1)
            h = SymBilinear(n, _random_sym(rng, n))
            lhs = f_h(h, kn_product(a, b))
            rhs = kn_product(f_h(h, a), b) + kn_product(a, f_h(h, b))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(
                1.0, np.max(np.abs(lhs.coeffs))
            )

    def test_f_h_self_adjoint(self):
        rng = np.random.default_rng(29)
        for n, p, q in [(4, 2, 2), (4, 1, 2), (5, 2, 1)]:
            a, _ = random_form(rng, n, p, q)
            b, _ = random_form(rng, n, p, q)
            h = SymBilinear(n, _random_sym(rng, n))
            assert inner(f_h(h, a), b) == pytest.approx(inner(a, f_h(h, b)), rel=1e-11)
            assert inner_full(f_h(h, a), b) == pytest.approx(
                inner_full(a, f_h(h, b)), rel=1e-11
            )

    def test_f_g_scales_by_total_degree(self):
        """F_g acts as multiplication by p + q; in particular F_g R = 4 R."""
        rng = np.random.default_rng(30)
        for n, p, q in [(4, 2, 2), (4, 1, 2), (5, 1, 1)]:
            w, _ = random_form(rng, n, p, q)
            got = f_h(SymBilinear.identity(n), w)
            assert np.max(np.abs(got.coeffs - (p + q) * w.coeffs)) < 1e-12

    def test_f_h_on_bilinear_forms(self):
        """On D^{1,1}, F_h z is the anticommutator h z + z h."""
        rng = np.random.default_rng(31)
        h = SymBilinear(4, _random_sym(rng, 4))
        z = SymBilinear(4, _random_sym(rng, 4))
        got = f_h(h, z.to_doubleform()).coeffs
        want = h.entries @ z.entries + z.entries @ h.entries
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([3, 4, 5]),
        p=st.integers(0, 2),
        q=st.integers(0, 2),
    )
    def test_adjointness_property(self, seed, n, p, q):
        """Hypothesis: adjointness <g w1, w2> = <w1, c w2> at arbitrary bidegree."""
        rng = np.random.default_rng(seed)
        a, _ = random_form(rng, n, p, q)
        b, _ = random_form(rng, n, p + 1, q + 1)
        lhs = inner(kn_product(metric_g(n), a), b)
        cb = contract(b)
        rhs = cb * a.coeffs[0, 0] if isinstance(cb, float) else inner(a, cb)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([3, 4]))
    def test_derivation_property(self, seed, n):
        """Hypothesis: F_h is a derivation for random h and bidegree-(1,1) pairs."""
        rng = np.random.default_rng(seed)
        a, _ = random_form(rng, n, 1, 1)
        b, _ = random_form(rng, n, 1, 0)
        h = SymBilinear(n, _random_sym(rng, n))
        lhs = f_h(h, kn_product(a, b))
        rhs = kn_product(f_h(h, a), b) + kn_product(a, f_h(h, b))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10 * max(
            1.0, np.max(np.abs(lhs.coeffs))
        )


class TestModelSpaceConstants:
    """Closed-form values on metric powers and the hyperbolic model."""

    def test_contraction_ladder(self):
        g = metric_g(4)
        g2 = kn_product(g, g)
        g3 = kn_product(g2, g)
        g4 = kn_product(g3, g)
        assert contract(g) == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(contract(g2).coeffs, 6.0 * g.coeffs, atol=1e-12)
        assert np.allclose(contract(g3).coeffs, 6.0 * g2.coeffs, atol=1e-12)
        assert contract_k(g4, 4) == pytest.approx(576.0, abs=1e-9)

    def test_contraction_ladder_n3(self):
        gamma = metric_g(3)
        g3 = kn_product(kn_product(gamma, gamma), gamma)
        assert contract_k(g3, 3) == pytest.approx(36.0, abs=1e-10)

    def test_hyperbolic_invariants(self):
        R = hyperbolic_curvature(4)
        assert contract_k(R, 2) == pytest.approx(12.0, abs=1e-12)
        ric = contract(R)
        assert np.allclose(ric.coeffs, 3.0 * np.eye(4), atol=1e-12)
        assert inner_full(R, R) == pytest.approx(24.0, abs=1e-12)
        assert inner(R, R) == pytest.approx(6.0, abs=1e-12)
        g = metric_g(4)
        assert inner(g, g) == pytest.approx(4.0, abs=1e-13)
        assert inner_full(g, g) == pytest.approx(4.0, abs=1e-13)

    def test_hyperbolic_pfaffian(self):
        assert pfaffian_density(hyperbolic_curvature(4)) == pytest.approx(
            3.0 / (4.0 * math.pi**2), rel=1e-12
        )

    def test_einstein_t2(self):
        R = hyperbolic_curvature(4)
        t2 = einstein_t2(R)
        assert np.allclose(t2.entries, 3.0 * np.eye(4), atol=1e-12)
        g2 = kn_product(metric_g(4), metric_g(4))
        assert np.allclose(einstein_t2(g2).entries, 6.0 * np.eye(4), atol=1e-12)

    def test_einstein_t2_formula(self):
        """T2 matches its defining formula on random curvature-type forms."""
        rng = np.random.default_rng(40)
        R, _ = random_curvature(rng)
        cw = contract(R)
        want = 0.5 * contract(cw) * np.eye(4) - cw.coeffs
        assert np.allclose(einstein_t2(R).entries, 0.5 * (want + want.T), atol=1e-11)

    def test_curvature_type_errors(self):
        with pytest.raises(ValueError, match="not curvature-type"):
            pfaffian_density(metric_g(4))
        rng = np.random.default_rng(41)
        w, _ = random_form(rng, 4, 2, 2)
        asym = DoubleForm(4, 2, 2, w.coeffs + np.triu(np.ones((6, 6))))
        with pytest.raises(ValueError, match="not curvature-type"):
            pfaffian_density(asym)
        with pytest.raises(ValueError, match="n=4 only"):
            pfaffian_density(hyperbolic_curvature(5))


class TestDecomposition:
    def test_reassemble(self):
        rng = np.random.default_rng(50)
        R, _ = random_curvature(rng)
        parts = decompose_curvature(R)
        assert np.max(np.abs(parts.reassemble().coeffs - R.coeffs)) < 1e-12 * max(
            1.0, np.max(np.abs(R.coeffs))
        )

    def test_traces(self):
        rng = np.random.default_rng(51)
        R, _ = random_curvature(rng)
        parts = decompose_curvature(R)
        assert parts.z.trace() == pytest.approx(0.0, abs=1e-11)
        cw = contract(parts.w)
        assert np.max(np.abs(cw.coeffs)) < 1e-11 * max(1.0, np.max(np.abs(R.coeffs)))

    def test_orthogonality(self):
        """The three summands are mutually orthogonal in both pairings."""
        rng = np.random.default_rng(52)
        R, _ = random_curvature(rng)
        parts = decompose_curvature(R)
        g = metric_g(4)
        sp = (parts.s / 24.0) * kn_product(g, g)
        zp = 0.5 * kn_product(parts.z.to_doubleform(), g)
        scale = max(1.0, inner_full(R, R))
        for a, b in [(sp, zp), (sp, parts.w), (zp, parts.w)]:
            assert abs(inner_full(a, b)) < 1e-10 * scale

    def test_hyperbolic_decomposition(self):
        parts = decompose_curvature(hyperbolic_curvature(4))
        assert parts.s == pytest.approx(12.0, abs=1e-12)
        assert np.max(np.abs(parts.z.entries)) < 1e-13
        assert np.max(np.abs(parts.w.coeffs)) < 1e-13

    def test_quadratic_invariant_identity(self):
        """|R|^2 = |W|^2 + 2 |z|^2 + s^2/6 in full-sum norms at n = 4."""
        rng = np.random.default_rng(53)
        R, _ = random_curvature(rng)
        parts = decompose_curvature(R)
        w2 = inner_full(parts.w, parts.w)
        z2 = float(np.sum(parts.z.entries**2))
        assert inner_full(R, R) == pytest.approx(w2 + 2.0 * z2 + parts.s**2 / 6.0, rel=1e-10)


class TestCurvatureBilinearIdentities:
    """Contraction identities tying F_h, rcirc and the Ricci composition."""

    def test_contract_fh_pairing(self):
        """<z, c F_h R> = 2 <rcirc(z), h> + 2 <r o z, h> on 100 seeded triples."""
        rng = np.random.default_rng(60)
        worst = 0.0
        for _ in range(100):
            R, _ = random_curvature(rng)
            z = SymBilinear(4, _random_sym(rng, 4))
            h = SymBilinear(4, _random_sym(rng, 4))
            lhs = inner(z.to_doubleform(), contract(f_h(h, R)))
            parts = bilinear_algebra(z, R)
            rhs = 2.0 * float(np.sum(parts["rcirc"].entries * h.entries)) + 2.0 * float(
                np.sum(parts["compose"].entries * h.entries)
            )
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert worst < 1e-10

    def test_rcirc_self_adjoint(self):
        """<z, rcirc(h)> = <rcirc(z), h> on 100 seeded triples."""
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(100):
            R, _ = random_curvature(rng)
            z = SymBilinear(4, _random_sym(rng, 4))
            h = SymBilinear(4, _random_sym(rng, 4))
            lhs = float(np.sum(z.entries * bilinear_algebra(h, R)["rcirc"].entries))
            rhs = float(np.sum(bilinear_algebra(z, R)["rcirc"].entries * h.entries))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert worst < 1e-10

    def test_documented_discrepancy_coefficient_eight(self):
        """The (8, 2) variant of the pairing identity fails by 6 <rcirc(z), h>.

        Kept as a regression guard: the correct coefficients are (2, 2); the
        (8, 2) version circulating elsewhere mixes two inner-product
        normalizations and misses by exactly 6 <rcirc(z), h>.
        """
        rng = np.random.default_rng(62)
        R, _ = random_curvature(rng)
        z = SymBilinear(4, _random_sym(rng, 4))
        h = SymBilinear(4, _random_sym(rng, 4))
        lhs = inner(z.to_doubleform(), contract(f_h(h, R)))
        parts = bilinear_algebra(z, R)
        rc = float(np.sum(parts["rcirc"].entries * h.entries))
        co = float(np.sum(parts["compose"].entries * h.entries))
        assert lhs - (8.0 * rc + 2.0 * co) == pytest.approx(-6.0 * rc, rel=1e-10)
        assert abs(rc) > 1e-3  # the discrepancy is not vacuous

    def test_least_squares_confirms_coefficients(self):
        """Fitting a rcirc + b compose to the pairing returns (2, 2) exactly."""
        rng = np.random.default_rng(63)
        rows, vals = [], []
        for _ in range(40):
            R, _ = random_curvature(rng)
            z = SymBilinear(4, _random_sym(rng, 4))
            h = SymBilinear(4, _random_sym(rng, 4))
            parts = bilinear_algebra(z, R)
            rows.append(
                [
                    float(np.sum(parts["rcirc"].entries * h.entries)),
                    float(np.sum(parts["compose"].entries * h.entries)),
                ]
            )
            vals.append(inner(z.to_doubleform(), contract(f_h(h, R))))
        coef, res, *_ = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)
        assert np.allclose(coef, [2.0, 2.0], atol=1e-10)

    def test_rcirc_of_metric_is_ricci(self):
        rng = np.random.default_rng(64)
        R, dR = random_curvature(rng)
        got = bilinear_algebra(SymBilinear.identity(4), R)["rcirc"].entries
        ric = np.einsum("iaib->ab", dR)
        assert np.allclose(got, 0.5 * (ric + ric.T), atol=1e-11)


class TestBatchInvariants:
    def test_matches_object_path(self):
        """Vectorized invariants equal the DoubleForm route pointwise."""
        rng = np.random.default_rng(70)
        batch = np.stack([oracles.random_curvature_dense(rng, 4) for _ in range(5)])
        out = batch_invariants(batch)
        pff = batch_pfaffian(batch)
        for k in range(5):
            R = DoubleForm.from_dense(4, 2, 2, batch[k])
            parts = decompose_curvature(R)
            assert out["s"][k] == pytest.approx(parts.s, rel=1e-11)
            assert out["z2"][k] == pytest.approx(float(np.sum(parts.z.entries**2)), rel=1e-10)
            assert out["w2"][k] == pytest.approx(inner_full(parts.w, parts.w), rel=1e-9)
            assert out["R2"][k] == pytest.approx(inner_full(R, R), rel=1e-11)
            assert pff[k] == pytest.approx(pfaffian_density(R), rel=1e-10)

    def test_matches_einsum_kernels_without_pair_symmetry(self):
        """pff and |W|^2 equal their einsum forms (tests/oracles.py) on a batch
        with no symmetry at all, so a kernel that assumes the antisymmetry or
        the pair symmetry of a curvature tensor (a 6x6 bivector Pfaffian) fails."""
        R = np.random.default_rng(72).standard_normal((5, 4, 4, 4, 4))
        out = batch_invariants(R)
        for got, want in (
            (batch_pfaffian(R), oracles.pfaffian_einsum(R)),
            (out["w2"], oracles.w2_einsum(R, out["s"], out["z"])),
        ):
            assert got.shape == (5,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_kn_metric_matches_einsum(self):
        """u.g through the (16, 256) table equals its four-einsum form, over
        two leading axes and with no symmetry of u."""
        u = np.random.default_rng(73).standard_normal((2, 3, 4, 4))
        got = dfalg.kn_metric(u)
        assert got.shape == (2, 3, 4, 4, 4, 4)
        assert np.max(np.abs(got - oracles.zg_einsum(u))) <= 1e-15 * np.max(np.abs(u))

    def test_two_leading_axes(self):
        """The Pfaffian broadcasts over every leading axis."""
        rng = np.random.default_rng(71)
        batch = np.stack(
            [oracles.random_curvature_dense(rng, 4) for _ in range(6)]
        ).reshape(2, 3, 4, 4, 4, 4)
        pff = batch_pfaffian(batch)
        assert pff.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                want = pfaffian_density(DoubleForm.from_dense(4, 2, 2, batch[i, j]))
                assert pff[i, j] == pytest.approx(want, rel=1e-10)

    def test_shape_validation(self):
        for fn in (batch_invariants, batch_pfaffian):
            with pytest.raises(ValueError, match="trailing shape"):
                fn(np.zeros((3, 3, 3, 3)))

    def test_hyperbolic_batch(self):
        R = hyperbolic_curvature(4).to_dense()[None, ...]
        out = batch_invariants(R)
        assert out["s"][0] == pytest.approx(12.0)
        assert batch_pfaffian(R)[0] == pytest.approx(3.0 / (4.0 * math.pi**2), rel=1e-12)
