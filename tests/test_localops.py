"""Shift calculus, kernel columns, column sums, modulation."""

import random
from fractions import Fraction

import pytest

from flowtree import ball_window, homogeneous_window, safe_region
from flowtree.localops import (InsufficientMarginError, WindowFunction,
                               apply_gradient, apply_laplacian, apply_ncpoly,
                               apply_shift, apply_shift_adjoint, apply_word,
                               indicator, kernel_column_lambda_poly,
                               kernel_column_poly)
from flowtree.ncpoly import Z1, Z2, NcPolynomial

from conftest import modulation, weighted_col_sums


def rand_poly(rng, max_deg=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice((Z1, Z2)) for _ in range(rng.randint(0, max_deg)))
        terms[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    p = NcPolynomial(terms)
    return p if p.terms else NcPolynomial({(Z1,): Fraction(1)})


def test_shift_moves_mass_to_children(t2_ball):
    w, m, c = t2_ball
    g = apply_word(w, m, (Z1,), indicator(w, c))
    assert set(v for v, x in g.values.items() if x) == set(w.children(c))
    assert all(x == 1 for x in g.values.values())


def test_shift_adjoint_moves_to_parent(t2_ball):
    w, m, c = t2_ball
    g = apply_word(w, m, (Z2,), indicator(w, c))
    p = w.parent(c)
    assert g.values == {p: m.of(c) / m.of(p)}


def test_laplacian_stencil_column(t2_ball):
    w, m, c = t2_ball
    col = kernel_column_lambda_poly(w, m, [Fraction(0), Fraction(1)], c)
    p = w.parent(c)
    assert col.value(c) == 1 / m.of(c)
    assert col.value(p) == -Fraction(1, 2) / m.of(p)
    for ch in w.children(c):
        assert col.value(ch) == -Fraction(1, 2) / m.of(c)
    others = set(col.support()) - {c, p, *w.children(c)}
    assert not others


def test_laplacian_word_and_stencil_agree(t2_ball):
    w, m, c = t2_ball
    col_word = kernel_column_poly(w, m, NcPolynomial.laplacian(), c)
    col_sten = kernel_column_lambda_poly(w, m, [Fraction(0), Fraction(1)], c)
    for v in set(col_word.values) | set(col_sten.values):
        assert col_word.value(v) == col_sten.value(v)


def test_identity_kernel(t2_ball):
    w, m, c = t2_ball
    col = kernel_column_poly(w, m, NcPolynomial.identity(), c)
    assert col.values == {c: 1 / m.of(c)}
    assert col.err_bound == 0


def test_sibling_kernel(t2_ball):
    w, m, c = t2_ball
    col = kernel_column_poly(w, m, NcPolynomial({(Z1, Z2): 1}), c)
    p = w.parent(c)
    for v in w.children(p):
        assert col.value(v) == 1 / m.of(p)
    assert set(col.support()) == set(w.children(p))


def test_margin_error():
    w, m, c = ball_window(2, 3)
    with pytest.raises(InsufficientMarginError):
        kernel_column_poly(w, m, NcPolynomial({(Z1,) * 4: 1}), c)


def test_finite_propagation(t2_ball):
    w, m, c = t2_ball
    rng = random.Random(3)
    for _ in range(10):
        poly = rand_poly(rng)
        col = kernel_column_poly(w, m, poly, c)
        assert all(w.distance(v, c) <= poly.degree for v in col.support())


def test_operator_norm_bound(t2_ball):
    """Column mass of F(shift pair) is at most the word-norm at radius 1."""
    w, m, c = t2_ball
    rng = random.Random(7)
    for _ in range(12):
        poly = rand_poly(rng)
        col = kernel_column_poly(w, m, poly, c)
        total, truncated = weighted_col_sums(w, m, col, lambda d, lx, ly: 1)
        assert not truncated
        assert total <= poly.norm() + Fraction(1, 10 ** 12)


def test_selfadjoint_laplacian_kernel(t2_ball):
    w, m, c = t2_ball
    reg = safe_region(w, 2)
    col_c = kernel_column_lambda_poly(w, m, [Fraction(0), Fraction(1)], c)
    for v in list(reg)[:8]:
        col_v = kernel_column_lambda_poly(w, m, [Fraction(0), Fraction(1)], v)
        assert col_c.value(v) == col_v.value(c)


def test_quadratic_form_positive(t2_ball):
    w, m, c = t2_ball
    rng = random.Random(1)
    reg = sorted(safe_region(w, 1))
    for _ in range(10):
        f = {v: Fraction(rng.randint(-4, 4)) for v in rng.sample(reg, 6)}
        wf = indicator(w, c)
        wf.values.clear()
        wf.values.update(f)
        lf = apply_laplacian(w, m, wf)
        gf = apply_gradient(w, m, wf)
        quad = sum(lf.values.get(v, 0) * f.get(v, 0) * m.of(v)
                   for v in set(lf.values) | set(f))
        grad_sq = sum(x * x * m.of(v) for v, x in gf.values.items())
        assert quad == grad_sq / 2
        assert quad >= 0


def test_weighted_col_sums_examples(t2_ball):
    w, m, c = t2_ball
    ident = kernel_column_poly(w, m, NcPolynomial.identity(), c)
    assert weighted_col_sums(w, m, ident, lambda d, lx, ly: 1)[0] == 1
    lap = kernel_column_lambda_poly(w, m, [Fraction(0), Fraction(1)], c)
    assert weighted_col_sums(w, m, lap, lambda d, lx, ly: 1)[0] == 2
    assert weighted_col_sums(w, m, lap, lambda d, lx, ly: 1 + d)[0] == 3


def test_weighted_col_sums_truncation_flag():
    w, m = homogeneous_window(2, depth=2, up=2)
    base = [v for v in w.vertices if w.level[v] == -2 and w.children(v)][0:1]
    col = kernel_column_lambda_poly(w, m, [Fraction(0), Fraction(1)],
                                    next(iter(safe_region(w, 1))))
    _, truncated = weighted_col_sums(w, m, col, lambda d, lx, ly: 1)
    assert truncated  # support touches incomplete vertices on this window


def test_modulation_involution_and_alternation(t2_ball):
    w, m, c = t2_ball
    f = {v: Fraction(1) for v in w.vertices}
    g = modulation(w, f)
    assert modulation(w, g) == f
    assert {x for x in g.values()} == {Fraction(1), Fraction(-1)}
    for v, x in g.items():
        assert x == (1 if w.level[v] % 2 == 0 else -1)


def test_modulation_conjugates_laplacian(t2_ball):
    """Sign flip conjugation sends the Laplacian to 2I minus itself."""
    w, m, c = t2_ball
    colL = kernel_column_lambda_poly(w, m, [Fraction(0), Fraction(1)], c)
    col2 = kernel_column_lambda_poly(w, m, [Fraction(2), Fraction(-1)], c)
    flipped = modulation(w, dict(colL.values))
    sy = -1 if w.level[c] % 2 else 1
    for v in set(flipped) | set(col2.values):
        assert sy * flipped.get(v, 0) == col2.value(v)


def test_cubed_word_expansion_matches_stencil(t2_ball):
    """The degree-6 word expansion of the Laplacian cubed reproduces the
    stencil route exactly (dual code paths)."""
    w, m, c = ball_window(2, 7)
    coeffs = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    via_words = kernel_column_poly(w, m, NcPolynomial.from_lambda_coeffs(coeffs), c)
    via_stencil = kernel_column_lambda_poly(w, m, coeffs, c)
    for v in set(via_words.values) | set(via_stencil.values):
        assert via_words.value(v) == via_stencil.value(v)


def test_adjoint_kernel_transpose(t2_ball):
    """K of the adjoint polynomial at (x,y) equals K(y,x) of the original."""
    w, m, c = t2_ball
    rng = random.Random(5)
    reg = sorted(safe_region(w, 3))
    for _ in range(6):
        poly = rand_poly(rng, 3)
        col_c = kernel_column_poly(w, m, poly, c)
        adj = poly.adjoint()
        for x in rng.sample(reg, 4):
            col_x = kernel_column_poly(w, m, adj, x)
            assert col_x.value(c) == col_c.value(x)


def test_apply_ncpoly_linear_in_terms(t2_ball):
    w, m, c = t2_ball
    rng = random.Random(9)
    p1, p2 = rand_poly(rng, 3), rand_poly(rng, 3)
    f = indicator(w, c)
    g12 = apply_ncpoly(w, m, p1 + p2, f)
    g1 = apply_ncpoly(w, m, p1, f)
    g2 = apply_ncpoly(w, m, p2, f)
    for v in set(g12.values) | set(g1.values) | set(g2.values):
        assert g12.values.get(v, 0) == g1.values.get(v, 0) + g2.values.get(v, 0)


@pytest.mark.parametrize("flow", [2, 3, (Fraction(3, 4), Fraction(1, 4))],
                         ids=["q2", "q3", "3:1"])
def test_gradient_square_is_twice_the_laplacian(flow):
    """grad* grad = 2L and Sigma* Sigma = I, exactly on the certified set,
    for seeded rational functions on rational balls: with g = grad f,
    2 L f = g - Sigma* g (grad* = I - Sigma*), and Sigma* Sigma f = f.  The
    certified sets hold every vertex safe at radius 1."""
    w, m, _ = ball_window(flow, 4)
    interior = safe_region(w, 1)
    rng = random.Random(5)
    for _ in range(4):
        f = WindowFunction({v: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for v in sorted(w.vertices) if rng.random() < 0.5},
                           w.all_vertices(), True)
        lap, g = apply_laplacian(w, m, f), apply_gradient(w, m, f)
        gg = apply_shift_adjoint(w, m, g)
        both = lap.safe & g.safe & gg.safe
        assert interior <= both
        assert all(2 * lap.value(v) == g.value(v) - gg.value(v) for v in both)
        back = apply_shift_adjoint(w, m, apply_shift(w, m, f))
        assert interior <= back.safe
        assert all(back.value(v) == f.value(v) for v in back.safe)
