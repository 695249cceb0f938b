"""Chebyshev models: approximation quality and certified kernel values."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from flowtree import ball_window
from flowtree import zline
from flowtree.chebyshev import cheb_approx, cheb_column
from flowtree.localops import kernel_column_lambda_poly
from flowtree.trees import FlowMeasure, InsufficientMarginError, in_safe_region

from conftest import kernel_value_general


def test_polynomial_reproduced():
    model = cheb_approx(lambda lam: lam ** 2, 2)
    assert model.sup_err < 1e-13
    grid = np.linspace(0, 2, 101)
    assert np.max(np.abs(model(grid) - grid ** 2)) < 1e-13


def test_exponential_degree_twenty():
    model = cheb_approx(lambda lam: np.exp(-lam), 20)
    assert model.sup_err <= 1e-12


def test_kink_slow_decay():
    errs = []
    for deg in (16, 32, 64, 128):
        errs.append(cheb_approx(lambda lam: np.abs(lam - 1.0), deg).sup_err)
    # O(1/N): halves (roughly) with each doubling, and is nowhere spectral
    for a, b in zip(errs, errs[1:]):
        assert b < a
        assert b > a / 4
    assert errs[-1] > 1e-4


def test_non_finite_sample_rejected():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            cheb_approx(lambda lam: 1.0 / (np.asarray(lam) - 1.0), 8)


def test_identity_model_kernel(t2_ball):
    w, m, c = t2_ball
    model = cheb_approx(lambda lam: np.ones_like(lam), 0)
    val, cert = kernel_value_general(w, m, model, c, c)
    assert abs(val - 1.0 / m.as_float(c)) < 1e-14
    assert cert < 1e-14


def test_heat_matches_line_quadrature(z_ball):
    w, m, c = z_ball
    model = cheb_approx(lambda lam: np.exp(-lam), 22)
    zk = zline.z_multiplier_kernel(lambda lam: np.exp(-lam), 25)
    col = cheb_column(w, m, model, c)
    for x in col.safe:
        n = w.level[x] - w.level[c]
        assert abs(col.value(x) - zk.value(n)) <= col.err_bound + 1e-12


def test_cube_matches_word_expansion(t2_ball):
    w, m, c = t2_ball
    mf = ball_window(2, 6, backend="float")
    wf, meas, cf = mf
    model = cheb_approx(lambda lam: lam ** 3, 3)
    col_c = cheb_column(wf, meas, model, cf)
    col_p = kernel_column_lambda_poly(wf, meas, [0.0, 0.0, 0.0, 1.0], cf)
    for v in set(col_c.values) | set(col_p.values):
        assert abs(col_c.value(v) - col_p.value(v)) < 1e-13


def test_margin_enforced():
    w, m, c = ball_window(2, 4)
    model = cheb_approx(lambda lam: np.exp(-lam), 10)
    with pytest.raises(InsufficientMarginError):
        kernel_value_general(w, m, model, c, c)


def test_kernel_value_general_is_the_column_value():
    w, m, c = ball_window(2, 8, backend="float")
    model = cheb_approx(lambda lam: np.exp(-lam), 5)
    col = cheb_column(w, m, model, c)
    xs = [x for x in w.vertices if in_safe_region(w, x, model.degree)]
    assert len(xs) > 1
    for x in xs:
        val, cert = kernel_value_general(w, m, model, x, c)
        assert val == col.value(x)
        assert cert == float(model.sup_err / np.sqrt(m.as_float(x) * m.as_float(c)))


def test_margin_enforced_on_x_alone():
    w, m, c = ball_window(2, 8, backend="float")
    model = cheb_approx(lambda lam: np.exp(-lam), 5)
    leaf = next(x for x in w.vertices if not in_safe_region(w, x, model.degree))
    assert in_safe_region(w, c, model.degree)
    with pytest.raises(InsufficientMarginError):
        kernel_value_general(w, m, model, leaf, c)


def test_pointwise_certificate_formula(z_ball):
    w, m, c = z_ball
    model = cheb_approx(lambda lam: np.exp(-2.0 * lam), 8)  # sloppy on purpose
    zk = zline.z_multiplier_kernel(lambda lam: np.exp(-2.0 * lam), 10)
    val, cert = kernel_value_general(w, m, model, c, c)
    assert cert == pytest.approx(model.sup_err, rel=1e-12)  # unit masses
    assert abs(val - zk.value(0)) <= cert


@pytest.mark.parametrize("exponent", [200, 300])
def test_err_bound_is_finite_for_tiny_normal_masses(exponent):
    """sqrt(m_min m(y)) underflows once both masses fall below about
    1e-154.  On ball_window(2, 9) with every mass scaled by 10^-exponent, all
    of them normal doubles, the bound stays finite with no warning and grows
    by 10^exponent, as the masses' root shrinks."""
    w, m, c = ball_window(2, 9)
    scale = Fraction(1, 10 ** exponent)
    tiny = FlowMeasure({v: x * scale for v, x in m.values.items()}, m.backend)
    model = cheb_approx(lambda lam: np.exp(-np.asarray(lam)), 8)
    base = cheb_column(w, m, model, c).err_bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cheb_column(w, tiny, model, c).err_bound
    assert math.isfinite(got) and got > 0
    assert got == pytest.approx(base * 10.0 ** exponent, rel=1e-12)
