import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implicitreg import (
    BOYLE_MODEL_TEXTS,
    COMPARISON_MODEL_TEXTS,
    Dataset,
    DegenerateDataError,
    Prediction,
    SimulationConfig,
    Term,
    UnsupportedModelError,
    boyle_dataset,
    fit_ols,
    generate,
)
from implicitreg import dataio, implicit
from implicitreg.errors import ImplicitRegressionError
from implicitreg.fitcore import BasisQR, FitResult
from implicitreg.formula import (TERM_POWERS, ModelSpec, format_model, parse_model,
                                 times_power)
from implicitreg.implicit import predict


def exact_inverse_dataset():
    t = np.arange(1.0, 11.0)
    return Dataset("x", "y", 200.0 / t, 20.0 * t)


def fit_on(text, data):
    return fit_ols(parse_model(text), data)


class TestPredictY:
    def test_inverse_law_point(self):
        fit = fit_on("1 ~ x*y", exact_inverse_dataset())
        probe = Dataset("x", "y", [50.0, 100.0, 20.0], [0.0, 0.0, 0.0])
        y_hat = predict(fit, probe).y_hat
        np.testing.assert_allclose(y_hat, [80.0, 40.0, 200.0], rtol=1e-8)

    def test_identity_line(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        fit = fit_on("y ~ 1 + x", data)
        probe = Dataset("x", "y", [7.0, -1.0, 0.5], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(predict(fit, probe).y_hat, [7.0, -1.0, 0.5], atol=1e-9)

    def test_boyle_non_response_overlay(self):
        # the solved pressures should sit almost on top of the data:
        # residual RMS below 1% of the mean pressure
        data = boyle_dataset()
        fit = fit_on("1 ~ x + y + x*y", data)
        y_hat = predict(fit, data).y_hat
        assert np.all(np.isfinite(y_hat))
        rms = np.sqrt(((data.y - y_hat) ** 2).mean())
        assert rms < 0.01 * data.y.mean()

    def test_singular_denominator_flagged_not_imputed(self):
        fit = fit_on("1 ~ x*y", exact_inverse_dataset())
        probe = Dataset("x", "y", [50.0, 0.0, 10.0], [1.0, 1.0, 1.0])
        y_hat = predict(fit, probe).y_hat
        assert np.isfinite(y_hat[0]) and np.isfinite(y_hat[2])
        assert np.isnan(y_hat[1])

    def test_direct_evaluation_models(self):
        data = Dataset("x", "y", [1.0, 2.0, 4.0, 5.0], [3.0, 5.0, 9.0, 11.0])
        fit = fit_on("y ~ 1 + x", data)  # y = 1 + 2x exactly
        probe = Dataset("x", "y", [10.0, 3.0, 1.0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(predict(fit, probe).y_hat, [21.0, 7.0, 3.0], atol=1e-9)


def pure_square_fit():
    """A fit of y ~ 1 + x + x^2 with coefficients exactly (0, 0, 1)."""
    from implicitreg.fitcore import FitResult
    from implicitreg.formula import ModelSpec

    spec = ModelSpec(Term.Y, (Term.X, Term.X_SQUARED), True)
    return FitResult(spec=spec, n=7, estimates=(0.0, 0.0, 1.0), sse=0.0, r_squared=1.0,
                     residual_dof=4)


class TestPredictXQuadratic:
    def test_nearest_root(self):
        probe = Dataset("x", "y", [1.5], [4.0])
        np.testing.assert_allclose(predict(pure_square_fit(), probe).x_hat, [2.0], atol=1e-12)

    def test_negative_discriminant_takes_real_part(self):
        probe = Dataset("x", "y", [1.5], [-1.0])
        pred = predict(pure_square_fit(), probe)
        np.testing.assert_allclose(pred.x_hat, [0.0], atol=1e-12)
        assert pred.x_complex.tolist() == [True]
        assert np.count_nonzero(pred.x_complex) == 1

    def test_equidistant_tie_takes_smaller_root(self):
        probe = Dataset("x", "y", [0.0], [4.0])
        np.testing.assert_allclose(predict(pure_square_fit(), probe).x_hat, [-2.0], atol=1e-12)

    def test_fitted_square_selects_nearest_root(self):
        # same behavior through an actual fit (coefficients carry float noise)
        x = np.array([-3.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        fit = fit_on("y ~ 1 + x + x^2", Dataset("x", "y", x, x * x))
        probe = Dataset("x", "y", [1.5, -1.5], [4.0, 4.0])
        np.testing.assert_allclose(predict(fit, probe).x_hat, [2.0, -2.0], atol=1e-7)

    def test_boyle_quadratic_complex_set(self):
        data = boyle_dataset()
        pred = predict(fit_on("y ~ 1 + x + x^2", data), data)
        assert np.count_nonzero(pred.x_complex) == 3
        assert pred.x_complex[:3].all() and not pred.x_complex[3:].any()


class TestPredictXOtherForms:
    def test_inverse_model(self):
        # y = 2 + 100/x exactly
        x = np.array([1.0, 2.0, 4.0, 5.0, 10.0])
        data = Dataset("x", "y", x, 2.0 + 100.0 / x)
        fit = fit_on("y ~ 1 + 1/x", data)
        np.testing.assert_allclose(predict(fit, data).x_hat, x, rtol=1e-8)

    def test_linear_solve(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0], [3.0, 5.0, 7.0])  # y = 1 + 2x
        fit = fit_on("y ~ 1 + x", data)
        probe = Dataset("x", "y", [0.0, 0.0], [9.0, 4.0])
        np.testing.assert_allclose(predict(fit, probe).x_hat, [4.0, 1.5], atol=1e-9)

    def test_intercept_only_has_no_x_solve(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
        fit = fit_on("y ~ 1", data)
        x_hat = predict(fit, data).x_hat
        assert np.isnan(x_hat).all()

    def test_mixed_square_and_reciprocal_unsupported(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(1, 10, 12)
        y = rng.uniform(1, 10, 12)
        fit = fit_on("y ~ 1 + 1/x + x^2", Dataset("x", "y", x, y))
        with pytest.raises(UnsupportedModelError) as excinfo:
            predict(fit, Dataset("x", "y", x, y))
        assert str(excinfo.value) == str(implicit.solve_error(fit))
        # the y-solve is still direct evaluation
        y_hat = np.empty((1, x.size))
        with np.errstate(**implicit.SOLVE_ERRSTATE):
            assert not implicit.solve_fits([fit], x, y, 1, y_hat).any()
        assert np.isfinite(y_hat).all()


class TestConsistency:
    """Points satisfying the fitted equation exactly must be returned."""

    CASES = [
        ("y ~ 1 + x + x*y", lambda x: (40.0 - 2.0 * x) / (1.0 - 0.01 * x)),
        ("x*y ~ 1 + x + y", lambda x: (10.0 + 3.0 * x) / (x - 0.5)),
        ("1 ~ x + y + x*y", lambda x: (1.0 - 0.002 * x) / (0.004 + 0.0001 * x)),
        ("1 ~ x*y", lambda x: 4000.0 / x),
    ]

    @pytest.mark.parametrize("text,curve", CASES)
    def test_round_trip_through_both_axes(self, text, curve):
        x = np.linspace(2.0, 9.0, 12)
        y = curve(x)
        data = Dataset("x", "y", x, y)
        fit = fit_on(text, data)
        pred = predict(fit, data)
        np.testing.assert_allclose(pred.y_hat, y, rtol=1e-9)
        np.testing.assert_allclose(pred.x_hat, x, rtol=1e-9)

    def test_rotated_x_form(self):
        y = np.linspace(2.0, 9.0, 12)
        x = (3.0 + 1.5 * y) / (1.0 - 0.02 * y)  # x = 3 + 1.5 y + 0.02 x y
        data = Dataset("x", "y", x, y)
        fit = fit_on("x ~ 1 + y + x*y", data)
        pred = predict(fit, data)
        np.testing.assert_allclose(pred.y_hat, y, rtol=1e-9)
        np.testing.assert_allclose(pred.x_hat, x, rtol=1e-9)

    def test_involution_on_exact_inverse_law(self):
        data = exact_inverse_dataset()
        fit = fit_on("1 ~ x*y", data)
        pred = predict(fit, data)
        np.testing.assert_allclose(pred.y_hat, data.y, rtol=1e-9)
        np.testing.assert_allclose(pred.x_hat, data.x, rtol=1e-9)


class TestPredictionContainer:
    def test_counts_and_masks(self):
        fit = fit_on("1 ~ x*y", exact_inverse_dataset())
        probe = Dataset("x", "y", [50.0, 0.0, 10.0], [80.0, 0.0, 400.0])
        pred = predict(fit, probe)
        assert np.count_nonzero(~pred.y_defined) == 1
        assert np.count_nonzero(~pred.x_defined) == 1
        assert pred.y_defined.tolist() == [True, False, True]
        assert pred.x_defined.tolist() == [True, False, True]

    def test_arrays_read_only(self):
        data = exact_inverse_dataset()
        pred = predict(fit_on("1 ~ x*y", data), data)
        with pytest.raises(ValueError):
            pred.y_hat[0] = 1.0

    def test_the_callers_arrays_stay_writeable(self):
        given = {"y_hat": np.array([1.0, np.nan]), "x_hat": np.array([2.0, 3.0]),
                 "x_complex": np.array([False, True])}
        pred = Prediction(**given)
        for name, arr in given.items():
            field = getattr(pred, name)
            assert arr.flags.writeable and not field.flags.writeable, name
            # a view of the caller's values, not a copy
            assert np.shares_memory(arr, field), name
        given["y_hat"][0] = 4.0
        assert pred.y_hat[0] == 4.0


# Each term as x**px * y**py, written out here so the oracle below does not
# share code with the solver it checks.
_POWERS = {None: (0, 0), Term.ONE: (0, 0), Term.X: (1, 0), Term.Y: (0, 1),
           Term.XY: (1, 1), Term.X_SQUARED: (2, 0), Term.INV_X: (-1, 0)}
_SHAPES = tuple(dict.fromkeys(COMPARISON_MODEL_TEXTS + BOYLE_MODEL_TEXTS))


def _grammar_shapes():
    """Every model the grammar admits, one per response, predictor subset
    and intercept flag, as canonical text."""
    predictors = [t for t in Term if t is not Term.ONE]
    shapes = []
    for response in (Term.ONE, Term.X, Term.Y, Term.XY):
        others = [t for t in predictors if t is not response]
        for k in range(len(others) + 1):
            for subset in itertools.combinations(others, k):
                for intercept in (False, True):
                    try:
                        shapes.append(format_model(ModelSpec(response, subset, intercept)))
                    except ValueError:
                        pass
    return tuple(shapes)


_GRAMMAR_SHAPES = _grammar_shapes()

_RTOL = 1e-9

_estimates = st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
_coords = st.floats(-10.0, 10.0).filter(lambda v: abs(v) >= 0.1)


def fit_with(text, estimates):
    """A FitResult for ``text`` whose coefficients are ``estimates``."""
    return FitResult(spec=parse_model(text), n=10, estimates=tuple(map(float, estimates)),
                     sse=1.0, r_squared=0.5, residual_dof=1)


def signed_pairs(fit):
    """The fitted equation as (c_j, term_j) with sum(c_j * term_j) = 0."""
    terms = fit.spec.coefficient_terms
    return [(1.0, fit.spec.response)] + [(-e, t) for t, e in zip(terms, fit.estimates)]


def equation_terms(fit, x, y):
    """The signed terms c_j * x**px * y**py of the fitted equation; a term
    with a zero coefficient is absent, so 0/x is no term even at x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return [c * x ** float(_POWERS[t][0]) * y ** float(_POWERS[t][1])
                for c, t in signed_pairs(fit) if c != 0.0]


def assert_satisfies(fit, x, y):
    terms = equation_terms(fit, x, y)
    residual = np.abs(sum(terms))
    scale = sum(np.abs(t) for t in terms)
    assert np.all(residual <= _RTOL * scale + 1e-300), (x, y, residual, scale)


def x_quadratic(fit, y):
    """Per observation (a, b, c) of the x-equation a x^2 + b x + c = 0."""
    coef = {p: np.zeros_like(y) for p in (-1, 0, 1, 2)}
    for c, t in signed_pairs(fit):
        px, py = _POWERS[t]
        coef[px] = coef[px] + c * y ** float(py)
    if np.any(coef[-1] != 0.0):  # 1/x: multiply through by x
        return coef[1], coef[0], coef[-1]
    return coef[2], coef[1], coef[0]


def x_solve_by_rows(fit, data):
    """The x-solve one observation at a time: the reference for the
    vectorised solve, which must match it bit for bit."""
    a, b, c = x_quadratic(fit, data.y)
    tol = 1e-12 * (max(map(abs, fit.estimates), default=0.0) or 1.0)
    x_hat = np.full(data.n, np.nan)
    flagged = np.zeros(data.n, dtype=bool)
    for i, (ai, bi, ci, xi) in enumerate(zip(a, b, c, data.x)):
        if abs(ai) <= tol:
            if abs(bi) > tol:
                x_hat[i] = -ci / bi
            continue
        disc = bi * bi - 4.0 * ai * ci
        if disc < 0.0:
            x_hat[i], flagged[i] = -bi / (2.0 * ai), True
            continue
        sq = np.sqrt(disc)
        q = -(bi + sq) / 2.0 if bi >= 0.0 else -(bi - sq) / 2.0
        r1, r2 = (0.0, 0.0) if q == 0.0 else (q / ai, ci / q)
        d1, d2 = abs(r1 - xi), abs(r2 - xi)
        x_hat[i] = r1 if d1 < d2 else r2 if d2 < d1 else min(r1, r2)
    x_hat[~np.isfinite(x_hat)] = np.nan
    return x_hat, flagged


@st.composite
def fitted_probes(draw, text):
    """A fit of shape ``text`` with random coefficients, and points to solve at."""
    n_coef = parse_model(text).n_coefficients
    estimates = draw(st.lists(_estimates, min_size=n_coef, max_size=n_coef))
    points = draw(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=12))
    probe = Dataset("x", "y", [p[0] for p in points], [p[1] for p in points])
    return fit_with(text, estimates), probe, estimates


def check_solves(fit, probe, estimates):
    """Every defined solve of ``fit`` at ``probe`` satisfies the fitted
    equation, complex flags mark negative discriminants, and of two real
    roots the one nearer the observed x is taken."""
    try:
        pred = predict(fit, probe)
    except UnsupportedModelError:
        # no closed-form x solve with both an x^2 and a 1/x term
        by_term = dict(zip(fit.spec.coefficient_terms, fit.estimates))
        assert by_term[Term.X_SQUARED] != 0.0 and by_term[Term.INV_X] != 0.0
        return
    except DegenerateDataError:
        return

    y_ok = pred.y_defined
    assert_satisfies(fit, probe.x[y_ok], pred.y_hat[y_ok])

    real = pred.x_defined & ~pred.x_complex
    assert_satisfies(fit, pred.x_hat[real], probe.y[real])

    a, b, c = x_quadratic(fit, probe.y)
    flagged = pred.x_complex
    disc = b * b - 4.0 * a * c
    assert np.all(disc[flagged] < 0.0)
    scale = max([abs(e) for e in estimates] + [1.0])
    clearly_complex = ((np.abs(a) > 1e-9 * scale)
                       & (disc < -1e-9 * (b * b + np.abs(4.0 * a * c))))
    assert np.all(flagged[clearly_complex])
    np.testing.assert_allclose(pred.x_hat[flagged],
                               -b[flagged] / (2.0 * a[flagged]), rtol=1e-12)

    two_roots = real & (a != 0.0)
    if np.any(two_roots):
        chosen = pred.x_hat[two_roots]
        other = -b[two_roots] / a[two_roots] - chosen  # Vieta: r1 + r2 = -b/a
        x_obs = probe.x[two_roots]
        slack = _RTOL * (np.abs(chosen) + np.abs(other) + np.abs(x_obs) + 1.0)
        assert np.all(np.abs(chosen - x_obs) <= np.abs(other - x_obs) + slack)


class TestSolveProperties:
    """The algebra every solve obeys, over random coefficients per model shape."""

    @pytest.mark.parametrize("text", _SHAPES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_x_solve_matches_the_row_loop(self, text, data):
        fit, probe, _ = data.draw(fitted_probes(text))
        with np.errstate(all="ignore"):
            want_x, want_flags = x_solve_by_rows(fit, probe)
        try:
            pred = predict(fit, probe)
        except DegenerateDataError:
            assert np.isnan(want_x).all()
            return
        np.testing.assert_array_equal(pred.x_hat, want_x)
        np.testing.assert_array_equal(pred.x_complex, want_flags)

    def test_the_grammar_admits_124_shapes(self):
        assert len(_GRAMMAR_SHAPES) == len(set(_GRAMMAR_SHAPES)) == 124
        assert set(_SHAPES) <= set(_GRAMMAR_SHAPES)

    @pytest.mark.parametrize("text", _GRAMMAR_SHAPES)
    def test_solves_satisfy_the_fitted_equation(self, text):
        # 60 draws for a shape the reports fit and 4 for every other shape,
        # which keeps the sweep over the whole grammar to a few seconds
        @settings(max_examples=60 if text in _SHAPES else 4, deadline=None)
        @given(data=st.data())
        def check(data):
            check_solves(*data.draw(fitted_probes(text)))

        check()

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_exact_tie_takes_the_smaller_root(self, r, s):
        # y ~ 1 + x + x^2 at y = 0 reads x^2 - (r + s) x + r s = 0, with the
        # observed x exactly halfway between the roots r and s
        fit = fit_with("y ~ 1 + x + x^2", [-r * s, r + s, -1.0])
        probe = Dataset("x", "y", [(r + s) / 2.0], [0.0])
        pred = predict(fit, probe)
        assert pred.x_hat.tolist() == [float(min(r, s))]
        assert not pred.x_complex.any()


def _reference_quadratic_solve(a, b, c, x):
    """The quadratic x-solve with every branch evaluated on every row: both
    signs of q, both divisions and -b / 2a, then the affine rows' -c / b."""
    hat = np.where(b == 0.0, np.nan, -c / b)
    affine = a == 0.0
    complex_mask = np.zeros(x.size, dtype=bool)
    if not affine.all():
        disc = b * b - 4.0 * a * c
        complex_mask = ~affine & (disc < 0.0)
        sq = np.sqrt(disc)
        q = np.where(b >= 0.0, -(b + sq) / 2.0, -(b - sq) / 2.0)
        r1 = np.where(q == 0.0, 0.0, q / a)
        r2 = np.where(q == 0.0, 0.0, c / q)
        d1, d2 = np.abs(r1 - x), np.abs(r2 - x)
        smaller = np.where(r2 < r1, r2, r1)
        nearest = np.where(d1 < d2, r1, np.where(d2 < d1, r2, smaller))
        hat = np.where(affine, hat, np.where(complex_mask, -b / (2.0 * a), nearest))
    hat[~np.isfinite(hat)] = np.nan
    return hat, complex_mask


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_COEF = st.one_of(_SIGNED_ZERO, st.integers(-4, 4).map(float),
                  st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def _quadratic_rows(draw):
    """One row (a, b, c, x) of a x^2 + b x + c = 0, often at an edge."""
    kind = draw(st.sampled_from(["any", "b_zero", "double", "tie", "q_zero", "complex"]))
    s = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0]))
    r, t = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    x = draw(_COEF)
    if kind == "any":  # a may vanish, any coefficient may be -0.0
        return draw(_COEF), draw(_COEF), draw(_COEF), x
    if kind == "b_zero":  # +-0.0 takes the b >= 0 branch of q
        return draw(_COEF), draw(_SIGNED_ZERO), draw(_COEF), x
    if kind == "double":  # disc == 0 exactly: the double root r
        return s, -2.0 * s * r, s * r * r, x
    if kind == "tie":  # the observed x exactly halfway between r and t
        return s, -s * (r + t), s * r * t, (r + t) / 2.0
    if kind == "q_zero":  # b = c = 0 gives q = +-0
        return draw(_COEF), draw(_SIGNED_ZERO), draw(_SIGNED_ZERO), x
    return s, float(r), s * (r * r + abs(t) + 1), x  # disc < 0


class TestQuadraticXSolve:
    @given(st.lists(_quadratic_rows(), min_size=1, max_size=40))
    def test_matches_the_every_branch_reference_bit_for_bit(self, rows):
        # row k is the x-solve at y = c of y ~ 1 + x + x^2 with estimates
        # (0, -b, -a), whose x-equation is a x^2 + b x + c = 0: one stacked
        # solve of every row's fit on the block of all rows, read on the
        # diagonal.  Each coefficient is summed from zero, so 0.0 + v is what
        # the solve sees of a drawn v (a -0.0 becomes +0.0), and the single
        # addend of a or b vanishes exactly where it is zero.
        a, b, c, x = (0.0 + np.array(col) for col in zip(*rows))
        fits = [fit_with("y ~ 1 + x + x^2", [0.0, -bk, -ak]) for ak, bk in zip(a, b)]
        est = np.empty((len(rows), len(rows)))
        with np.errstate(**implicit.SOLVE_ERRSTATE):
            complex_mask = implicit.solve_fits(fits, x, c, 0, est)
        with np.errstate(all="ignore"):
            want, want_complex = _reference_quadratic_solve(a, b, c, x)
        assert est.diagonal().view(np.int64).tolist() == want.view(np.int64).tolist()
        assert complex_mask.diagonal().tolist() == want_complex.tolist()


def _reference_polynomial(fit, x, y, axis):
    """The fitted equation over one row block as a polynomial in x
    (``axis=0``) or y (``axis=1``): per power of the solved axis, its
    coefficient summed from zero, and the addends summed into it."""
    other = x if axis else y
    coefs = defaultdict(lambda: np.zeros(x.size))
    addends = defaultdict(list)
    signed = [(1.0, fit.spec.response)]
    signed += ((-estimate, Term.ONE if term is None else term)
               for term, estimate in zip(fit.spec.coefficient_terms, fit.estimates))
    for c, term in signed:
        powers = TERM_POWERS[term]
        addend = times_power(c, other, powers[1 - axis])
        coefs[powers[axis]] += addend
        addends[powers[axis]].append(addend)
    return coefs, addends


def _reference_vanishes(coef, addends):
    return np.abs(coef) <= 1e-12 * sum(np.abs(addend) for addend in addends)


def reference_solve_block(fit, x, y, axis):
    """One fit's solve on one row block, each fit on its own: the solve that
    ``solve_fits`` stacks, which must match it bit for bit.  Returns
    (solves, complex_mask), or raises ``UnsupportedModelError``."""
    coefs, addends = _reference_polynomial(fit, x, y, axis)
    low = (-1 if -1 in coefs and not _reference_vanishes(coefs[-1], addends[-1]).all()
           else 0)
    if low and coefs[2].any():
        raise UnsupportedModelError(f"{fit.spec} mixes x^2 and 1/x; no closed-form x solve")
    b, c = coefs[low + 1], coefs[low]
    hat = np.where(_reference_vanishes(b, addends[low + 1]), np.nan, -c / b)
    complex_mask = np.zeros(x.size, dtype=bool)
    a = coefs.get(low + 2)
    affine = None if a is None else _reference_vanishes(a, addends[low + 2])
    if affine is not None and not affine.all():
        disc = b * b - 4.0 * a * c
        complex_mask = ~affine & (disc < 0.0)
        sq = np.sqrt(disc)
        np.negative(sq, out=sq, where=b < 0.0)
        q = -(b + sq) / 2.0
        r1, r2 = q / a, c / q
        zero = q == 0.0
        r1[zero] = r2[zero] = 0.0
        d1, d2 = np.abs(r1 - x), np.abs(r2 - x)
        smaller = np.where(r2 < r1, r2, r1)
        nearest = np.where(d1 < d2, r1, np.where(d2 < d1, r2, smaller))
        nearest[complex_mask] = -b[complex_mask] / (2.0 * a[complex_mask])
        nearest[affine] = hat[affine]
        hat = nearest
    hat[~np.isfinite(hat)] = np.nan
    return hat, complex_mask


def _random_fits(rng, texts):
    """A fit per text with estimates of mixed signs and magnitudes, a third
    of them exactly zero, so that coefficients vanish on some rows or all."""
    fits = []
    for text in texts:
        n_coef = parse_model(text).n_coefficients
        estimates = rng.choice([0.0, 1.0, -1.0], n_coef, p=[1 / 3, 1 / 3, 1 / 3])
        fits.append(fit_with(text, estimates * 10.0 ** rng.uniform(-3.0, 3.0, n_coef)))
    return fits


class TestStackedSolveOracle:
    """``solve_fits`` of fits one at a time, of the solvable ones in one call
    and of all in one call is bit for bit ``reference_solve_block`` of each
    fit alone, with the same complex masks; a call handed a fit with the
    x^2-and-1/x error raises the first such fit's."""

    def check_blocks(self, fits, data):
        seen = dict.fromkeys(("undefined", "complex", "unsupported"), 0)
        for x, y in data.row_blocks():
            for axis in (1, 0):
                want = []
                with np.errstate(**implicit.SOLVE_ERRSTATE):
                    for fit in fits:
                        try:
                            want.append(reference_solve_block(fit, x, y, axis))
                        except UnsupportedModelError as exc:
                            want.append(str(exc))
                solvable = [k for k, w in enumerate(want) if isinstance(w, tuple)]
                for group in [[k] for k in range(len(fits))] + [solvable, list(range(len(fits)))]:
                    failing = [want[k] for k in group if isinstance(want[k], str)]
                    est = np.empty((len(group), x.size))
                    with np.errstate(**implicit.SOLVE_ERRSTATE):
                        try:
                            complex_mask = implicit.solve_fits([fits[k] for k in group],
                                                               x, y, axis, est)
                        except UnsupportedModelError as exc:
                            assert failing and str(exc) == failing[0]
                            continue
                    assert not failing, failing
                    for row, k in enumerate(group):
                        hat, want_complex = want[k]
                        assert est[row].view(np.int64).tolist() == hat.view(np.int64).tolist()
                        assert complex_mask[row].tolist() == want_complex.tolist()
                seen["unsupported"] += len(want) - len(solvable)
                seen["undefined"] += sum(np.isnan(want[k][0]).sum() for k in solvable)
                seen["complex"] += sum(want[k][1].sum() for k in solvable)
        return seen

    def test_every_grammar_shape_at_n_50(self):
        rng = np.random.default_rng(5)
        sample = generate(SimulationConfig(n=50, sigma=5.0, seed=11))
        fits = BasisQR(sample).fits([parse_model(text) for text in _GRAMMAR_SHAPES])
        assert not any(isinstance(fit, ImplicitRegressionError) for fit in fits)
        fits += _random_fits(rng, _GRAMMAR_SHAPES) + _random_fits(rng, _GRAMMAR_SHAPES)
        # x = 0 and y = 0 rows make 1/x infinite and x- or y-terms vanish;
        # at y just off 1/3 the x-coefficient 1 - 3y of x ~ 2 + y + 3xy
        # vanishes by rounding, but is not zero
        near = fit_with("x ~ 1 + y + x*y", [2.0, 1.0, 3.0])
        fits.append(near)
        x, y = sample.x.copy(), sample.y.copy()
        x[[3, 17, 40]] = 0.0
        y[[8, 17]] = 0.0
        y[[20, 21]] = [0.33333333333333326, 0.3333333333333334]
        assert (1.0 - 3.0 * y[[20, 21]] != 0.0).all()
        data = Dataset("x", "y", x, y)
        seen = self.check_blocks(fits, data)
        assert min(seen.values()) > 0, seen
        assert np.isnan(predict(near, data).x_hat[[20, 21]]).all()

    def test_the_listed_shapes_over_three_row_blocks(self):
        n = 2 * dataio._BLOCK_ROWS + 5
        sample = generate(SimulationConfig(n=n, sigma=5.0, seed=4))
        fits = BasisQR(sample).fits([parse_model(text) for text in _SHAPES])
        fits += _random_fits(np.random.default_rng(6), _SHAPES)
        fits.insert(3, fit_with("y ~ 1 + 1/x + x^2", [1.0, 2.0, 3.0]))
        x = sample.x.copy()
        x[::dataio._BLOCK_ROWS // 2] = 0.0
        seen = self.check_blocks(fits, Dataset("x", "y", x, sample.y))
        assert min(seen.values()) > 0, seen



# estimates at the edges of "nonzero": both zeros, NaN, and magnitudes so
# small that 1e-12 of them underflows
_EDGE_ESTIMATES = (0.0, -0.0, np.nan, 1e-300, -1e-300, 5e-324)


class TestSolveErrorOracle:
    """``solve_error(fit)`` is an error exactly where ``reference_solve_block``
    raises on the x-solve, never where it solves y, and ``solve_fits`` raises
    it on exactly those solves; on every other solve it keeps the bits."""

    def test_every_grammar_shape_with_edge_estimates(self):
        rng = np.random.default_rng(9)
        fits = []
        for _ in range(30):
            for fit in _random_fits(rng, _GRAMMAR_SHAPES):
                # about half the estimates replaced by an edge value
                edge = rng.choice(_EDGE_ESTIMATES, len(fit.estimates))
                estimates = np.where(rng.random(len(fit.estimates)) < 0.5, edge, fit.estimates)
                fits.append(fit_with(format_model(fit.spec), estimates))
        # every pair of x^2 and 1/x estimates, edges and a plain value
        values = (*_EDGE_ESTIMATES, 2.5)
        fits += [fit_with("y ~ 1 + x^2 + 1/x", [1.0, sq, inv])
                 for sq in values for inv in values]
        sample = generate(SimulationConfig(n=12, sigma=5.0, seed=2))
        x, y = sample.x.copy(), sample.y.copy()
        x[[2, 7]] = 0.0
        y[[5, 7]] = 0.0
        outcomes = defaultdict(int)
        for fit in fits:
            error = implicit.solve_error(fit)
            for axis in (1, 0):
                est = np.empty((1, x.size))
                with np.errstate(**implicit.SOLVE_ERRSTATE):
                    try:
                        hat, want_complex = reference_solve_block(fit, x, y, axis)
                        want = None
                    except UnsupportedModelError as exc:
                        want = str(exc)
                    try:
                        complex_mask = implicit.solve_fits([fit], x, y, axis, est)
                        got = None
                    except UnsupportedModelError as exc:
                        got = str(exc)
                label = (format_model(fit.spec), fit.estimates, axis)
                assert (None if axis or error is None else str(error)) == want, label
                assert got == want, label
                if want is None:
                    assert est[0].view(np.int64).tolist() == hat.view(np.int64).tolist(), label
                    assert complex_mask[0].tolist() == want_complex.tolist(), label
                by_term = dict(zip(fit.spec.coefficient_terms, fit.estimates))
                nonzero = tuple(bool(by_term.get(t)) for t in (Term.X_SQUARED, Term.INV_X))
                outcomes[axis, nonzero, want is not None] += 1
        # x^2 or 1/x alone nonzero solves for x, and both nonzero err on
        # every x-solve and no y-solve
        assert outcomes[0, (True, False), False] and outcomes[0, (False, True), False]
        assert outcomes[0, (True, True), True] and outcomes[1, (True, True), False]
        assert not outcomes[0, (True, True), False] and not outcomes[1, (True, True), True]


def _solve_outcome(fit, data):
    """The bits of ``predict``, or the type and message of its error."""
    try:
        pred = predict(fit, data)
    except ImplicitRegressionError as exc:
        return type(exc), str(exc)
    return pred.y_hat.tobytes(), pred.x_hat.tobytes(), pred.x_complex.tobytes()


class TestRowBlocks:
    def test_seven_row_blocks_solve_every_shape_as_one_block(self, monkeypatch):
        raised = []

        class CountedUnsupported(UnsupportedModelError):
            def __init__(self, *args):
                raised.append(args)
                super().__init__(*args)

        monkeypatch.setattr(implicit, "UnsupportedModelError", CountedUnsupported)
        sample = generate(SimulationConfig(n=30, sigma=5.0, seed=11))
        fits = BasisQR(sample).fits([parse_model(text) for text in _GRAMMAR_SHAPES])
        assert not any(isinstance(fit, ImplicitRegressionError) for fit in fits)
        with_zero = generate(SimulationConfig(n=23, sigma=5.0, seed=12))
        x = with_zero.x.copy()
        x[9] = 0.0
        line = np.arange(1.0, 21.0)
        probes = [Dataset("x", "y", x, with_zero.y), Dataset("x", "y", line, 2.0 * line)]
        probes += [Dataset("x", "y", sample.x[:n], sample.y[:n]) for n in (0, 1, 4)]
        whole = [_solve_outcome(fit, probe) for fit in fits for probe in probes]
        raised.clear()
        # 23 rows in blocks of 7, 7, 7 and 2, with x = 0 in the second; 20
        # in 7, 7 and 6; n = 0, 1 and 4 stay one block
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 7)
        blocked = [_solve_outcome(fit, probe) for fit in fits for probe in probes]
        assert blocked == whole
        # the x^2-and-1/x error is raised once per solve, not once per block
        unsupported = [o for o in blocked if o[0] is CountedUnsupported]
        assert unsupported and len(raised) == len(unsupported)

    def test_three_row_blocks_predict_as_one_block(self, monkeypatch):
        # predict walks the row blocks into its n-row arrays, y then x per
        # block; 1 ~ x*y also on a copy with x = 0 in every block, and
        # y = 100 + x + x^2, whose x-solves are complex where y < 99.75
        n = 2 * dataio._BLOCK_ROWS + 5
        sample = generate(SimulationConfig(n=n, sigma=5.0, seed=7))
        x = sample.x.copy()
        x[::dataio._BLOCK_ROWS // 2] = 0.0
        with_zeros = Dataset("x", "y", x, sample.y)
        cases = [(fit_on(text, sample), sample)
                 for text in ("y ~ 1 + x + x^2", "1 ~ x*y", "y ~ 1 + 1/x")]
        cases.append((fit_with("y ~ 1 + x + x^2", [100.0, 1.0, 1.0]), sample))
        cases.append((fit_on("1 ~ x*y", with_zeros), with_zeros))
        blocked = [_solve_outcome(fit, data) for fit, data in cases]
        assert 0 < predict(*cases[3]).x_complex.sum() < n
        assert np.isnan(predict(*cases[-1]).y_hat).sum() == 5
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", n)
        assert blocked == [_solve_outcome(fit, data) for fit, data in cases]
