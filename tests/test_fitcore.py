import contextlib
import io
import itertools
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.special import stdtr, stdtrit

from implicitreg import (
    Dataset,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    ModelSpec,
    SingularDesignError,
    Term,
    boyle_dataset,
    boyle_summary,
    build_comparison,
    constancy_index,
    fit_ols,
    read_csv,
    self_weighting_mean,
)
from implicitreg import compare, dataio, fitcore
from implicitreg.cli import main
from implicitreg.errors import ImplicitRegressionError
from implicitreg.compare import BOYLE_MODEL_TEXTS, COMPARISON_MODEL_TEXTS
from implicitreg.fitcore import (ALPHA, BasisQR, Coefficient, next_to_drop, reduce_model_trace,
                                 reduce_models, t_tail)
from implicitreg.formula import eval_term, parse_model
from implicitreg.simulate import SimulationConfig, generate
from exact_oracle import ExactFit, exact_fit
from test_implicit import _GRAMMAR_SHAPES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def model_design(spec, data):
    """A model's design columns (intercept first) and its response, built
    from ``eval_term`` alone, for the oracles to solve independently."""
    terms = ([Term.ONE] if spec.intercept else []) + list(spec.predictors)
    X = np.column_stack([eval_term(term, data.x, data.y) for term in terms])
    return X, eval_term(spec.response, data.x, data.y)


def exact_inverse_dataset():
    """x = 200/t, y = 20 t over t = 1..10; x*y = 4000 identically."""
    t = np.arange(1.0, 11.0)
    return Dataset("x", "y", 200.0 / t, 20.0 * t)


class TestFitOls:
    def test_intercept_only_is_arithmetic_mean(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        fit = fit_ols(parse_model("y ~ 1"), data)
        assert fit.coefficients[0].estimate == pytest.approx(4.0, abs=1e-12)

    def test_noiseless_non_response_recovers_inverse_law(self):
        data = exact_inverse_dataset()
        fit = fit_ols(parse_model("1 ~ x + y + x*y"), data)
        estimates = [c.estimate for c in fit.coefficients]
        assert estimates[0] == pytest.approx(0.0, abs=1e-8)
        assert estimates[1] == pytest.approx(0.0, abs=1e-8)
        assert estimates[2] == pytest.approx(1.0 / 4000.0, abs=1e-8)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_non_response_grid_refinement_oracle(self):
        # Independent check that (0, 0, 1/4000) minimizes the residual sum
        # of squares: refine a brute-force grid around the solution and
        # confirm the center always beats every neighbor.
        data = exact_inverse_dataset()
        X, _ = model_design(parse_model("1 ~ x + y + x*y"), data)
        target = np.ones(data.n)

        def sse(coefs):
            r = target - X @ np.asarray(coefs)
            return float(r @ r)

        center = np.array([0.0, 0.0, 1.0 / 4000.0])
        spans = np.array([1e-3, 1e-3, 1e-5])
        for _ in range(4):
            best = min(
                itertools.product(*[(-1, 0, 1)] * 3),
                key=lambda steps: sse(center + spans * np.asarray(steps)),
            )
            assert best == (0, 0, 0)
            spans /= 8.0
        assert sse(center) < 1e-20

    def test_exact_line(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        fit = fit_ols(parse_model("y ~ 1 + x"), data)
        assert fit.coefficients[0].estimate == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficients[1].estimate == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.sse == pytest.approx(0.0, abs=1e-24)

    def test_inference_matches_linregress(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 10, 40)
        y = 3.0 + 0.7 * x + rng.normal(0, 1.5, 40)
        fit = fit_ols(parse_model("y ~ 1 + x"), Dataset("x", "y", x, y))
        ref = stats.linregress(x, y)
        intercept, slope = fit.coefficients
        assert slope.estimate == pytest.approx(ref.slope, rel=1e-12)
        assert intercept.estimate == pytest.approx(ref.intercept, rel=1e-12)
        assert slope.std_error == pytest.approx(ref.stderr, rel=1e-10)
        assert intercept.std_error == pytest.approx(ref.intercept_stderr, rel=1e-10)
        assert slope.p_value == pytest.approx(ref.pvalue, rel=1e-9)
        assert fit.r_squared == pytest.approx(ref.rvalue ** 2, rel=1e-12)

    def test_singular_design_names_collinear_column(self):
        data = Dataset("x", "y", [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SingularDesignError, match="x"):
            fit_ols(parse_model("y ~ 1 + x + x^2"), data)

    def test_insufficient_data(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            fit_ols(parse_model("y ~ 1 + x + x^2"), data)

    def test_pythagorean_identity_with_intercept(self):
        rng = np.random.default_rng(3)
        for spec_text in ("y ~ 1 + x", "y ~ 1 + x + x*y", "x*y ~ 1 + x + y"):
            x = rng.uniform(1, 10, 30)
            y = rng.uniform(1, 10, 30)
            spec = parse_model(spec_text)
            fit = fit_ols(spec, Dataset("x", "y", x, y))
            resp = eval_term(spec.response, x, y)
            fitted = sum(c.estimate * eval_term(c.term or Term.ONE, x, y)
                         for c in fit.coefficients)
            ssm = float(((fitted - resp.mean()) ** 2).sum())
            sst = float(((resp - resp.mean()) ** 2).sum())
            assert ssm + fit.sse == pytest.approx(sst, rel=1e-8)
            assert fit.r_squared == pytest.approx(1.0 - fit.sse / sst, rel=1e-12)

    def test_recovers_generating_coefficients(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1, 10, 25)
        a0, a1, a2 = 4.0, -2.0, 0.01
        y = (a0 + a1 * x) / (1.0 - a2 * x)  # satisfies y = a0 + a1 x + a2 x y
        fit = fit_ols(parse_model("y ~ 1 + x + x*y"), Dataset("x", "y", x, y))
        recovered = [c.estimate for c in fit.coefficients]
        assert recovered == pytest.approx([a0, a1, a2], abs=1e-8)

    def test_nested_models_never_lose_r_squared(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(1, 10, 30)
            y = rng.uniform(1, 10, 30)
            data = Dataset("x", "y", x, y)
            small = fit_ols(parse_model("y ~ 1 + x"), data)
            big = fit_ols(parse_model("y ~ 1 + x + x*y"), data)
            assert big.r_squared >= small.r_squared - 1e-12

    def test_p_values_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(1, 10, 15)
            y = rng.uniform(1, 10, 15)
            fit = fit_ols(parse_model("y ~ 1 + x + x^2"), Dataset("x", "y", x, y))
            for coef in fit.coefficients:
                assert 0.0 <= coef.p_value <= 1.0

    def test_non_response_r_squared_is_uncentered(self):
        data = exact_inverse_dataset()
        fit = fit_ols(parse_model("1 ~ x*y"), data)
        sum_sq = float((eval_term(Term.ONE, data.x, data.y) ** 2).sum())
        assert fit.r_squared == pytest.approx(1.0 - fit.sse / sum_sq)
        assert fit.residual_dof == data.n - 1

    def test_intercept_only_r_squared_is_the_constancy_index(self):
        # centered, a constant fit's R^2 would be 0 by construction
        rng = np.random.default_rng(8)
        data = Dataset("x", "y", rng.uniform(1, 10, 20), rng.uniform(1, 10, 20))
        fit = fit_ols(parse_model("y ~ 1"), data)
        assert fit.r_squared == pytest.approx(constancy_index(data.y), rel=1e-12)

    @pytest.mark.parametrize("k", [-200, -60, -1, 0, 1, 60, 200])
    @pytest.mark.parametrize("level", [2.0, 0.1])
    def test_fits_exact_up_to_rounding_on_a_constant_response(self, level, k):
        # on x = 1..5 these fits leave an SSE of order 1e-31 (times the
        # scale squared) against an SST of 0 or below rounding: R^2 is 1,
        # and compare ranks them ahead of 1 ~ x*y
        s = 2.0 ** k
        data = Dataset("x", "y", [s * v for v in range(1, 6)], [s * level] * 5)
        texts = ("y ~ 1 + 1/x", "y ~ 1 + x + x^2")
        fits = BasisQR(data).fits([parse_model(text) for text in ("y ~ 1 + x", *texts)])
        for text, fit in zip(("y ~ 1 + x", *texts), fits):
            assert fit.r_squared == 1.0, text
        rows = {row.model: row for row in build_comparison(data).rows}
        for text in texts:
            assert rows[text].r_squared == 1.0
            assert rows[text].ranks["r_squared"] < rows["1 ~ x*y"].ranks["r_squared"]


class TestSelfWeightingMean:
    def test_constant_data(self):
        for c in (3.0, -2.5, 1e-3):
            assert self_weighting_mean([c, c, c]) == pytest.approx(c, rel=1e-12)

    def test_hand_computed_example(self):
        assert self_weighting_mean([1.0, 3.0]) == pytest.approx(2.5)

    def test_degenerate_sum(self):
        with pytest.raises(DegenerateDataError):
            self_weighting_mean([1.0, -1.0])

    def test_dominates_arithmetic_mean_on_positive_data(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            v = rng.uniform(0.1, 50, rng.integers(2, 40))
            assert self_weighting_mean(v) >= v.mean() - 1e-12

    @given(
        st.lists(st.floats(0.5, 100), min_size=1, max_size=30),
        st.floats(0.01, 100).filter(lambda c: abs(c) > 1e-6),
    )
    def test_scaling(self, values, c):
        v = np.array(values)
        assert self_weighting_mean(c * v) == pytest.approx(
            c * self_weighting_mean(v), rel=1e-9
        )

    def test_scaling_by_powers_of_two_is_exact(self):
        v = np.array([1.25, 3.5, 7.0, 0.375])
        for c in (2.0, 0.5, 8.0):
            assert self_weighting_mean(c * v) == c * self_weighting_mean(v)


class TestConstancyIndex:
    def test_constant_is_exactly_one(self):
        assert constancy_index([0.1, 0.1, 0.1]) == 1.0
        assert constancy_index([-7.0] * 11) == 1.0

    def test_hand_computed_example(self):
        assert constancy_index([1.0, 3.0]) == pytest.approx(0.8)

    def test_non_constant_below_one(self):
        assert constancy_index([1.0, 2.0]) < 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDataError):
            constancy_index([0.0, 0.0])

    @given(st.lists(st.floats(0.5, 100), min_size=1, max_size=30))
    def test_in_unit_interval(self, values):
        assert 0.0 <= constancy_index(values) <= 1.0

    @given(
        st.lists(st.floats(0.5, 100), min_size=2, max_size=30),
        st.sampled_from([2.0, -1.0, 0.25, 3.0, -128.0]),
    )
    def test_scale_invariance(self, values, c):
        v = np.array(values)
        assert constancy_index(c * v) == pytest.approx(constancy_index(v), rel=1e-12)

    def test_equals_uncentered_r_squared_of_non_response_fit(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            v = rng.uniform(0.5, 20, 12)
            data = Dataset("x", "y", v, rng.uniform(0.5, 20, 12))
            fit = fit_ols(parse_model("1 ~ x"), data)
            assert constancy_index(v) == pytest.approx(fit.r_squared, abs=1e-12)
            # and the self-weighting mean is the reciprocal coefficient
            assert self_weighting_mean(v) == pytest.approx(
                1.0 / fit.coefficients[0].estimate, rel=1e-10
            )


class TestReduceModel:
    def test_drops_interaction_absorbed_by_intercept(self):
        data = generate(SimulationConfig(n=50, sigma=5.0, seed=12345))
        fit = fit_ols(parse_model("y ~ 1 + x + x*y"), data)
        assert fit.coefficient(Term.XY).p_value > 0.05
        reduced = reduce_model_trace(fit)[0]
        assert reduced.spec == parse_model("y ~ 1 + x")

    def test_constant_rotation_reduces_to_intercept_only(self):
        data = generate(SimulationConfig(n=50, sigma=5.0, seed=12345))
        fit = fit_ols(parse_model("x*y ~ 1 + x + y"), data)
        reduced, steps = reduce_model_trace(fit)
        assert reduced.spec == ModelSpec(Term.XY, (), True)
        assert len(steps) == 2
        assert all(c.p_value > 0.05 for c in steps)

    def test_all_significant_unchanged(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 10, 60)
        y = 5.0 + 2.0 * x + rng.normal(0, 0.1, 60)
        data = Dataset("x", "y", x, y)
        fit = fit_ols(parse_model("y ~ 1 + x"), data)
        assert reduce_model_trace(fit)[0].spec == fit.spec

    def test_exact_fit_unchanged(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        fit = fit_ols(parse_model("y ~ 1 + x"), data)
        reduced = reduce_model_trace(fit)[0]
        assert reduced.spec == fit.spec
        assert fit.coefficient(Term.X).p_value < 1e-6

    def test_no_intercept_model_keeps_one_predictor(self):
        # pure noise: nothing is significant, but the non-response form
        # must keep at least one estimated coefficient
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 40)
        y = rng.normal(0, 1, 40)
        data = Dataset("x", "y", x, y)
        fit = fit_ols(parse_model("1 ~ x + y + x*y"), data)
        reduced = reduce_model_trace(fit)[0]
        assert not reduced.spec.intercept
        assert len(reduced.spec.predictors) >= 1


# every model shape the reports fit, plus the intercept-only p = 1 model
_ORACLE_SHAPES = tuple(dict.fromkeys(COMPARISON_MODEL_TEXTS + BOYLE_MODEL_TEXTS + ("y ~ 1",)))


@st.composite
def _samples(draw):
    n = draw(st.integers(6, 30))
    coords = st.lists(st.floats(0.5, 50.0), min_size=n, max_size=n, unique=True)
    return Dataset("x", "y", draw(coords), draw(coords))


def _solve_triangular_reference(spec, data):
    """Coefficients and standard errors through scipy's triangular solver."""
    X, resp = model_design(spec, data)
    n, p = X.shape
    Q, R = np.linalg.qr(X)
    coefs = solve_triangular(R, Q.T @ resp)
    residuals = resp - X @ coefs
    # the exact-fit floor: 1e-26 of the response's own sum of squares
    sigma2 = max(float(residuals @ residuals), 1e-26 * float(resp @ resp),
                 np.finfo(float).tiny) / (n - p)
    r_inv = solve_triangular(R, np.eye(p))
    return coefs, np.sqrt(sigma2 * (r_inv ** 2).sum(axis=1))


class TestFitOlsOracle:
    """fit_ols needs only numpy and its own t tail; scipy.stats and
    scipy.linalg are the reference it must agree with."""

    @settings(max_examples=150, deadline=None)
    @given(text=st.sampled_from(_ORACLE_SHAPES), data=_samples())
    def test_matches_scipy_reference(self, text, data):
        spec = parse_model(text)
        try:
            fit = fit_ols(spec, data)
        except SingularDesignError:
            assume(False)
        estimates = np.array([c.estimate for c in fit.coefficients])
        std_errors = np.array([c.std_error for c in fit.coefficients])
        t_stats = np.array([c.t_stat for c in fit.coefficients])
        p_values = np.array([c.p_value for c in fit.coefficients])

        ref_coefs, ref_se = _solve_triangular_reference(spec, data)
        np.testing.assert_allclose(estimates, ref_coefs, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref_coefs).max())
        np.testing.assert_allclose(std_errors, ref_se, rtol=1e-13, atol=0.0)
        # dof <= 30 here; an exact fit's far tail (|t| > 40) agrees to 1.9e-13,
        # and a subnormal p only to an absolute 1e-303
        np.testing.assert_allclose(
            p_values, 2.0 * stats.t.sf(np.abs(t_stats), fit.residual_dof),
            rtol=max(_tail_rtol(fit.residual_dof), 3e-13), atol=1e-300)


def _lstsq_reference(spec, data):
    """Coefficients by ``np.linalg.lstsq`` on the model's own design, and
    standard errors from that design's singular values."""
    X, resp = model_design(spec, data)
    n, p = X.shape
    coefs = np.linalg.lstsq(X, resp, rcond=None)[0]
    residuals = resp - X @ coefs
    sigma2 = float(residuals @ residuals) / (n - p)
    _, sv, vt = np.linalg.svd(X, full_matrices=False)
    return coefs, np.sqrt(sigma2 * ((vt.T / sv) ** 2).sum(axis=1))


def _assert_fit_matches(fit, coefs, std_errors, rtol):
    estimates = np.array([c.estimate for c in fit.coefficients])
    np.testing.assert_allclose(estimates, coefs, rtol=rtol,
                               atol=rtol * np.abs(coefs).max())
    np.testing.assert_allclose([c.std_error for c in fit.coefficients],
                               std_errors, rtol=rtol, atol=0.0)


def _oracle_elimination(spec, data):
    """Backward elimination that refits every step by lstsq and drops the
    first largest stdtr p-value above ALPHA; returns (spec, dropped terms)."""
    dropped = []
    while spec.predictors and (spec.intercept or len(spec.predictors) > 1):
        coefs, std_errors = _lstsq_reference(spec, data)
        dof = data.n - spec.n_coefficients
        offset = 1 if spec.intercept else 0
        p_values = [float(2.0 * stdtr(dof, -abs(coefs[offset + i] / std_errors[offset + i])))
                    for i in range(len(spec.predictors))]
        worst = max(range(len(p_values)), key=p_values.__getitem__)
        if p_values[worst] <= ALPHA:
            break
        dropped.append(spec.predictors[worst])
        spec = ModelSpec(spec.response,
                         tuple(t for t in spec.predictors if t is not dropped[-1]),
                         spec.intercept)
    return spec, dropped


def _recording_qr(monkeypatch):
    """Record the shape of every ``np.linalg.qr`` input; returns the list."""
    shapes = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return shapes


class TestBasisQR:
    """One factorisation per dataset drives every fit and refit; independent
    oracles solve each model's own design."""

    @settings(max_examples=100, deadline=None)
    @given(data=_samples())
    def test_every_shape_from_one_factorisation_matches_lstsq(self, data):
        specs = [parse_model(text) for text in _ORACLE_SHAPES]
        for spec, fit in zip(specs, BasisQR(data).fits(specs)):
            if isinstance(fit, SingularDesignError):
                continue
            # within 1e-6 RMS of an exact fit, SSE and so the SEs are set by
            # the rounding of each solver's residuals
            resp = eval_term(spec.response, data.x, data.y)
            if fit.sse <= 1e-12 * float((resp ** 2).sum()):
                continue
            _assert_fit_matches(fit, *_lstsq_reference(spec, data), rtol=1e-10)

    def test_row_blocks_agree_with_one_block(self, monkeypatch):
        n = 3 * dataio._BLOCK_ROWS + 1
        data = generate(SimulationConfig(n=n, sigma=5.0, seed=4))
        blocked = BasisQR(data)
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", n)
        whole = BasisQR(data)
        specs = [parse_model(text) for text in _ORACLE_SHAPES]
        for fit, blocked_fit in zip(whole.fits(specs), blocked.fits(specs)):
            _assert_fit_matches(blocked_fit, [c.estimate for c in fit.coefficients],
                                [c.std_error for c in fit.coefficients], rtol=1e-12)

    @pytest.mark.parametrize("text, collinear", [
        ("x*y ~ 1 + x + y", "y"),
        ("1 ~ x + y + x*y", "y"),
        ("y ~ 1 + x + x*y", None),
        ("x ~ 1 + y + x*y", None),
        ("y ~ 1 + 1/x", None),
        ("y ~ 1 + x + x^2", None),
        ("1 ~ x*y", None),
    ])
    def test_rank_check_on_a_noiseless_line(self, text, collinear):
        # y = 2x: y repeats x, and the design rank drops only where both
        # enter as columns
        x = np.arange(1.0, 11.0)
        data = Dataset("x", "y", x, 2.0 * x)
        if collinear is None:
            fit_ols(parse_model(text), data)
        else:
            with pytest.raises(SingularDesignError,
                               match=f"collinear column\\(s\\): {collinear}$"):
                fit_ols(parse_model(text), data)

    def test_x_zero_fails_only_the_inverse_fits(self):
        data = Dataset("x", "y", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                       [5.1, 3.9, 3.2, 2.1, 0.8, 0.1])
        specs = [parse_model(text) for text in _ORACLE_SHAPES]
        for spec, fit in zip(specs, BasisQR(data).fits(specs)):
            if Term.INV_X in spec.predictors:
                assert isinstance(fit, DomainError)
                assert str(fit) == "1/x is undefined at x = 0"
            else:
                _assert_fit_matches(fit, *_lstsq_reference(spec, data), rtol=1e-10)

    def test_an_overflowing_column_fails_only_the_fits_that_use_it(self):
        # x alone times 2^510: x^2 overflows, and 1/x, factored after it, has
        # a NaN norm; x*y and the other columns stay finite, with no warning
        sample = generate(SimulationConfig(n=30, sigma=5.0, seed=0))
        data = Dataset("x", "y", sample.x * 2.0 ** 510, sample.y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = BasisQR(data)
        assert basis.overflowed == {Term.X_SQUARED, Term.INV_X}
        specs = [parse_model(text) for text in _ORACLE_SHAPES]
        for spec, fit in zip(specs, basis.fits(specs)):
            uses = {spec.response, *spec.predictors}
            if uses & basis.overflowed:
                assert type(fit) is ImplicitRegressionError
                assert str(fit) == f"a basis column of {spec} overflows"
            elif spec.response in (Term.X, Term.XY):  # norms past sqrt(max float)
                assert str(fit) == f"the sum of squares of {spec.response.value} overflows"
            else:
                assert not isinstance(fit, ImplicitRegressionError), str(fit)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(6, 12), sigma=st.sampled_from([1.0, 5.0, 20.0]),
           seed=st.integers(0, 2 ** 16), zeros=st.integers(0, 5), k=st.integers(470, 511))
    @example(n=6, sigma=1.0, seed=2, zeros=5, k=506)
    @example(n=6, sigma=5.0, seed=2, zeros=5, k=506)
    @example(n=6, sigma=1.0, seed=3, zeros=5, k=506)
    @example(n=6, sigma=5.0, seed=3, zeros=5, k=506)
    @example(n=6, sigma=20.0, seed=3, zeros=5, k=506)
    def test_every_spec_fitted_alone_near_the_top_of_the_range(self, n, sigma, seed, zeros, k):
        # as fit does, one spec per factorisation: each fits with finite
        # estimates or fails with an error, and nothing warns; the examples
        # are samples where an estimate of 1 ~ x*y + x^2 overflowed to NaN
        sample = generate(SimulationConfig(n=n, sigma=sigma, seed=seed))
        x = sample.x.copy()
        x[:min(zeros, n - 1)] = 0.0
        data = Dataset("x", "y", np.ldexp(x, k), np.ldexp(sample.y, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in _GRAMMAR_SHAPES:
                try:
                    fit = fit_ols(parse_model(text), data)
                except ImplicitRegressionError:
                    continue
                assert all(map(math.isfinite, fit.estimates)), text

    def test_reductions_match_an_lstsq_elimination(self):
        # the criterion-5 study: seeds 0-99 at n = 50, sigma = 5
        for seed in range(100):
            data = generate(SimulationConfig(n=50, sigma=5.0, seed=seed))
            specs = compare._COMPARISON_SPECS[:3]
            for spec, fit in zip(specs, BasisQR(data).fits(specs)):
                reduced, steps = reduce_model_trace(fit)
                assert (reduced.spec, [c.term for c in steps]) == \
                    _oracle_elimination(spec, data), (seed, str(spec))

    def test_no_fit_or_refit_factors_the_n_rows(self, monkeypatch):
        shapes = _recording_qr(monkeypatch)
        n = 200_000
        build_comparison(generate(SimulationConfig(n=n, sigma=5.0, seed=1)))
        # the row blocks, then their stacked Rs; every other QR is one
        # zero-padded stack of models' columns of R: the seven first fits,
        # and at 2e5 rows no elimination step (every |t| exceeds 300)
        blocks = [dataio._BLOCK_ROWS] * (n // dataio._BLOCK_ROWS) + [n % dataio._BLOCK_ROWS]
        assert [shape[0] for shape in shapes if len(shape) == 2] == blocks + [6 * len(blocks)]
        assert shapes[len(blocks) + 1:] == [(7, 6, 3)]

        # a refit reuses the factorisation it was reduced from
        rng = np.random.default_rng(0)
        x = rng.uniform(1.0, 10.0, n)
        data = Dataset("x", "y", x, 3.0 + 2.0 * x + rng.normal(0.0, 1.0, n))
        fit = fit_ols(parse_model("y ~ 1 + x + x^2"), data)
        shapes.clear()
        steps = reduce_model_trace(fit)[1]
        assert steps and shapes == [(1, 6, 2 - step) for step in range(len(steps))]

    def test_one_stack_per_fits_call_and_per_elimination_step(self, monkeypatch):
        # on the golden sample: the seven first fits are one (7, 6, 3) stack,
        # then each lockstep step one stack of the rotations it refits,
        # padded to the widest of them
        data = read_csv(GOLDEN_DIR / "sample.csv")
        alone = [len(reduce_model_trace(fit)[1])
                 for fit in BasisQR(data).fits(compare._COMPARISON_SPECS[:3])]
        expected = [(7, 6, 3)]
        for step in range(max(alone)):
            # each rotation still dropping refits with 3 - (step + 1) columns
            expected.append((sum(drops > step for drops in alone), 6, 2 - step))
        assert sum(alone) == 4 and len(expected) >= 3
        shapes = _recording_qr(monkeypatch)
        build_comparison(data)
        # the sample is one row block, factored once; the row sweep factors nothing
        assert shapes == [(data.n, 6)] + expected

    def test_no_qr_without_a_fittable_spec(self, monkeypatch):
        data = Dataset("x", "y", [0.0, 1.0, 2.0], [5.1, 3.9, 3.2])
        basis = BasisQR(data)
        shapes = _recording_qr(monkeypatch)
        assert basis.fits([]) == []
        results = basis.fits([parse_model(text) for text in ("y ~ 1 + 1/x", "y ~ 1 + x + x^2")])
        assert [type(result) for result in results] == [DomainError, InsufficientDataError]
        assert reduce_models(results) == [(result, []) for result in results]
        assert shapes == []


# a fit of each response term and centering the grammar admits
_RESPONSE_FITS = ("1 ~ x", "x ~ 1", "x ~ 1 + y", "y ~ 1", "y ~ 1 + x", "x*y ~ 1", "x*y ~ 1 + x")
# x = 0 leaves the 1/x column out of R; y = 0 zeroes rows of y and x*y
_X0_Y0 = Dataset("x", "y", [0.0, 1.0, 2.0, 3.0, 5.0, 0.0, 7.0],
                 [4.0, 0.0, 1.5, 0.0, 2.0, 3.0, 0.25])


def _data_space_sums(fit, data):
    """A fit's SSE, SST and response sum of squares summed over the data
    rows: the residuals' dot product, and the response's squares about its
    mean (for an intercept and a predictor) or about zero.  Last, the
    rounding either side's residuals carry: 1e-14 of the norm of the
    per-row sums of |terms| they cancel from, about 45 ulps."""
    X, resp = model_design(fit.spec, data)
    terms = X * np.array(fit.estimates)
    residuals = resp - terms.sum(axis=1)
    sum_sq = float(resp @ resp)
    centered = fit.spec.intercept and fit.spec.predictors
    sst = float((resp - resp.mean()) @ (resp - resp.mean())) if centered else sum_sq
    rounding = 1e-14 * float(np.linalg.norm(np.abs(resp) + np.abs(terms).sum(axis=1)))
    return float(residuals @ residuals), sst, sum_sq, rounding


def _per_fit_response_sums(resp, centered):
    """A fit's response sums, summed afresh over the data rows."""
    sum_sq = float((resp ** 2).sum())
    if centered:
        resp_mean = float(resp.mean())
        return sum_sq, float(((resp - resp_mean) ** 2).sum())
    return sum_sq, sum_sq


class TestResponseSums:
    """A fit's response sums are norms of the response's column of R:
    they agree with the sums over the data rows, and no fit's R^2 depends
    on the fits stacked with it."""

    @pytest.mark.parametrize("data", [
        boyle_dataset(),
        generate(SimulationConfig(n=50, sigma=5.0, seed=3)),
        _X0_Y0,
    ], ids=["boyle", "simulated", "x0_y0"])
    @pytest.mark.parametrize("centered_first", [True, False])
    def test_kept_sums_are_the_per_fit_sums(self, data, centered_first):
        specs = [parse_model(text) for text in _RESPONSE_FITS]
        centering = {spec: spec.intercept and bool(spec.predictors) for spec in specs}
        specs.sort(key=lambda s: (s.response.value, centering[s] != centered_first))
        basis = BasisQR(data)
        for spec, fit in zip(specs, basis.fits(specs)):
            centered = centering[spec]
            # Z's first column is 1, so R's rows below the first hold the
            # response about its mean
            col = basis.r[:, basis.terms.index(spec.response)]
            sum_sq = float(col @ col)
            sst = float(col[1:] @ col[1:]) if centered else sum_sq
            expected = _per_fit_response_sums(eval_term(spec.response, data.x, data.y), centered)
            assert (sum_sq, sst) == pytest.approx(expected, rel=1e-12), spec
            floor = fitcore._PERFECT_FIT_RTOL * sum_sq
            r_squared = 1.0 if fit.sse <= floor else 0.0 if sst <= floor else 1.0 - fit.sse / sst
            assert fit.r_squared.hex() == r_squared.hex(), spec
            assert fit.r_squared.hex() == fit_ols(spec, data).r_squared.hex(), spec


class TestFitsReadOnlyR:
    """A fit's SSE and R^2 are norms of columns of the dataset's R: no fit
    or refit passes over the data rows."""

    def test_no_fit_or_refit_evaluates_a_term(self, monkeypatch):
        calls = []
        evaluate = fitcore.eval_term

        def counting_eval(term, x, y):
            calls.append(term)
            return evaluate(term, x, y)

        monkeypatch.setattr(fitcore, "eval_term", counting_eval)
        basis = BasisQR(generate(SimulationConfig(n=50, sigma=5.0, seed=12345)))
        assert calls
        calls.clear()
        fits = basis.fits([parse_model(text) for text in COMPARISON_MODEL_TEXTS])
        # at this seed the rotations reduce to y ~ 1 + x, x ~ 1 + y and x*y ~ 1
        reduced = [reduce_model_trace(fit)[0].spec for fit in fits[:3]]
        assert list(map(str, reduced)) == ["y ~ 1 + x", "x ~ 1 + y", "x*y ~ 1"]
        assert calls == []

    @pytest.mark.parametrize("block_rows", [None, 7], ids=["one_block", "blocks_of_7"])
    @settings(max_examples=100, deadline=None)
    @given(data=_samples())
    @example(data=boyle_dataset())
    @example(data=generate(SimulationConfig(n=50, sigma=5.0, seed=3)))
    @example(data=_X0_Y0)
    def test_sse_and_r_squared_are_the_data_space_sums(self, block_rows, data):
        with mock.patch.object(dataio, "_BLOCK_ROWS", block_rows or dataio._BLOCK_ROWS):
            basis = BasisQR(data)
        texts = _RESPONSE_FITS + COMPARISON_MODEL_TEXTS
        for text, fit in zip(texts, basis.fits([parse_model(text) for text in texts])):
            if isinstance(fit, ImplicitRegressionError):
                continue
            sse, sst, sum_sq, rounding = _data_space_sums(fit, data)
            floor = fitcore._PERFECT_FIT_RTOL * sum_sq
            r_squared = 1.0 if sse <= floor else 0.0 if sst <= floor else 1.0 - sse / sst
            # 1e-12 relative, except where the SSE is at the residuals'
            # rounding (a fit exact up to rounding); R^2's own subtraction
            # rounds by an ulp of 1
            sse_atol = 2.0 * rounding * math.sqrt(sse) + rounding ** 2
            assert fit.sse == pytest.approx(sse, rel=1e-12, abs=sse_atol), text
            assert fit.r_squared == pytest.approx(
                r_squared, rel=1e-12, abs=sse_atol / sst + 2.3e-16), text


class TestExactOracle:
    """Float fits against exact least squares in fractions
    (``exact_oracle.exact_fit``)."""

    def test_the_oracle_fits_exact_data_exactly(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0, 5.0], [3.0, 5.0, 7.0, 11.0])
        exact = exact_fit(parse_model("y ~ 1 + x"), data)
        assert exact == ExactFit((1, 2), 0, 1)
        exact = exact_fit(parse_model("x*y ~ 1 + x"), data)
        assert exact.estimates == (Fraction(-100, 7), Fraction(93, 7))

    @pytest.mark.parametrize("data", [boyle_dataset(), read_csv(GOLDEN_DIR / "sample.csv")],
                             ids=["boyle", "sample"])
    def test_comparison_fits_are_within_rounding_of_exact(self, data):
        fits = BasisQR(data).fits([parse_model(text) for text in COMPARISON_MODEL_TEXTS])
        for text, fit in zip(COMPARISON_MODEL_TEXTS, fits):
            exact = exact_fit(fit.spec, data)
            assert abs(Fraction(fit.sse) - exact.sse) <= Fraction(1e-13) * exact.sse, text
            assert abs(Fraction(fit.r_squared) - exact.r_squared) <= Fraction(1e-14), text

    @pytest.mark.parametrize("data, reduced", [
        (boyle_dataset(), 0), (read_csv(GOLDEN_DIR / "sample.csv"), 3)], ids=["boyle", "sample"])
    def test_reduced_rotations_are_within_rounding_of_exact(self, data, reduced):
        # where elimination ends: on the sample, refits out of the lockstep's
        # stacked QRs; Boyle's rotations keep every term
        fits = [fit for fit, _ in reduce_models(BasisQR(data).fits(compare._COMPARISON_SPECS[:3]))]
        assert sum(fit.spec != parse_model(text)
                   for text, fit in zip(COMPARISON_MODEL_TEXTS, fits)) == reduced
        for fit in fits:
            exact = exact_fit(fit.spec, data)
            assert abs(Fraction(fit.sse) - exact.sse) <= Fraction(1e-13) * exact.sse, fit.spec
            assert abs(Fraction(fit.r_squared) - exact.r_squared) <= Fraction(1e-14), fit.spec


def _exact_p(coef):
    return float(2.0 * stdtr(coef.dof, -abs(coef.t_stat)))


def _expected_drop(candidates):
    """The elimination rule: the smallest |t|, the first on an exact tie,
    dropped iff its p-value exceeds ALPHA."""
    first = min(candidates, key=lambda c: abs(c.t_stat))
    return first if first.p_value > ALPHA else None


def _candidates(dof, *t_stats):
    terms = (Term.X, Term.Y, Term.XY)
    return [Coefficient(term, t, 1.0, t, dof) for term, t in zip(terms, t_stats)]


class TestEliminationDecision:
    """next_to_drop drops the smallest |t| on its printed p-value, the one
    rule of ``_expected_drop``, also at and around the critical |t|.  On
    random points stdtr is an independent oracle."""

    @settings(max_examples=400, deadline=None)
    @given(dof=st.integers(1, 300_000), t=st.floats(-40.0, 40.0))
    def test_threshold_matches_stdtr(self, dof, t):
        (coef,) = _candidates(dof, t)
        assert (next_to_drop([coef]) is coef) == (_exact_p(coef) > ALPHA)

    @settings(max_examples=150, deadline=None)
    @given(dof=st.integers(1, 300_000))
    def test_threshold_on_the_boundary_is_the_p_value(self, dof):
        # at stdtr's critical |t| and its ulp neighbours p lies within
        # rounding of ALPHA, and the drop still follows the printed p-value
        t_crit = abs(float(stdtrit(dof, ALPHA / 2)))
        below = above = t_crit
        neighbours = [t_crit]
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            neighbours += [float(below), float(above)]
        for t in neighbours:
            for signed in (t, -t):
                (coef,) = _candidates(dof, signed)
                assert next_to_drop([coef]) is _expected_drop([coef]), signed

    @settings(max_examples=200, deadline=None)
    @given(
        dof=st.integers(1, 300_000),
        t=st.floats(0.0, 3.0),
        rel=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3]),
        ulps=st.integers(-3, 3),
        order=st.permutations(range(3)),
        signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3),
    )
    def test_near_tied_candidates_drop_the_first_largest_p(self, dof, t, rel, ulps, order, signs):
        # the largest p belongs to the smallest |t|; candidates an ulp of t
        # apart may round to one p, and are still ordered by |t|
        near = t * (1.0 + rel)
        for _ in range(abs(ulps)):
            near = float(np.nextafter(near, np.inf if ulps > 0 else 0.0))
        t_stats = [t, near, 2.0 * t + 1.0]
        candidates = _candidates(dof, *(sign * t_stats[i] for sign, i in zip(signs, order)))
        assert next_to_drop(candidates) is _expected_drop(candidates)

    @settings(max_examples=400, deadline=None)
    @given(
        dof=st.integers(1, 1_000_000),
        offsets=st.lists(st.one_of(st.floats(-1e-5, 1e-5),
                                   st.sampled_from([-1e-5, 1e-5]),
                                   st.sampled_from([-0.9, -0.5, 1.0, 3.0])),
                         min_size=1, max_size=3),
        ulps=st.tuples(*[st.integers(-2, 2)] * 3),
        signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3),
    )
    def test_decisions_near_the_critical_t_match_the_p_value(self, dof, offsets, ulps, signs):
        # |t| within 1e-5 (relative) of the critical value, on and around
        # that neighbourhood's edges, next to runner-ups near it or far from it
        t_crit = abs(float(stdtrit(dof, ALPHA / 2)))
        t_stats = []
        for sign, offset, steps in zip(signs, offsets, ulps):
            t = t_crit * (1.0 + offset)
            for _ in range(abs(steps)):
                t = float(np.nextafter(t, np.inf if steps > 0 else 0.0))
            t_stats.append(sign * t)
        candidates = _candidates(dof, *t_stats)
        assert next_to_drop(candidates) is _expected_drop(candidates)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_symmetric_data_ties_x_and_y(self, seed):
        # with every (a, b) also present as (b, a), x and y get the same
        # coefficient in x*y ~ 1 + x + y, so their |t| tie up to rounding;
        # with x*y near constant both are mostly insignificant, so the one
        # of the pair with the smaller |t| (x on an exact tie) is dropped
        rng = np.random.default_rng(seed)
        a = rng.uniform(1.0, 10.0, 12)
        b = 40.0 / a * rng.uniform(0.8, 1.2, 12)
        data = Dataset("x", "y", np.concatenate([a, b]), np.concatenate([b, a]))
        fit = fit_ols(parse_model("x*y ~ 1 + x + y"), data)
        candidates = [c for c in fit.coefficients if c.term is not None]
        expected = _expected_drop(candidates)
        assert next_to_drop(candidates) is expected
        steps = reduce_model_trace(fit)[1]
        assert (steps[0] if steps else None) == expected


# t_tail's worst relative error against stdtr over 0 <= t <= 40, measured on
# dofs spread over each range (dof, then its bound) and rounded up
_TAIL_RTOL = ((30, 1e-13), (1e3, 5e-12), (1e5, 1.5e-11), (3e5, 5e-11), (1e6, 1.5e-10),
              (1e7, 1.5e-9), (1e9, 2e-7))


def _tail_rtol(dof):
    return next(bound for top, bound in _TAIL_RTOL if dof <= top)


class TestTTail:
    @pytest.mark.parametrize("dof", [1, 2, 5, 48, 1000, 200_000, 10**9])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.96, 2.5, 12.0, 40.0])
    def test_matches_stdtr(self, dof, t):
        assert t_tail(dof, t) == pytest.approx(float(2.0 * stdtr(dof, -t)), rel=_tail_rtol(dof))

    @pytest.mark.parametrize("dof", [3, 4, 7, 12, 30, 31, 100, 935, 1000, 1001, 12_345, 100_000,
                                     277_009, 300_000, 959_963, 10**6, 9_100_760, 10**7,
                                     10**8, 10**9])
    def test_accuracy_per_dof_range(self, dof):
        t = np.linspace(0.0, 40.0, 801)
        p = np.array([t_tail(dof, v) for v in t.tolist()])
        # past |t| of about 38 at large dof the tail is subnormal or underflows
        np.testing.assert_allclose(p, 2.0 * stdtr(dof, -t), rtol=_tail_rtol(dof), atol=1e-300)

    # at dof 1 and 2 the tail has closed forms; stdtr is no oracle there
    @pytest.mark.parametrize("dof, closed_form, rtol", [
        (1, lambda t: 2.0 / np.pi * np.arctan2(1.0, t), 5e-15),
        (2, lambda t: 2.0 / (np.sqrt(2.0 + t * t) * (np.sqrt(2.0 + t * t) + t)), 1.5e-14),
    ], ids=["dof1", "dof2"])
    def test_closed_forms(self, dof, closed_form, rtol):
        t = np.concatenate([np.linspace(0.0, 10.0, 2001), np.logspace(-12.0, 6.0, 2001)])
        p = [t_tail(dof, v) for v in t.tolist()]
        np.testing.assert_allclose(p, closed_form(t), rtol=rtol, atol=0.0)

    def test_dof_1_near_zero_is_correctly_rounded(self):
        # 1 - 2 atan(t) / pi rounds to the nearest double of the true tail
        # here, 0.99999999526189368...; stdtr rounds it to 1, 4.7e-9 off
        t = 7.4426e-9
        assert t_tail(1, t) == 1.0 - 2.0 * math.atan(t) / math.pi
        assert float(2.0 * stdtr(1, -t)) == 1.0

    def test_undecidable_inputs(self):
        # stdtr's answers off the finite line, and where t^2 overflows
        assert math.isnan(t_tail(10, float("nan")))
        assert t_tail(10, float("inf")) == t_tail(10, float("-inf")) == 0.0
        assert t_tail(1, 1e200) == 0.0
        assert t_tail(10, 0.0) == 1.0
        # t^2 / dof underflows to 0: the tail is 1 to double precision
        assert t_tail(20836, 2.3e-160) == 1.0

    def test_p_value_is_the_t_tail(self):
        (coef,) = _candidates(47, -2.0)
        assert coef.p_value == t_tail(47, -2.0)


def _outcome(result):
    """A fit's bits (coefficients, SE, t, SSE and R^2), or its error's type
    and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return (result.spec, [v.hex() for c in result.coefficients
                          for v in (c.estimate, c.std_error, c.t_stat)],
            result.sse.hex(), result.r_squared.hex())


def _one_spec_outcome(data, spec):
    try:
        return _outcome(fit_ols(spec, data))
    except ImplicitRegressionError as exc:
        return _outcome(exc)


_GROUPED_FIT_DATASETS = [
    generate(SimulationConfig(n=50, sigma=5.0, seed=3)),
    generate(SimulationConfig(n=50, sigma=1.0, seed=8)),
    boyle_dataset(),
    # y = 2x: every design holding both x and y is rank deficient
    Dataset("x", "y", np.arange(1.0, 11.0), 2.0 * np.arange(1.0, 11.0)),
    # x = 0: every design holding 1/x fails its domain check
    Dataset("x", "y", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5], [5.1, 3.9, 3.2, 2.1, 0.8, 0.1, 1.3]),
    # n = 4: every design of four or more columns has too few rows
    Dataset("x", "y", [1.0, 2.0, 3.0, 4.5], [3.0, 1.0, 4.0, 1.5]),
]
_GROUPED_FIT_IDS = ["sigma5", "sigma1", "boyle", "collinear", "x0", "n4"]


class TestGroupedFit:
    """``BasisQR.fits`` factors its specs with one zero-padded stacked QR,
    and lockstep elimination refits each step's drops with one; each member
    is the one-spec fit bit for bit, and one that cannot be fit fails
    alone."""

    @pytest.mark.parametrize("data", _GROUPED_FIT_DATASETS, ids=_GROUPED_FIT_IDS)
    def test_every_grammar_shape_in_mixed_lists_is_its_one_spec_fit(self, data):
        specs = [parse_model(text) for text in _GRAMMAR_SHAPES]
        assert len(specs) == 124
        expected = [_one_spec_outcome(data, spec) for spec in specs]
        rng = np.random.default_rng(0)
        for chunk_size in (7, 31, 124):
            order = rng.permutation(len(specs))
            for start in range(0, len(order), chunk_size):
                chunk = order[start:start + chunk_size]
                results = BasisQR(data).fits([specs[i] for i in chunk])
                assert [_outcome(r) for r in results] == [expected[i] for i in chunk]

    def test_failing_members_leave_the_others_unchanged(self):
        x = np.arange(1.0, 11.0)
        cases = [
            (Dataset("x", "y", x, 2.0 * x), "x*y ~ 1 + x + y", SingularDesignError),
            (Dataset("x", "y", np.append(x, 0.0), np.append(2.0 / x, 3.0)), "y ~ 1 + 1/x",
             DomainError),
        ]
        for data, failing, error in cases:
            texts = ["y ~ 1 + x", failing, "1 ~ x*y", "y ~ 1 + x + x^2"]
            results = BasisQR(data).fits([parse_model(text) for text in texts])
            assert isinstance(results[1], error)
            with pytest.raises(error, match=re.escape(str(results[1]))):
                fit_ols(parse_model(failing), data)
            for text, result in zip(texts[::2] + texts[3:], results[::2] + results[3:]):
                assert _outcome(result) == _one_spec_outcome(data, parse_model(text))

    def test_one_qr_per_call(self, monkeypatch):
        basis = BasisQR(generate(SimulationConfig(n=50, sigma=5.0, seed=1)))
        shapes = _recording_qr(monkeypatch)
        basis.fits([parse_model(text) for text in COMPARISON_MODEL_TEXTS])
        # five 3-column designs, one 2-column and one 1-column, padded to 3
        assert shapes == [(7, 6, 3)]

    @settings(max_examples=50, deadline=None)
    @given(data=_samples(), widths=st.lists(st.integers(1, 4), min_size=1, max_size=7))
    def test_stacked_qr_is_each_members_qr(self, data, widths):
        # what the grouped fit relies on: LAPACK factors each matrix of a
        # stack as it factors that matrix alone, and a member zero-padded to
        # the widest has its own Q, R and R^-1 as the leading block
        r = BasisQR(data).r
        rng = np.random.default_rng(widths)
        members = [r[:, np.sort(rng.choice(r.shape[1], p, replace=False))] for p in widths]
        stack = np.zeros((len(widths), len(r), max(widths)))
        for padded, member in zip(stack, members):
            padded[:, :member.shape[1]] = member
        qs, rs = np.linalg.qr(stack)
        for member, q, R in zip(members, qs, rs):
            p = member.shape[1]
            q1, r1 = np.linalg.qr(member)
            assert q[:, :p].tobytes() == q1.tobytes() and R[:p, :p].tobytes() == r1.tobytes()
            assert np.linalg.inv(R[:p, :p]).tobytes() == np.linalg.inv(r1).tobytes()
            # the padding stays zero
            assert not R[:p, p:].any()

    @pytest.mark.parametrize("n, sigma", [(None, None)] + list(itertools.product(
        (20, 50), (1.0, 5.0, 20.0))))
    def test_lockstep_elimination_is_each_rotations_own(self, n, sigma):
        # each model eliminated in lockstep must be that model eliminated
        # alone, hex for hex, on the datasets above and on seeds 0-199 at each
        # n and sigma: the three rotations as compare runs them, and all seven
        # listed models, whose refits mix widths and so come from padded stacks
        datasets = _GROUPED_FIT_DATASETS if n is None else [
            generate(SimulationConfig(n=n, sigma=sigma, seed=seed)) for seed in range(200)]
        specs = [parse_model(text) for text in COMPARISON_MODEL_TEXTS]
        for data in datasets:
            alone = [_reduction(*reduce_models(BasisQR(data).fits([spec]))[0]) for spec in specs]
            for k in (3, 7):
                together = reduce_models(BasisQR(data).fits(specs[:k]))
                assert [_reduction(*result) for result in together] == alone[:k], data


def _reduction(reduced, steps):
    """A reduction's end fit (its spec, estimates, SSE and R^2, or its
    error) and every step's term, t and p, as hex."""
    end = (type(reduced), str(reduced)) if isinstance(reduced, Exception) else (
        reduced.spec, [v.hex() for v in (*reduced.estimates, reduced.sse, reduced.r_squared)])
    return end, [(c.term, c.t_stat.hex(), c.p_value.hex()) for c in steps]


def _counting_inv(monkeypatch):
    """Record every ``np.linalg.inv`` call; returns the list of inputs."""
    calls = []
    inv = np.linalg.inv

    def recording_inv(a):
        calls.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    return calls


class TestLazyInference:
    """Standard errors and t statistics are built, and R inverted, only for
    the fits whose coefficients are read."""

    def test_comparison_inverts_only_the_fits_elimination_examines(self):
        data = read_csv(GOLDEN_DIR / "sample.csv")
        # per rotation: its first fit and every refit with a predictor left
        examined = 0
        for text in COMPARISON_MODEL_TEXTS[:3]:
            reduced, steps = reduce_model_trace(fit_ols(parse_model(text), data))
            examined += len(steps) + bool(reduced.spec.predictors)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _counting_inv(monkeypatch)
            build_comparison(data)
        assert examined >= 3 and len(calls) == examined

    def test_boyle_inverts_nothing(self, monkeypatch):
        calls = _counting_inv(monkeypatch)
        boyle_summary()
        assert calls == []

    @pytest.mark.parametrize("argv, golden, fits_read", [
        (["fit", "--model", "y ~ 1 + x + x^2"], "fit_quadratic.json", 1),
        (["fit", "--model", "1 ~ x + y + x*y", "--reduce"], "fit_reduce.json", None),
    ])
    def test_fit_printout_reads_the_pinned_bytes(self, monkeypatch, argv, golden, fits_read):
        calls = _counting_inv(monkeypatch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--data", str(GOLDEN_DIR / "sample.csv"), "--format", "json"]) == 0
        assert out.getvalue().encode() == (GOLDEN_DIR / golden).read_bytes()
        # the printed fit, plus every fit elimination examined before it
        reduction = json.loads(out.getvalue())["reduction"]
        assert len(calls) == (fits_read or len(reduction) + 1)
