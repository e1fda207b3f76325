import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from implicitreg import DomainError, ModelSpec, ParseError, Term
from implicitreg.formula import eval_term, format_model, parse_model


class TestParseModel:
    def test_non_response_family_form(self):
        spec = parse_model("1 ~ x + y + x*y")
        assert spec.response is Term.ONE
        assert spec.predictors == (Term.X, Term.Y, Term.XY)
        assert spec.intercept is False

    def test_simple_linear(self):
        spec = parse_model("y ~ 1 + x")
        assert spec.response is Term.Y
        assert spec.predictors == (Term.X,)
        assert spec.intercept is True

    def test_response_repeated_as_predictor(self):
        with pytest.raises(ParseError):
            parse_model("y ~ y")

    def test_intercept_only(self):
        spec = parse_model("y ~ 1")
        assert spec.predictors == ()
        assert spec.intercept is True

    def test_xy_alias(self):
        assert parse_model("y ~ 1 + xy") == parse_model("y ~ 1 + x*y")

    def test_whitespace_insignificant(self):
        assert parse_model("  y~1+ x *y ") == parse_model("y ~ 1 + x*y")

    def test_extended_terms(self):
        spec = parse_model("y ~ 1 + 1/x + x^2")
        assert spec.predictors == (Term.INV_X, Term.X_SQUARED)

    def test_unknown_token_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_model("y ~ 1 + z")
        assert excinfo.value.position == 8

    def test_duplicate_predictor(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_model("y ~ x + x")

    def test_duplicate_intercept(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_model("y ~ 1 + 1")

    def test_non_response_rejects_intercept(self):
        with pytest.raises(ParseError):
            parse_model("1 ~ 1 + x")

    def test_empty_rhs(self):
        with pytest.raises(ParseError, match="empty"):
            parse_model("y ~ ")

    def test_missing_tilde(self):
        with pytest.raises(ParseError):
            parse_model("y + x")

    def test_double_tilde(self):
        with pytest.raises(ParseError):
            parse_model("y ~ x ~ y")

    def test_invalid_response(self):
        with pytest.raises(ParseError, match="response"):
            parse_model("x^2 ~ x")

    def test_unknown_response_token(self):
        with pytest.raises(ParseError):
            parse_model("z ~ x")


class TestModelSpecInvariants:
    def test_response_in_predictors_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Term.Y, (Term.Y,), True)

    def test_duplicate_predictors_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Term.Y, (Term.X, Term.X), True)

    def test_non_response_intercept_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Term.ONE, (Term.X,), True)

    def test_empty_rhs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Term.Y, (), False)

    @pytest.mark.parametrize("response, predictors, message", [
        ("y", (), "response 'y' is not a Term"),
        (None, (Term.X,), "response None is not a Term"),
        (Term.Y, ("x",), "predictor 'x' is not a Term"),
        (Term.ONE, (Term.X, "x*y"), "predictor 'x*y' is not a Term"),
    ], ids=["str-response", "none-response", "str-predictor", "second-predictor"])
    def test_non_term_rejected_by_name(self, response, predictors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelSpec(response, predictors, response is not Term.ONE)

    def test_n_coefficients(self):
        assert parse_model("y ~ 1 + x + x*y").n_coefficients == 3
        assert parse_model("1 ~ x*y").n_coefficients == 1


# the four-model family over {1, x, y, x*y}: three rotations and the
# non-response form, in that order
_FAMILY_TEXTS = ("y ~ 1 + x + x*y", "x ~ 1 + y + x*y", "x*y ~ 1 + x + y", "1 ~ x + y + x*y")


def family():
    return [parse_model(text) for text in _FAMILY_TEXTS]


class TestEnumerateFamily:
    def test_exact_family(self):
        assert [format_model(s) for s in family()] == [
            "y ~ 1 + x + x*y",
            "x ~ 1 + y + x*y",
            "x*y ~ 1 + x + y",
            "1 ~ x + y + x*y",
        ]

    def test_first_response_is_y(self):
        assert family()[0].response is Term.Y

    def test_last_has_no_intercept(self):
        assert family()[-1].intercept is False

    def test_no_response_among_predictors(self):
        for spec in family():
            assert spec.response not in spec.predictors

    def test_stable_across_calls(self):
        assert family() == family()


def point(v):
    """One coordinate as the 1-element float array ``eval_term`` takes."""
    return np.array([float(v)])


class TestEvalTerm:
    def test_product(self):
        assert eval_term(Term.XY, point(3), point(5)).tolist() == [15]

    def test_constant(self):
        assert eval_term(Term.ONE, point(7), point(-2)).tolist() == [1]

    def test_inv_x_at_zero(self):
        with pytest.raises(DomainError):
            eval_term(Term.INV_X, point(0), point(1))

    def test_x_squared(self):
        assert eval_term(Term.X_SQUARED, point(-3), point(0)).tolist() == [9]

    def test_vectorized(self):
        x = np.array([1.0, 2.0, 4.0])
        y = np.array([2.0, 3.0, 5.0])
        np.testing.assert_allclose(eval_term(Term.XY, x, y), [2, 6, 20])
        np.testing.assert_allclose(eval_term(Term.INV_X, x, y), [1, 0.5, 0.25])
        np.testing.assert_allclose(eval_term(Term.ONE, x, y), [1, 1, 1])

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_xy_is_product_of_x_and_y(self, x, y):
        x, y = point(x), point(y)
        np.testing.assert_array_equal(
            eval_term(Term.XY, x, y), eval_term(Term.X, x, y) * eval_term(Term.Y, x, y))


_RESPONSES = st.sampled_from([Term.ONE, Term.X, Term.Y, Term.XY])


@st.composite
def model_specs(draw):
    response = draw(_RESPONSES)
    pool = [t for t in (Term.X, Term.Y, Term.XY, Term.X_SQUARED, Term.INV_X)
            if t is not response]
    ordered = draw(st.permutations(pool))
    k_min = 1 if response is Term.ONE else 0
    k = draw(st.integers(min_value=k_min, max_value=len(ordered)))
    predictors = tuple(ordered[:k])
    if response is Term.ONE:
        intercept = False
    elif predictors:
        intercept = draw(st.booleans())
    else:
        intercept = True
    return ModelSpec(response, predictors, intercept)


@given(model_specs())
def test_format_parse_round_trip(spec):
    assert parse_model(format_model(spec)) == spec
