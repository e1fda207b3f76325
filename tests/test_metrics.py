import math
import sys

import numpy as np
import pytest
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from implicitreg import (
    COMPARISON_MODEL_TEXTS,
    Dataset,
    RankDirection,
    SimulationConfig,
    SquareSums,
    boyle_dataset,
    fit_ols,
    generate,
    predict,
    read_csv,
    rank_models,
    relative_height,
    separation_angle,
)
from implicitreg.errors import ImplicitRegressionError
from implicitreg.formula import parse_model
from implicitreg.implicit import Prediction
from implicitreg.metrics import _RANK_TIE_TOL, pairwise_square_sums, square_sums, standard_error

GOLDEN = Path(__file__).resolve().parent / "golden"


def prediction_from_arrays(y_hat, x_hat):
    n = len(y_hat)
    return Prediction(
        y_hat=np.asarray(y_hat, dtype=float),
        x_hat=np.asarray(x_hat, dtype=float),
        x_complex=np.zeros(n, dtype=bool),
    )


class TestJointSquareSums:
    def test_perfect_fit(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 8.0, 9.0])
        pred = prediction_from_arrays(data.y.copy(), data.x.copy())
        _, _, s = pairwise_square_sums(data, pred)
        assert s.sse == pytest.approx(0.0, abs=1e-12)
        assert s.ssm == pytest.approx(s.sst, rel=1e-12)
        assert s.n == 4

    def test_constant_predictor(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 8.0, 9.0])
        pred = prediction_from_arrays(
            np.full(4, data.y.mean()), np.full(4, data.x.mean())
        )
        _, _, s = pairwise_square_sums(data, pred)
        assert s.ssm == pytest.approx(0.0, abs=1e-12)
        assert s.sse == pytest.approx(s.sst, rel=1e-12)

    def test_undefined_entries_dropped_pairwise(self):
        data = Dataset(
            "x", "y",
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [5.0, 6.0, 8.0, 9.0, 11.0, 12.0],
        )
        y_hat = [5.0, np.nan, 8.0, 9.0, 11.0, 12.0]
        x_hat = [1.0, 2.0, np.nan, 4.0, 5.0, 6.0]
        n_def, axis_sse, s = pairwise_square_sums(data, prediction_from_arrays(y_hat, x_hat))
        assert s.n == 4  # rows 1 and 2 each miss one solve
        assert n_def == [5, 5]  # each axis keeps its own defined solves
        # sums must match a direct computation over the four intact rows
        keep = np.array([0, 3, 4, 5])
        x, y = data.x[keep], data.y[keep]
        assert s.sst == pytest.approx(
            ((y - y.mean()) ** 2).sum() + ((x - x.mean()) ** 2).sum()
        )
        assert s.sse == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_defined_rows(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0], [5.0, 6.0, 8.0])
        pred = prediction_from_arrays([5.0, np.nan, 8.0], [1.0, 2.0, 3.0])
        # no triangle on 2 rows, but each axis's SSE still counts
        assert pairwise_square_sums(data, pred) == ([2, 3], [0.0, 0.0], None)


def _oracle_square_sums(data, pred):
    """``pairwise_square_sums`` with every sum taken in the call, over the
    pairwise mask: (ssm, sse, sst, n, sst_uncentered)."""
    mask = pred.y_defined & pred.x_defined
    n_used = int(np.count_nonzero(mask))
    ssm = sse = sst = sst_uncentered = 0.0
    for o, e in ((data.y, pred.y_hat), (data.x, pred.x_hat)):
        if n_used < data.n:
            o, e = o[mask], e[mask]
        mean = o.mean()
        sse += float(((o - e) ** 2).sum())
        ssm += float(((e - mean) ** 2).sum())
        sst += float(((o - mean) ** 2).sum())
        sst_uncentered += float(o @ o)
    return ssm, sse, sst, n_used, sst_uncentered


def _oracle_se(obs, est, defined, n_params):
    """One axis's residual SE summed over that axis's own defined solves."""
    n_def = int(np.count_nonzero(defined))
    if n_def <= n_params:
        return None
    if n_def < defined.size:
        obs, est = obs[defined], est[defined]
    return math.sqrt(float(((obs - est) ** 2).sum()) / (n_def - n_params))


def _bits(values):
    return [v if v is None or isinstance(v, int) else float(v).hex() for v in values]


def assert_sums_match_the_oracles(fit, data, pred):
    n_def, axis_sse, s = pairwise_square_sums(data, pred)
    assert _bits([s.ssm, s.sse, s.sst, s.n, s.sst_uncentered]) == \
        _bits(_oracle_square_sums(data, pred))
    k = fit.spec.n_coefficients
    se_y, se_x = (standard_error(sse, n, k) for sse, n in zip(axis_sse, n_def))
    assert _bits([se_y, se_x]) == _bits([
        _oracle_se(data.y, pred.y_hat, pred.y_defined, k),
        _oracle_se(data.x, pred.x_hat, pred.x_defined, k),
    ])


class TestSharedSums:
    """The pairwise sums and each axis's SSE over its own defined solves give
    the bits of the sums taken per call, on full and on masked rows."""

    @given(seed=st.integers(0, 30), text=st.sampled_from(COMPARISON_MODEL_TEXTS),
           undefined_y=st.sets(st.integers(0, 19), max_size=6),
           undefined_x=st.sets(st.integers(0, 19), max_size=6))
    # y and x undefined on different rows: each axis's own rows differ from
    # the pairwise ones, so neither SE may take the pairwise SSE
    @example(seed=0, text="y ~ 1 + x + x*y", undefined_y={1}, undefined_x={2})
    @example(seed=0, text="1 ~ x + y + x*y", undefined_y={1, 5}, undefined_x={5})
    @example(seed=0, text="y ~ 1 + x + x^2", undefined_y={3, 4}, undefined_x={3, 4})
    @example(seed=0, text="x ~ 1 + y + x*y", undefined_y=set(), undefined_x=set())
    def test_sums_with_undefined_solves(self, seed, text, undefined_y, undefined_x):
        data = generate(SimulationConfig(n=20, sigma=5.0, seed=seed))
        fit = fit_ols(parse_model(text), data)
        pred = predict(fit, data)
        y_hat, x_hat = pred.y_hat.copy(), pred.x_hat.copy()
        y_hat[list(undefined_y)] = np.nan
        x_hat[list(undefined_x)] = np.nan
        assert_sums_match_the_oracles(fit, data, Prediction(y_hat, x_hat, pred.x_complex))

    @pytest.mark.parametrize("source", ["boyle", "sample", "sample_x0"])
    def test_every_comparison_model(self, source):
        data = boyle_dataset() if source == "boyle" else read_csv(GOLDEN / "sample.csv")
        if source == "sample_x0":  # the golden compare_x0 input
            data = Dataset("x", "y", np.concatenate([[0.0], data.x[1:]]), data.y)
        for text in COMPARISON_MODEL_TEXTS:
            try:
                fit = fit_ols(parse_model(text), data)
                pred = predict(fit, data)
            except ImplicitRegressionError:
                continue
            assert_sums_match_the_oracles(fit, data, pred)


class TestSeparationAngle:
    def test_pythagorean_case(self):
        assert separation_angle(SquareSums(3.0, 4.0, 7.0, 10)) == pytest.approx(90.0)

    def test_degenerate_flags(self):
        # a null fit and a perfect fit have no angle
        assert separation_angle(SquareSums(0.0, 4.0, 4.0, 10)) is None
        assert separation_angle(SquareSums(4.0, 0.0, 4.0, 10)) is None

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
    def test_rounding_level_sse_is_perfect_at_any_scale(self, c):
        # SSE against the observations' own sum of squares, with no floor
        perfect = SquareSums(50.0 * c, 1e-30 * c, 50.0 * c, 10, 275.0 * c)
        assert separation_angle(perfect) is None
        assert relative_height(perfect) == 0.0
        noisy = SquareSums(50.0 * c, 1e-20 * c, 50.0 * c, 10, 275.0 * c)
        assert separation_angle(noisy) == pytest.approx(90.0, abs=1e-6)
        assert relative_height(noisy) > 0.0

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 1000])
    def test_sides_whose_product_leaves_the_float_range(self, scale):
        # SSM * SSE underflows (overflows) to 0 (inf); each side's root does not
        for ssm, sse, sst in ((3.0, 4.0, 7.0), (2.0, 3.0, 4.0), (50.0, 1.0, 49.5)):
            unscaled = separation_angle(SquareSums(ssm, sse, sst, 10))
            scaled = SquareSums(ssm * scale, sse * scale, sst * scale, 10)
            assert not sys.float_info.min <= scaled.ssm * scaled.sse < math.inf
            assert separation_angle(scaled) == pytest.approx(unscaled, rel=1e-12)

    def test_clamps_tiny_overshoot(self):
        ssm, sse = 2.0, 3.0
        sst = ssm + sse - 2.0 * math.sqrt(ssm * sse) * (1.0 + 5e-10)
        assert separation_angle(SquareSums(ssm, sse, sst, 5)) == pytest.approx(0.0, abs=1e-3)

    def test_rejects_infeasible_sums(self):
        with pytest.raises(ValueError):
            separation_angle(SquareSums(1.0, 1.0, 100.0, 5))

    def test_law_of_cosines_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a2 = math.exp(rng.uniform(-3, 6))
            b2 = math.exp(rng.uniform(-3, 6))
            theta = rng.uniform(math.radians(1), math.radians(179))
            sst = a2 + b2 - 2.0 * math.sqrt(a2 * b2) * math.cos(theta)
            s = SquareSums(a2, b2, sst, 7)
            angle = separation_angle(s)
            assert angle == pytest.approx(math.degrees(theta), abs=1e-9)
            rebuilt = s.ssm + s.sse - 2.0 * math.sqrt(s.ssm * s.sse) * math.cos(
                math.radians(angle)
            )
            assert rebuilt == pytest.approx(s.sst, rel=1e-9, abs=1e-12)


class TestRelativeHeight:
    def test_perfect_fit_has_zero_height(self):
        s = SquareSums(5.0, 0.0, 5.0, 10)
        assert relative_height(s) == pytest.approx(0.0, abs=1e-12)

    def test_projection_is_base_component_of_error_side(self):
        # |sse + sst - ssm| / (2 sqrt(sst)) is the projection of the error
        # side onto the base; per sqrt(n) gives the reported height
        s = SquareSums(4.0, 9.0, 10.0, 25)
        expected = abs(s.sse + s.sst - s.ssm) / (2.0 * math.sqrt(s.n * s.sst))
        assert relative_height(s) == pytest.approx(expected, rel=1e-12)

    def test_projection_keeps_an_sse_below_the_rounding_of_sst(self):
        # SSE + SST alone would round the 1e-20 away
        s = SquareSums(50.0, 1e-20, 50.0, 10)
        assert relative_height(s) == pytest.approx(1e-20 / (2.0 * math.sqrt(500.0)),
                                                   rel=1e-12, abs=0.0)

    def test_zero_base_rejected(self):
        assert relative_height(SquareSums(1.0, 1.0, 0.0, 5)) is None

    def test_n_times_sst_past_the_float_range(self):
        # n * SST overflows; sqrt(n) * sqrt(SST) does not, and h scales by
        # the root of the sums' scale
        scale = 2.0 ** 1020
        s = SquareSums(4.0 * scale, 9.0 * scale, 10.0 * scale, 25)
        assert s.n * s.sst == math.inf
        assert relative_height(s) == pytest.approx(
            relative_height(SquareSums(4.0, 9.0, 10.0, 25)) * 2.0 ** 510, rel=1e-15)


class TestStandardErrors:
    def test_exact_fit(self):
        assert standard_error(0.0, 4, 2) == 0.0

    def test_dof_correction(self):
        data = Dataset("x", "y", [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 8.0, 9.0])
        pred = prediction_from_arrays(data.y + 1.0, data.x.copy())
        se_y = standard_error(float(((data.y - pred.y_hat) ** 2).sum()), 4, 2)
        assert se_y == pytest.approx(math.sqrt(4.0 / 2.0))

    def test_insufficient_defined(self):
        # one defined solve cannot carry one parameter and a residual
        assert standard_error(0.0, 1, 1) is None


class TestSquareSums:
    AXIS_SUMS = ((0.0, 2.0, 3.0), (0.0, 4.0, 5.0))

    def test_no_triangle_below_3_rows(self):
        assert square_sums(2, self.AXIS_SUMS, [1.0, 2.0], [3.0, 4.0]) is None

    def test_sums_past_the_float_range_raise(self):
        # each axis's sums are finite, their total is not
        big = 0.6 * sys.float_info.max
        with pytest.raises(ImplicitRegressionError, match="overflow"):
            square_sums(3, self.AXIS_SUMS, [big, 0.0], [big, 0.0])


class TestRankModels:
    def test_descending_with_average_ties(self):
        values = [0.7575, 0.7575, 0.9989, 0.9920, 0.9545, 0.9989, 0.9989]
        ranks = rank_models(values, RankDirection.DESCENDING_BETTER)
        assert ranks.tolist() == [6.5, 6.5, 2.0, 4.0, 5.0, 2.0, 2.0]

    def test_ascending_identity(self):
        assert rank_models([1.0, 2.0, 3.0], RankDirection.ASCENDING_BETTER).tolist() == [1, 2, 3]

    def test_nearest_90(self):
        # distances from 90: 0.9, 2.6, 1.0
        ranks = rank_models([89.1, 87.4, 91.0], RankDirection.NEAREST_90_BETTER)
        assert ranks.tolist() == [1.0, 3.0, 2.0]

    def test_nearest_90_ties_across_sides(self):
        ranks = rank_models([89.0, 91.0, 80.0], RankDirection.NEAREST_90_BETTER)
        assert ranks.tolist() == [1.5, 1.5, 3.0]

    def test_rejects_undefined(self):
        with pytest.raises(ValueError):
            rank_models([1.0, float("nan")], RankDirection.ASCENDING_BETTER)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_ranks_sum_to_triangular_number(self, values):
        ranks = rank_models(values, RankDirection.ASCENDING_BETTER)
        n = len(values)
        assert ranks.sum() == pytest.approx(n * (n + 1) / 2)

    @given(
        st.lists(
            st.integers(min_value=-1000, max_value=1000).map(float),
            min_size=2,
            max_size=15,
        ),
        st.floats(1.0, 50.0),
        st.floats(-100.0, 100.0),
    )
    def test_monotone_transform_invariance(self, values, scale, shift):
        for direction in (RankDirection.ASCENDING_BETTER, RankDirection.DESCENDING_BETTER):
            before = rank_models(values, direction)
            after = rank_models([scale * v + shift for v in values], direction)
            assert before.tolist() == after.tolist()


def _nested_scan_ranks(values, direction):
    """Average ranks by the nested tie scan ``rank_models`` once ran: from
    each sorted position, extend the group while the next merit is within
    the tolerance of the previous one."""
    values = np.asarray(values, dtype=float)
    merit = {
        RankDirection.ASCENDING_BETTER: values.copy(),
        RankDirection.DESCENDING_BETTER: -values,
        RankDirection.NEAREST_90_BETTER: np.abs(values - 90.0),
    }[direction]
    tie_tol = _RANK_TIE_TOL * float(np.abs(values).max())
    order = np.argsort(merit, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and merit[order[j + 1]] - merit[order[j]] <= tie_tol:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


@st.composite
def _tie_prone_values(draw):
    """Up to nine values drawn from a few bases: exact repeats, relative
    steps of 1e-12 and of the tie tolerance itself, and mirror images
    about 90, which are equally near it."""
    bases = draw(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 90.0, 89.5])),
                          min_size=1, max_size=4))
    values = []
    for _ in range(draw(st.integers(1, 9))):
        v = draw(st.sampled_from(bases))
        step = draw(st.sampled_from(["repeat", "1e-12", "tol", "mirror"]))
        if step == "1e-12":
            v *= 1.0 + draw(st.sampled_from([-2, -1, 1, 2])) * 1e-12
        elif step == "tol":
            v *= 1.0 + draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0])) * _RANK_TIE_TOL
        elif step == "mirror":
            v = 180.0 - v
        values.append(v)
    return values


@settings(max_examples=300)
@given(values=_tie_prone_values(), direction=st.sampled_from(list(RankDirection)))
def test_ranks_match_the_nested_tie_scan(values, direction):
    assert rank_models(values, direction).tobytes() == \
        _nested_scan_ranks(values, direction).tobytes()
