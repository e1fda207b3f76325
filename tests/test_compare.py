import json
import math
import random
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from implicitreg import (
    COMPARISON_MODEL_TEXTS,
    Dataset,
    SimulationConfig,
    SingularDesignError,
    boyle_dataset,
    boyle_summary,
    build_comparison,
    constancy_index,
    fit_ols,
    generate,
    rank_models,
    read_csv,
    render_csv,
    render_json,
    render_markdown,
)
from implicitreg import compare, dataio, implicit
from implicitreg.compare import (BOYLE_MODEL_TEXTS, _METRIC_DIRECTIONS, boyle_plot_data,
                                 report_to_dict)
from implicitreg.errors import DegenerateDataError, ImplicitRegressionError
from implicitreg.fitcore import BasisQR, reduce_model_trace, reduce_models
from implicitreg.formula import format_model, parse_model
from implicitreg.implicit import predict
from implicitreg.metrics import SquareSums, relative_height, separation_angle, standard_error

GOLDEN_SAMPLE = Path(__file__).resolve().parent / "golden" / "sample.csv"


@pytest.fixture(scope="module")
def sigma5_report():
    data = generate(SimulationConfig(n=50, sigma=5.0, seed=12345))
    return build_comparison(data, seed=12345)


class TestBuildComparison:
    def test_seven_rows_in_frozen_order(self, sigma5_report):
        assert len(sigma5_report.rows) == 7
        assert tuple(r.model for r in sigma5_report.rows) == COMPARISON_MODEL_TEXTS

    def test_listed_texts_are_canonical(self):
        # a row whose fitted spec prints otherwise than its text was reduced
        for text in COMPARISON_MODEL_TEXTS + BOYLE_MODEL_TEXTS:
            assert format_model(parse_model(text)) == text

    def test_rank_columns_sum_to_28(self, sigma5_report):
        for metric in ("r_squared", "se_y", "se_x", "theta_t", "height"):
            ranks = [r.ranks[metric] for r in sigma5_report.rows]
            assert all(v is not None for v in ranks)
            assert sum(ranks) == pytest.approx(28.0)

    def test_rotations_reduced_at_sigma_5(self, sigma5_report):
        by_model = {r.model: r for r in sigma5_report.rows}
        assert by_model["y ~ 1 + x + x*y"].reduced == "y ~ 1 + x"
        assert by_model["x ~ 1 + y + x*y"].reduced == "x ~ 1 + y"
        assert by_model["x*y ~ 1 + x + y"].reduced == "x*y ~ 1"
        for text in ("y ~ 1 + 1/x", "y ~ 1 + x + x^2", "1 ~ x + y + x*y", "1 ~ x*y"):
            assert by_model[text].reduced is None

    def test_constant_rotation_reports_constancy_flavoured_r2(self, sigma5_report):
        # reduced to x*y ~ 1, whose uncentered R^2 equals both the
        # constancy index of the product and the R^2 of 1 ~ x*y
        data = generate(SimulationConfig(n=50, sigma=5.0, seed=12345))
        by_model = {r.model: r for r in sigma5_report.rows}
        row = by_model["x*y ~ 1 + x + y"]
        assert row.r_squared == pytest.approx(constancy_index(data.x * data.y), abs=1e-12)
        assert row.r_squared == pytest.approx(by_model["1 ~ x*y"].r_squared, abs=1e-12)

    def test_non_response_all_terms_leads(self, sigma5_report):
        by_model = {r.model: r for r in sigma5_report.rows}
        nr = by_model["1 ~ x + y + x*y"]
        assert nr.ranks["r_squared"] == 1.0
        assert nr.ranks["se_y"] <= 2.0

    def test_deterministic(self):
        data = generate(SimulationConfig(n=50, sigma=5.0, seed=7))
        a = build_comparison(data)
        b = build_comparison(data)
        assert a == b


@pytest.mark.parametrize("scale", [1e-80, 1e-84, 1e-90, 2.0 ** 248],
                         ids=["1e-80", "1e-84", "1e-90", "2^248"])
def test_tiny_scale_sample_compares_without_a_traceback(scale):
    # column norms square no entry of R, and standard errors come from R's
    # columns scaled by powers of two: squared plainly, the norms underflow
    # from 1e-84 and overflow at 2^248 (collinear error rows), and the
    # covariance of the y and x rotations overflows at 1e-80 (a term
    # wrongly dropped).  Not so for
    # x*y ~ 1 + x + y, which still reduces to x*y ~ 1 at 1e-80 and below:
    # the square sums of its response x*y go subnormal there
    data = generate(SimulationConfig(n=30, sigma=5.0, seed=0))
    reference = {row.model: row for row in build_comparison(data).rows}
    report = build_comparison(Dataset("x", "y", data.x * scale, data.y * scale))
    rows = {row.model: row for row in report.rows}
    assert [row.model for row in report.rows if row.error is not None] == []
    for text in ("y ~ 1 + x + x*y", "x ~ 1 + y + x*y"):
        assert rows[text].reduced == reference[text].reduced, text
    # at 1e-90 the product SSM * SSE of the 1/x row underflows to 0
    inverse = rows["y ~ 1 + 1/x"]
    assert inverse.theta_t == pytest.approx(reference["y ~ 1 + 1/x"].theta_t, rel=1e-9)


def test_traced_peak_is_at_most_eight_n_row_arrays():
    # four row blocks: the factorisation and the solves hold block-sized
    # temporaries, and the peak is the row sweep's; a fit's sums are dot
    # products on R and hold no row array.  With x = 0 in every block,
    # 1 ~ x*y has undefined y-solves, and predict solves it again into
    # n-row arrays for its pairwise sums
    n = 3 * dataio._BLOCK_ROWS + 1
    build_comparison(generate(SimulationConfig(n=50, sigma=5.0, seed=3)))  # warm caches
    zeros = range(0, n, dataio._BLOCK_ROWS)
    for data, undefined_y in ((generate(SimulationConfig(n=n, sigma=5.0, seed=3)), 0),
                              (_sample_with_zeros(n, 5.0, 3, zeros), len(zeros))):
        tracemalloc.start()
        try:
            report = build_comparison(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rows[-1].undefined_y == undefined_y
        assert peak <= 8 * data.x.nbytes, peak / data.x.nbytes


@pytest.fixture(scope="module")
def n200k():
    return generate(SimulationConfig(n=200_000, sigma=5, seed=7))


def test_traced_peak_at_2e5_rows_is_at_most_two_n_row_arrays(n200k):
    # 25 row blocks of 2^13 rows: every pass over the rows holds block-sized
    # temporaries, so the peak stays near one n-row array (measured 1.29;
    # 3.76 with 2^15-row blocks)
    build_comparison(generate(SimulationConfig(n=50, sigma=5.0, seed=3)))  # warm caches
    tracemalloc.start()
    try:
        build_comparison(n200k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n200k.x.nbytes, peak / n200k.x.nbytes


def test_2e5_rows_match_their_one_block_twin(n200k, monkeypatch):
    # each square sum is a sum of block sums, which moves the metrics only
    # in their last digits; one row carrying most of an SSE_x moves that
    # SE_x and theta_T most (measured 2.2e-9 relative here, 1.6e-8 on seed 1)
    blocked = build_comparison(n200k)
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", n200k.n)
    for got, want in zip(blocked.rows, build_comparison(n200k).rows):
        assert (got.reduced, got.ranks, got.diagnostics, got.error) == (
            want.reduced, want.ranks, want.diagnostics, want.error), want.model
        assert got.metrics == {k: None if v is None else pytest.approx(v, rel=1e-7, abs=0.0)
                               for k, v in want.metrics.items()}, want.model


def _oracle_values(fit, data):
    """A comparison row's metrics and diagnostics composed per model:
    ``predict``; the x and y square sums stacked over the rows where both
    solves are defined, each sum taken on those rows compacted, about their
    own means; ``standard_error`` (each axis summed over its own defined
    solves), ``separation_angle`` and ``relative_height``; None where a
    helper returns None or the triangle has fewer than 3 rows."""
    pred = predict(fit, data)
    pair = pred.y_defined & pred.x_defined
    sums = None
    if np.count_nonzero(pair) >= 3:
        ssm = sse = sst = sum_sq = 0.0
        for obs, est in ((data.y[pair], pred.y_hat[pair]), (data.x[pair], pred.x_hat[pair])):
            mean = obs.mean()
            ssm += float(((est - mean) ** 2).sum())
            sse += float(((obs - est) ** 2).sum())
            sst += float(((obs - mean) ** 2).sum())
            sum_sq += float(obs @ obs)
        sums = SquareSums(ssm, sse, sst, int(np.count_nonzero(pair)), sum_sq)
    se = []
    for obs, est, defined in ((data.y, pred.y_hat, pred.y_defined),
                              (data.x, pred.x_hat, pred.x_defined)):
        sse = float(((obs[defined] - est[defined]) ** 2).sum())
        se.append(standard_error(sse, int(np.count_nonzero(defined)), fit.spec.n_coefficients))
    return {"r_squared": fit.r_squared, "se_y": se[0], "se_x": se[1],
            "theta_t": sums and separation_angle(sums),
            "height": sums and relative_height(sums),
            "undefined_y": int(np.count_nonzero(~pred.y_defined)),
            "undefined_x": int(np.count_nonzero(~pred.x_defined)),
            "complex_x": int(np.count_nonzero(pred.x_complex))}


def _oracle_row(idx, data):
    """The oracle's (reduced text, values) of listed model ``idx``, or its
    error message."""
    try:
        fit = fit_ols(compare._COMPARISON_SPECS[idx], data)
        if idx < compare._N_ROTATIONS:
            fit = reduce_model_trace(fit)[0]
        values = _oracle_values(fit, data)
    except ImplicitRegressionError as exc:
        return str(exc)
    fitted = format_model(fit.spec)
    return None if fitted == COMPARISON_MODEL_TEXTS[idx] else fitted, values


def _hex(values):
    return {k: v.hex() if isinstance(v, float) else v for k, v in values.items()}


def _sample_with_zeros(n, sigma, seed, zeros):
    sample = generate(SimulationConfig(n=n, sigma=sigma, seed=seed))
    x = sample.x.copy()
    x[[i for i in zeros if i < n]] = 0.0
    return Dataset("x", "y", x, sample.y)


@contextmanager
def _injected_solves(salt, raising):
    """Each (fit, axis) drops some of its solves to NaN at a rate drawn from
    its salted name, and the models in ``raising`` take a ``solve_error``,
    both in the sweep and in ``predict``."""
    solve_fits, solve_error = implicit.solve_fits, implicit.solve_error

    def solve_injected(fits, x, y, axis, est):
        complex_mask = solve_fits(fits, x, y, axis, est)
        for k, fit in enumerate(fits):
            rng = random.Random(f"{salt} {fit.spec} {axis}")
            rate = rng.choice([0.0, 0.0, 0.1, 1.0])
            est[k, [i for i in range(x.size) if rng.random() < rate]] = np.nan
        return complex_mask

    def error_injected(fit):
        if str(fit.spec) in raising:
            return DegenerateDataError(f"no solve of {fit.spec}")
        return solve_error(fit)

    with (mock.patch.object(implicit, "solve_fits", solve_injected),
          mock.patch.object(compare, "solve_fits", solve_injected),
          mock.patch.object(implicit, "solve_error", error_injected),
          mock.patch.object(compare, "solve_error", error_injected)):
        yield


_SAMPLES = dict(n=st.integers(3, 60), sigma=st.sampled_from([0.0, 0.5, 5.0, 50.0]),
                seed=st.integers(0, 10_000), zeros=st.sets(st.integers(0, 59), max_size=3),
                salt=st.integers(0, 1_000))


class TestRowSweep:
    """Every report's rows come from one pass over the row blocks that solves
    and sums all its models; each row must be what the per-model route
    gives it."""

    @settings(max_examples=150, deadline=None)
    @given(**_SAMPLES, raising=st.sets(st.sampled_from(
        COMPARISON_MODEL_TEXTS[compare._N_ROTATIONS:]), max_size=2))
    def test_each_row_is_its_per_model_composition(self, n, sigma, seed, zeros, salt,
                                                    raising):
        # x = 0 leaves the 1/x fit an error row and 1 ~ x*y undefined
        # y-solves, besides the injected ones
        data = _sample_with_zeros(n, sigma, seed, zeros)
        with _injected_solves(salt, raising):
            expected = [_oracle_row(idx, data) for idx in range(len(COMPARISON_MODEL_TEXTS))]
            try:
                rows = build_comparison(data).rows
            except ImplicitRegressionError as exc:
                assert all(isinstance(want, str) for want in expected)
                assert str(exc) == expected[0]
                return
        for row, want in zip(rows, expected):
            if isinstance(want, str):
                assert row.error == want, row.model
                continue
            assert row.error is None, row.model
            got = {**row.metrics, **row.diagnostics}
            assert (row.reduced, _hex(got)) == (want[0], _hex(want[1])), row.model

    @pytest.mark.parametrize("source, pairwise", [
        ("sample", []), ("sample_x0", ["x*y ~ 1", "1 ~ x*y"]), ("boyle", [])])
    def test_only_fits_with_an_undefined_solve_take_the_pairwise_route(self, monkeypatch,
                                                                      source, pairwise):
        calls = []

        def counting_predict(fit, data):
            calls.append(format_model(fit.spec))
            return predict(fit, data)

        monkeypatch.setattr(compare, "predict", counting_predict)
        if source == "boyle":
            boyle_summary()
        else:
            data = read_csv(GOLDEN_SAMPLE)
            if source == "sample_x0":
                data = Dataset("x", "y", np.concatenate([[0.0], data.x[1:]]), data.y)
            build_comparison(data)
        assert calls == pairwise

    @settings(max_examples=100, deadline=None)
    @given(**_SAMPLES, texts=st.sampled_from([BOYLE_MODEL_TEXTS, *(
        (text,) for text in COMPARISON_MODEL_TEXTS)]), raising=st.booleans())
    def test_one_and_three_model_sweeps(self, n, sigma, seed, zeros, salt, texts, raising):
        # the sweeps of fit (one model) and boyle (three): unranked rows
        # named by the texts given, an error row for each model that fails,
        # and the errors in row order
        data = _sample_with_zeros(n, sigma, seed, zeros)
        fits = BasisQR(data).fits([parse_model(text) for text in texts])
        with _injected_solves(salt, set(texts[-1:]) if raising else set()):
            expected = []
            for fit in fits:
                try:
                    expected.append(str(fit) if isinstance(fit, ImplicitRegressionError)
                                    else _oracle_values(fit, data))
                except ImplicitRegressionError as exc:
                    expected.append(str(exc))
            rows, errors = compare.model_rows(fits, data, texts)
        assert [str(error) for error in errors] == [
            want for want in expected if isinstance(want, str)]
        for row, text, want in zip(rows, texts, expected):
            assert (row.model, row.reduced, row.ranks) == (text, None, {})
            if isinstance(want, str):
                assert row.error == want, text
                assert set(row.metrics.values()) | set(row.diagnostics.values()) == {None}
                continue
            assert row.error is None, text
            assert _hex({**row.metrics, **row.diagnostics}) == _hex(want), text

    @pytest.mark.parametrize("source", ["seed", "seed_x0", "sample", "sample_x0", "boyle"])
    def test_seven_row_blocks_match_one_block(self, monkeypatch, source):
        if source == "seed":
            datasets = [generate(SimulationConfig(n=50, sigma=5.0, seed=s)) for s in range(8)]
        elif source == "seed_x0":
            # x = 0 in three of the eight blocks: 1 ~ x*y has undefined
            # y-solves there, and its rows are dropped pairwise block by block
            datasets = [_sample_with_zeros(50, 5.0, s, {3, 20, 48}) for s in range(4)]
        elif source == "boyle":
            datasets = [boyle_dataset()]
        else:
            data = read_csv(GOLDEN_SAMPLE)
            if source == "sample_x0":
                data = Dataset("x", "y", np.concatenate([[0.0], data.x[1:]]), data.y)
            datasets = [data]
        fits = [_listed_fits(data) for data in datasets]
        whole = [(build_comparison(data), compare.model_rows(f, data, COMPARISON_MODEL_TEXTS)[0])
                 for data, f in zip(datasets, fits)]
        if source.endswith("_x0"):  # 1 ~ x*y is dropped pairwise
            assert all(report.rows[-1].undefined_y for report, _ in whole)
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 7)
        for data, f, (report, rows) in zip(datasets, fits, whole):
            for got, want in zip(build_comparison(data).rows, report.rows):
                assert (got.reduced, got.ranks, got.diagnostics, got.error) == (
                    want.reduced, want.ranks, want.diagnostics, want.error), want.model
            # the same fits swept in blocks: each square sum is a sum of
            # block sums, which moves only its last bits; a fit dropped
            # pairwise is summed over all rows at once, so it keeps them
            for got, want in zip(compare.model_rows(f, data, COMPARISON_MODEL_TEXTS)[0], rows):
                if want.error is not None or want.undefined_y or want.undefined_x:
                    assert got == want
                    continue
                assert (got.model, got.reduced, got.diagnostics, got.error) == (
                    want.model, want.reduced, want.diagnostics, want.error)
                assert got.metrics == {k: None if v is None else pytest.approx(v, rel=1e-12,
                                       abs=0.0) for k, v in want.metrics.items()}, want.model


def _listed_fits(data):
    """The fits ``build_comparison`` takes its rows from: the listed models,
    the rotations reduced in lockstep."""
    fits = BasisQR(data).fits(compare._COMPARISON_SPECS)
    fits[:compare._N_ROTATIONS] = [fit for fit, _ in reduce_models(fits[:compare._N_ROTATIONS])]
    return fits


def _row_bits(row):
    return row.model, row.reduced, row.error, _hex({**row.metrics, **row.diagnostics})


class TestCrossCommandRows:
    """compare, boyle and fit take their rows from ``model_rows``, so a
    model's row holds the same bits whichever command reports it."""

    def test_boyle_rows_are_its_compare_rows(self):
        listed = {row.model: row for row in build_comparison(boyle_dataset()).rows}
        rows = boyle_summary().rows
        assert [row.model for row in rows] == list(BOYLE_MODEL_TEXTS)
        for row in rows:
            assert row.ranks == {}
            assert _row_bits(row) == _row_bits(listed[row.model])

    @pytest.mark.parametrize("source", ["seeds", "sample", "sample_x0"])
    def test_one_fit_rows_are_compare_rows(self, source):
        # each listed model fitted alone, as the fit command does (the
        # rotations with --reduce), is its compare row named by its fitted
        # text; a model fit_ols cannot fit is an error row there
        if source == "seeds":
            datasets = [generate(SimulationConfig(n=50, sigma=sigma, seed=seed))
                        for sigma in (1.0, 5.0, 20.0) for seed in range(10)]
        else:
            data = read_csv(GOLDEN_SAMPLE)
            if source == "sample_x0":
                data = Dataset("x", "y", np.concatenate([[0.0], data.x[1:]]), data.y)
            datasets = [data]
        for data in datasets:
            for idx, want in enumerate(build_comparison(data).rows):
                try:
                    fit = fit_ols(compare._COMPARISON_SPECS[idx], data)
                    if idx < compare._N_ROTATIONS:
                        fit = reduce_model_trace(fit)[0]
                except ImplicitRegressionError as exc:
                    assert want.error == str(exc), want.model
                    continue
                (row,), errors = compare.model_rows([fit], data, [format_model(fit.spec)])
                assert errors == [] and row.model == (want.reduced or want.model)
                assert _row_bits(row)[2:] == _row_bits(want)[2:], want.model


class TestPerfectFits:
    """y = 2x on x = 1..5: the rotations reduce to exact lines and the
    quadratic fits it up to rounding (SSE ~ 1e-30), which is still perfect."""

    @pytest.fixture(scope="class")
    def rows(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        report = build_comparison(Dataset("x", "y", x, [2.0 * v for v in x]))
        return {r.model: r for r in report.rows}

    def test_rounding_level_sse_has_no_angle_and_zero_height(self, rows):
        quadratic = rows["y ~ 1 + x + x^2"]
        assert quadratic.se_y < 1e-12
        assert quadratic.theta_t is None
        assert quadratic.height == 0.0
        assert quadratic.ranks["theta_t"] is None

    def test_exact_and_rounding_perfect_fits_rank_alike(self, rows):
        quadratic, line = rows["y ~ 1 + x + x^2"], rows["y ~ 1 + x + x*y"]
        assert line.theta_t is None and line.height == 0.0
        for metric in ("r_squared", "se_y", "se_x", "height"):
            assert quadratic.ranks[metric] == line.ranks[metric], metric
        # theta_T ranks only the two imperfect fits
        assert sorted(r.ranks["theta_t"] for r in rows.values()
                      if r.ranks["theta_t"] is not None) == [1.0, 2.0]


# the power of the data's unit each metric carries
_UNIT_POWER = {"r_squared": 0, "se_y": 1, "se_x": 1, "theta_t": 0, "height": 1}


class TestUnitInvariantRanks:
    @pytest.fixture(scope="class")
    def golden_report(self):
        return build_comparison(read_csv(GOLDEN_SAMPLE))

    @pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
    def test_rescaled_columns_rank_alike(self, golden_report, s):
        for metric, direction in _METRIC_DIRECTIONS.items():
            values = [getattr(r, metric) * s ** _UNIT_POWER[metric] for r in golden_report.rows]
            assert rank_models(values, direction).tolist() == [
                r.ranks[metric] for r in golden_report.rows], metric

    def test_sample_in_nano_units_ranks_alike(self, golden_report):
        data = read_csv(GOLDEN_SAMPLE)
        nano = Dataset(data.x_label, data.y_label, data.x * 1e-9, data.y * 1e-9)
        scaled = build_comparison(nano)
        assert [r.ranks for r in scaled.rows] == [r.ranks for r in golden_report.rows]


def _scaled(data, s):
    return Dataset(data.x_label, data.y_label, data.x * s, data.y * s)


class TestUnitInvariantReports:
    """Scaling both axes by s leaves every report unchanged, up to SE_y, SE_x
    and h, which scale by s."""

    @pytest.fixture(scope="class")
    def datasets(self):
        return {name: (data, build_comparison(data)) for name, data in
                (("sample", read_csv(GOLDEN_SAMPLE)), ("boyle", boyle_dataset()))}

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-9, 9), name=st.sampled_from(["sample", "boyle"]))
    def test_report_scales_with_the_data(self, datasets, k, name):
        s = 10.0 ** k
        data, base = datasets[name]
        scaled = build_comparison(_scaled(data, s))
        for want, got in zip(base.rows, scaled.rows):
            assert (got.reduced, got.ranks, got.diagnostics) == (
                want.reduced, want.ranks, want.diagnostics), want.model
            for metric, value in want.metrics.items():
                expected = None if value is None else pytest.approx(
                    value * s ** _UNIT_POWER[metric], rel=1e-9, abs=0.0)
                assert got.metrics[metric] == expected, (want.model, metric)


def _comparison_or_none(data):
    """``build_comparison(data)``'s rows, or None where it raises an
    ``ImplicitRegressionError``; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return build_comparison(data).rows
        except ImplicitRegressionError:
            return None


def test_overflowing_scales_give_error_rows_never_a_wrong_row():
    # scaled by 2^k, every row either is its row at scale 1 (SE_y, SE_x and h
    # scaled by 2^k) or an error row: from 2^249 the sum of squares of the
    # response x*y overflows, further up the stacked square sums do, and from
    # 2^502 or 2^503 every row fails, so build_comparison raises.  Further up,
    # on a coarse grid to 2^1013 (the data stay finite), the basis columns
    # overflow too, with no warning.  Scaled on one axis alone, rows are not
    # their scale-1 rows (theta_T moves), but past 2^500 the overflows end
    # in error rows, and from 2^503 or 2^504 in every row failing
    samples = [read_csv(GOLDEN_SAMPLE)] + [
        generate(SimulationConfig(n=30, sigma=5.0, seed=seed)) for seed in range(5)]
    coarse = [*range(504, 1013, 16), 1013]
    for data in samples:
        base = build_comparison(data).rows
        first_error = all_fail = None
        for k in [*range(240, 504), *coarse]:
            s = 2.0 ** k
            rows = _comparison_or_none(_scaled(data, s))
            if rows is None:
                all_fail = all_fail or k
                continue
            assert all_fail is None, k
            for want, got in zip(base, rows):
                if got.error is not None:
                    first_error = first_error or k
                    continue
                assert (got.reduced, got.r_squared.hex(), got.diagnostics) == (
                    want.reduced, want.r_squared.hex(), want.diagnostics), (k, want.model)
                for metric, value in want.metrics.items():
                    assert got.metrics[metric] == pytest.approx(
                        value * s ** _UNIT_POWER[metric], rel=1e-9, abs=0.0), (k, metric)
        assert (first_error, all_fail in (502, 503)) == (249, True), (first_error, all_fail)
        for sx, sy in ((1.0, 0.0), (0.0, 1.0)):
            all_fail = None
            # every k near the ends: at 2^1009 on the golden sample a norm
            # lies in [2^1023, max], past the largest power of two
            for k in [*range(500, 512), *range(512, 1000, 16), *range(1000, 1014)]:
                s = 2.0 ** k
                scaled = Dataset("x", "y", data.x * (s ** sx), data.y * (s ** sy))
                if _comparison_or_none(scaled) is None:
                    all_fail = all_fail or k
                else:
                    assert all_fail is None, (sx, k)
            assert all_fail in (503, 504), (sx, all_fail)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([6, 12, 30]), sigma=st.sampled_from([1.0, 5.0, 20.0]),
       seed=st.integers(0, 10_000), zeros=st.sets(st.integers(0, 29), max_size=10),
       k=st.integers(470, 511))
# sigma^2 times the covariance overflowed: the SEs of y ~ 1 + x + x*y were
# inf, so t = 0, and x*y was dropped with a RuntimeWarning
@example(n=30, sigma=1.0, seed=7, zeros=set(), k=502)
@example(n=6, sigma=1.0, seed=0, zeros=set(), k=501)
# the pairwise SSE_y of 1 ~ x*y overflowed to inf, and ranking it raised
@example(n=12, sigma=5.0, seed=0, zeros=set(range(10)), k=504)
def test_near_the_top_of_the_range_rows_fail_as_error_rows_only(n, sigma, seed, zeros, k):
    # scaled by 2^k, compare and each listed model fitted alone (as the fit
    # command does) raise nothing but ImplicitRegressionError and warn of
    # nothing; every defined metric is finite, and every compare row that
    # fits reduces as at scale 1
    data = _sample_with_zeros(n, sigma, seed, zeros)
    base = _comparison_or_none(data)
    scaled = _scaled(data, 2.0 ** k)
    rows = _comparison_or_none(scaled) or []
    for want, got in zip(base or rows, rows):
        if got.error is None:
            assert all(v is None or math.isfinite(v) for v in got.metrics.values()), got.model
            if base is not None and want.error is None:
                assert got.reduced == want.reduced, got.model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for idx, spec in enumerate(compare._COMPARISON_SPECS):
            try:
                fit = fit_ols(spec, scaled)
                if idx < compare._N_ROTATIONS:
                    fit = reduce_model_trace(fit)[0]
            except ImplicitRegressionError:
                continue
            assert fit.coefficients  # which the fit command prints
            (row,), _ = compare.model_rows([fit], scaled, [format_model(fit.spec)])
            assert all(v is None or math.isfinite(v) for v in row.metrics.values()), row.model


class TestUnitDependence:
    """The invariance group is one common scale of both axes: theta_T moves
    with the ratio of the axes' units, R^2 and the reductions do not."""

    def test_one_axis_scale_moves_theta_t_only(self):
        boyle = boyle_dataset()
        for s, want in ((1.0, [92.97, 96.39, 84.30]), (25.4, [94.00, 90.01, 89.99])):
            # pressure in inches of mercury, then in mm Hg
            mm = Dataset(boyle.x_label, boyle.y_label, boyle.x, boyle.y * s)
            rows = {row.model: row for row in build_comparison(mm).rows}
            assert [round(rows[text].theta_t, 2) for text in BOYLE_MODEL_TEXTS] == want
        data = generate(SimulationConfig(n=50, sigma=5.0, seed=0))

        def pinned(x, y):
            return [(row.reduced, row.r_squared.hex()) for row in build_comparison(
                Dataset(data.x_label, data.y_label, x, y)).rows]

        base = pinned(data.x, data.y)
        for k in (-3, 4, 10):
            assert pinned(data.x * 2.0 ** k, data.y) == base, k
            assert pinned(data.x, data.y * 2.0 ** k) == base, k


class TestFailureIsolation:
    """A model that cannot be fit degrades its own row, not the table."""

    INVERSE = "y ~ 1 + 1/x"
    MID_LIST = "y ~ 1 + x + x^2"

    @pytest.fixture(scope="class")
    def zero_x_report(self):
        data = Dataset("x", "y", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                       [5.1, 3.9, 3.2, 2.1, 0.8, 0.1])
        return build_comparison(data)

    def test_only_the_inverse_model_fails(self, zero_x_report):
        for row in zero_x_report.rows:
            if row.model == self.INVERSE:
                assert row.error == "1/x is undefined at x = 0"
                assert set(row.metrics.values()) == {None}
                assert set(row.ranks.values()) == {None}
                assert set(row.diagnostics.values()) == {None}
            else:
                assert row.error is None
                assert row.r_squared is not None

    def test_ranks_cover_the_six_defined_rows(self, zero_x_report):
        for metric in ("r_squared", "se_y", "se_x", "theta_t", "height"):
            ranks = [r.ranks[metric] for r in zero_x_report.rows if r.ranks[metric] is not None]
            assert len(ranks) == 6 and sum(ranks) == pytest.approx(21.0)

    def test_renderers_keep_their_schema(self, zero_x_report):
        payload = report_to_dict(zero_x_report)
        assert [set(m) for m in payload["models"]] == [
            {"model", "reduced", "metrics", "ranks", "diagnostics"}
        ] * 7
        inverse = next(line for line in render_csv(zero_x_report).splitlines()
                       if line.startswith(self.INVERSE))
        assert inverse == "y ~ 1 + 1/x,,n/a,n/a,n/a,n/a,n/a,-,-,-,-,-,n/a,n/a,n/a"
        assert "| y ~ 1 + 1/x | - | n/a (-) |" in render_markdown(zero_x_report)

    def test_every_model_failing_raises_the_first_error(self):
        data = Dataset("x", "y", [0.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(SingularDesignError, match="x, x\\*y"):
            build_comparison(data)

    def test_a_failed_solve_keeps_its_row_in_place(self, sigma5_report, monkeypatch):
        failing = parse_model(self.MID_LIST)
        solve_error = compare.solve_error

        def failing_one(fit):
            if fit.spec == failing:
                return DegenerateDataError("every solve hit a singular denominator")
            return solve_error(fit)

        monkeypatch.setattr(compare, "solve_error", failing_one)
        report = build_comparison(generate(SimulationConfig(n=50, sigma=5.0, seed=12345)),
                                  seed=12345)
        assert tuple(r.model for r in report.rows) == COMPARISON_MODEL_TEXTS
        for row, full in zip(report.rows, sigma5_report.rows):
            if row.model == self.MID_LIST:
                assert row.error == "every solve hit a singular denominator"
                assert set(row.metrics.values()) == {None}
                assert set(row.ranks.values()) == {None}
                continue
            assert row.error is None and row.reduced == full.reduced
            assert row.metrics == full.metrics
        # the other six keep the order they had among seven
        defined = [i for i, r in enumerate(report.rows) if r.model != self.MID_LIST]
        for metric in _METRIC_DIRECTIONS:
            ranks = [report.rows[i].ranks[metric] for i in defined]
            before = [sigma5_report.rows[i].ranks[metric] for i in defined]
            assert sum(ranks) == pytest.approx(21.0)
            assert (sorted(range(6), key=lambda k: (ranks[k], k))
                    == sorted(range(6), key=lambda k: (before[k], k)))

    @pytest.mark.parametrize("first_fails_at", ["solve", "fit"])
    def test_fit_and_solve_failures_raise_the_first_models_error(self, monkeypatch,
                                                                 first_fails_at):
        # every fit has a solve error, y ~ 1 + 1/x fails at its fit (x = 0),
        # and so does the first model when first_fails_at is "fit"
        raised = []

        def solve_failing(fit):
            raised.append(DegenerateDataError(f"no solve of {fit.spec}"))
            return raised[-1]

        fits = compare.BasisQR.fits
        first = compare._COMPARISON_SPECS[0]

        def fits_failing_first(basis, specs):
            results = fits(basis, specs)
            if first_fails_at == "fit" and first in specs[:1]:
                raised.append(SingularDesignError("the first model"))
                results[0] = raised[-1]
            return results

        monkeypatch.setattr(compare, "solve_error", solve_failing)
        monkeypatch.setattr(compare.BasisQR, "fits", fits_failing_first)
        data = Dataset("x", "y", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                       [5.1, 3.9, 3.2, 2.1, 0.8, 0.1])
        with pytest.raises(ImplicitRegressionError) as excinfo:
            build_comparison(data)
        assert excinfo.value is raised[0]
        assert isinstance(raised[0], SingularDesignError) == (first_fails_at == "fit")
        # every fit takes its solve error before the pass, but the two that
        # fail at their fit are not asked for one
        live = len(COMPARISON_MODEL_TEXTS) - 1 - (first_fails_at == "fit")
        assert len(raised) == live + (first_fails_at == "fit")

    def test_a_fit_with_a_solve_error_is_solved_in_no_block(self, monkeypatch):
        # three row blocks: y ~ 1 + x + x^2 and 1 ~ x*y take a solve error
        # before the pass, so neither is handed to solve_fits in any block
        # or axis, and every other row keeps its bits
        failing = {"y ~ 1 + x + x^2", "1 ~ x*y"}
        data = generate(SimulationConfig(n=30, sigma=5.0, seed=3))
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 10)
        twin = build_comparison(data)
        solve_fits, solve_error, calls = compare.solve_fits, compare.solve_error, []

        def solve_counted(fits, x, y, axis, est):
            calls.append((axis, [str(fit.spec) for fit in fits]))
            return solve_fits(fits, x, y, axis, est)

        def failing_two(fit):
            if str(fit.spec) in failing:
                return DegenerateDataError(f"no solve of {fit.spec}")
            return solve_error(fit)

        monkeypatch.setattr(compare, "solve_fits", solve_counted)
        monkeypatch.setattr(compare, "solve_error", failing_two)
        report = build_comparison(data)
        solved = [row.reduced or row.model for row in twin.rows]
        solved = [spec for spec in solved if spec not in failing]
        assert len(solved) == len(COMPARISON_MODEL_TEXTS) - 2
        assert calls == [(axis, solved) for _ in range(3) for axis in (1, 0)]
        for row, want in zip(report.rows, twin.rows):
            spec = row.reduced or row.model
            if spec in failing:
                assert row.error == f"no solve of {spec}"
                continue
            assert (row.error, row.reduced, row.metrics, row.diagnostics) == (
                None, want.reduced, want.metrics, want.diagnostics), spec

class TestRendering:
    def test_markdown_contains_all_models_and_footer(self, sigma5_report):
        text = render_markdown(sigma5_report)
        for model in COMPARISON_MODEL_TEXTS:
            assert model in text
        assert "height variant: projection" in text
        assert "generator seed: 12345" in text

    def test_csv_rows_and_footer(self, sigma5_report):
        lines = render_csv(sigma5_report).strip().splitlines()
        assert len(lines) == 9  # header + 7 rows + settings comment
        assert lines[0].startswith("model,reduced,r_squared")
        assert lines[-1].startswith("#")

    def test_json_schema_stable_across_datasets(self):
        reports = [
            build_comparison(generate(SimulationConfig(n=50, sigma=5.0, seed=1))),
            build_comparison(generate(SimulationConfig(n=80, sigma=1.0, seed=2))),
        ]
        payloads = [json.loads(render_json(r)) for r in reports]

        def key_paths(obj, prefix=""):
            paths = set()
            if isinstance(obj, dict):
                for k, v in obj.items():
                    paths.add(f"{prefix}.{k}")
                    paths |= key_paths(v, f"{prefix}.{k}")
            elif isinstance(obj, list):
                for item in obj:
                    paths |= key_paths(item, f"{prefix}[]")
            return paths

        assert key_paths(payloads[0]) == key_paths(payloads[1])

    def test_json_round_trips_ranks(self, sigma5_report):
        payload = json.loads(render_json(sigma5_report))
        assert len(payload["models"]) == 7
        assert payload["settings"]["alpha"] == 0.05
        total = sum(m["ranks"]["r_squared"] for m in payload["models"])
        assert total == pytest.approx(28.0)

    def test_report_dict_matches_rows(self, sigma5_report):
        payload = report_to_dict(sigma5_report)
        for row, entry in zip(sigma5_report.rows, payload["models"]):
            assert entry["model"] == row.model
            assert entry["metrics"]["r_squared"] == row.r_squared

    @pytest.mark.parametrize("rank", [None, *(k / 2 for k in range(2, 15))])
    def test_rank_text_matches_two_branch_format(self, rank):
        # the whole-or-half rule the "g" format replaced
        if rank is None:
            want = "-"
        elif rank == int(rank):
            want = str(int(rank))
        else:
            want = f"{rank:.1f}"
        assert compare._fmt_rank(rank) == want


class TestBoyleSummary:
    def test_constancy_anchors(self):
        s = boyle_summary()
        assert s.constancy_volume == pytest.approx(0.8595, abs=0.003)
        assert s.constancy_pressure == pytest.approx(0.8551, abs=0.003)
        assert s.constancy_product == pytest.approx(0.9999878, abs=1e-4)

    def test_model_rows(self):
        s = boyle_summary()
        assert [r.model for r in s.rows] == [
            "1 ~ x + y + x*y",
            "y ~ 1 + x + x^2",
            "y ~ 1 + 1/x",
        ]
        quadratic = s.rows[1]
        assert quadratic.complex_x == 3
        assert s.rows[0].complex_x == 0 and s.rows[2].complex_x == 0

    def test_plot_data_payloads(self):
        files = boyle_plot_data(boyle_summary())
        assert set(files) == {
            "overlay_nonresponse.csv",
            "overlay_quadratic.csv",
            "overlay_inverse.csv",
            "hist_volume.csv",
            "hist_pressure.csv",
            "hist_product.csv",
        }
        for name, content in files.items():
            lines = content.strip().splitlines()
            if name.startswith("overlay_"):
                assert lines[0] == "volume,pressure,estimated_pressure"
                assert len(lines) == 26
            else:
                assert lines[0] == "bin_left,bin_right,count"
                assert len(lines) > 1
