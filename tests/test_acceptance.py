"""Acceptance suite: the package's exit criteria.

Each test covers one numbered criterion at its stated tolerance and
prints one pass/fail line (run with -s to see them interleaved).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from implicitreg import (
    Dataset,
    RankDirection,
    SimulationConfig,
    boyle_dataset,
    boyle_summary,
    build_comparison,
    constancy_index,
    fit_ols,
    generate,
    predict,
    rank_models,
    self_weighting_mean,
    separation_angle,
)
from implicitreg.cli import main
from implicitreg.formula import Term, parse_model
from implicitreg.metrics import SquareSums, pairwise_square_sums


@contextmanager
def criterion(number: int, label: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.2f}s >= {limit_seconds}s"
        )
    print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]", flush=True)


def test_criterion_1_boyle_constancy_anchors(capsys):
    with criterion(1, "Boyle constancy anchors", limit_seconds=1.0):
        assert main(["boyle", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        anchors = payload["constancy"]
        assert anchors["volume"] == pytest.approx(0.8595, abs=0.003)
        assert anchors["pressure"] == pytest.approx(0.8551, abs=0.003)
        assert anchors["product"] == pytest.approx(0.9999878, abs=1e-4)


def test_criterion_2_boyle_geometry_anchors():
    with criterion(2, "Boyle geometry anchors", limit_seconds=1.0):
        summary = boyle_summary()
        by_model = {row.model: row for row in summary.rows}
        non_response = by_model["1 ~ x + y + x*y"]
        quadratic = by_model["y ~ 1 + x + x^2"]
        inverse = by_model["y ~ 1 + 1/x"]

        assert non_response.theta_t == pytest.approx(92.97, abs=0.5)
        assert quadratic.theta_t == pytest.approx(96.40, abs=0.5)
        assert inverse.theta_t == pytest.approx(84.3, abs=0.5)

        assert non_response.height < inverse.height < quadratic.height
        assert non_response.height == pytest.approx(0.01555, rel=0.20)
        assert inverse.height == pytest.approx(0.02345, rel=0.20)
        assert quadratic.height == pytest.approx(0.94929, rel=0.20)


def test_criterion_3_noiseless_recovery():
    with criterion(3, "noiseless recovery", limit_seconds=1.0):
        data = generate(SimulationConfig(n=50, sigma=0.0, seed=11))

        full = fit_ols(parse_model("1 ~ x + y + x*y"), data)
        estimates = {c.term: c.estimate for c in full.coefficients}
        assert estimates[Term.X] == pytest.approx(0.0, abs=1e-8)
        assert estimates[Term.Y] == pytest.approx(0.0, abs=1e-8)
        assert estimates[Term.XY] == pytest.approx(1.0 / 4000.0, abs=1e-8)
        assert full.r_squared == pytest.approx(1.0, abs=1e-12)

        single = fit_ols(parse_model("1 ~ x*y"), data)
        assert single.coefficients[0].estimate == pytest.approx(
            1.0 / 4000.0, abs=1e-10
        )


def test_criterion_4_population_constancy_oracle():
    with criterion(4, "population constancy oracle", limit_seconds=10.0):
        # independent Monte Carlo oracle for the product-noise moments:
        # Var(x_i y_i) = sigma^2 (E[x^2] + E[y^2]) + sigma^4 with
        # E[x^2] = 4000 and E[y^2] = 14800 by direct integration
        rng = np.random.default_rng(20240501)
        n_mc = 1_000_000
        t = rng.uniform(1.0, 10.0, n_mc)
        assert (200.0 / t) ** 2 @ np.ones(n_mc) / n_mc == pytest.approx(4000.0, rel=0.01)
        assert (20.0 * t) ** 2 @ np.ones(n_mc) / n_mc == pytest.approx(14800.0, rel=0.01)
        for sigma in (1.0, 5.0):
            product = (200.0 / t + rng.normal(0, sigma, n_mc)) * (
                20.0 * t + rng.normal(0, sigma, n_mc)
            )
            expected_var = 18800.0 * sigma ** 2 + sigma ** 4
            assert product.var(ddof=1) == pytest.approx(expected_var, rel=0.01)

        # the anchors themselves, at n = 5000
        for sigma in (1.0, 5.0):
            data = generate(SimulationConfig(n=5000, sigma=sigma, seed=314))
            population = 1.0 / (1.0 + (18800.0 * sigma ** 2 + sigma ** 4) / 4000.0 ** 2)
            observed = constancy_index(data.x * data.y)
            assert observed == pytest.approx(population, abs=0.005)


def test_criterion_5_qualitative_table_reproduction():
    with criterion(5, "qualitative comparison over 100 seeds", limit_seconds=30.0):
        r2_first = 0
        se_y_top2 = 0
        constancy_ordered = 0
        for seed in range(100):
            data = generate(SimulationConfig(n=50, sigma=5.0, seed=seed))
            report = build_comparison(data)
            row = {r.model: r for r in report.rows}["1 ~ x + y + x*y"]
            if row.ranks["r_squared"] == 1.0:
                r2_first += 1
            if row.ranks["se_y"] is not None and row.ranks["se_y"] <= 2.0:
                se_y_top2 += 1
            c_x = constancy_index(data.x)
            c_y = constancy_index(data.y)
            c_xy = constancy_index(data.x * data.y)
            if c_xy > c_y > c_x:
                constancy_ordered += 1
        assert r2_first >= 90, f"non-response best R^2 in only {r2_first}/100 seeds"
        assert se_y_top2 >= 90, f"non-response SE_y top-2 in only {se_y_top2}/100 seeds"
        assert constancy_ordered >= 95, (
            f"constancy ordering held in only {constancy_ordered}/100 seeds"
        )


def _y_only_square_sums(data, pred) -> SquareSums:
    """SSM/SSE/SST of the y coordinate alone over its defined solves: the
    classical one-axis decomposition, computed apart from the package."""
    keep = pred.y_defined
    y, y_hat = data.y[keep], pred.y_hat[keep]
    mean = y.mean()
    return SquareSums(ssm=float(((y_hat - mean) ** 2).sum()),
                      sse=float(((y - y_hat) ** 2).sum()),
                      sst=float(((y - mean) ** 2).sum()),
                      n=int(keep.sum()), sst_uncentered=float(y @ y))


def test_criterion_6_pythagoras_and_law_of_cosines():
    with criterion(6, "orthogonality and law-of-cosines checks"):
        rng = np.random.default_rng(606)
        collected: list[SquareSums] = []
        for _ in range(25):
            x = rng.uniform(1.0, 10.0, 40)
            y = rng.uniform(1.0, 10.0, 40)
            data = Dataset("x", "y", x, y)
            for text in ("y ~ 1 + x", "y ~ 1 + x + x^2", "y ~ 1 + 1/x"):
                fit = fit_ols(parse_model(text), data)
                pred = predict(fit, data)
                s_y = _y_only_square_sums(data, pred)
                assert separation_angle(s_y) == pytest.approx(90.0, abs=1e-6)
                collected.append(s_y)
                collected.append(pairwise_square_sums(data, pred)[2])
        for s in collected:
            angle = np.radians(separation_angle(s))
            rebuilt = s.ssm + s.sse - 2.0 * np.sqrt(s.ssm * s.sse) * np.cos(angle)
            assert rebuilt == pytest.approx(s.sst, rel=1e-9)


def test_criterion_7_estimator_identities():
    with criterion(7, "estimator identity property suite"):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            v = rng.uniform(0.1, 100.0, n)
            data = Dataset("x", "y", v, np.ones(n))
            fit = fit_ols(parse_model("1 ~ x"), data)
            alpha = fit.coefficients[0].estimate

            swm = self_weighting_mean(v)
            assert swm == pytest.approx(1.0 / alpha, abs=1e-10 * max(1.0, abs(swm)))
            assert constancy_index(v) == pytest.approx(fit.r_squared, abs=1e-12)
            assert swm >= v.mean() - 1e-12  # Cauchy-Schwarz on positive data

            c = float(rng.uniform(0.1, 10.0))
            assert constancy_index(c * v) == pytest.approx(
                constancy_index(v), rel=1e-12
            )
            assert self_weighting_mean(c * v) == pytest.approx(c * swm, rel=1e-12)


def test_criterion_8_rank_ties():
    with criterion(8, "average-tie ranking"):
        column = [0.7575, 0.7575, 0.9989, 0.9920, 0.9545, 0.9989, 0.9989]
        ranks = rank_models(column, RankDirection.DESCENDING_BETTER)
        assert ranks.tolist() == [6.5, 6.5, 2.0, 4.0, 5.0, 2.0, 2.0]


def test_criterion_9_quadratic_inversion_flags():
    with criterion(9, "quadratic inversion real-part flags"):
        data = boyle_dataset()
        fit = fit_ols(parse_model("y ~ 1 + x + x^2"), data)
        pred = predict(fit, data)

        # independent oracle: recompute the discriminant sign per point
        b0 = fit.coefficient(None).estimate
        b1 = fit.coefficient(Term.X).estimate
        b2 = fit.coefficient(Term.X_SQUARED).estimate
        negative_disc = (b1 ** 2 - 4.0 * b2 * (b0 - data.y)) < 0.0

        assert pred.x_complex.tolist() == negative_disc.tolist()
        assert np.count_nonzero(pred.x_complex) == 3
        assert negative_disc[:3].all() and not negative_disc[3:].any()

        # the count is surfaced in the verification report
        summary = boyle_summary()
        assert {r.model: r for r in summary.rows}["y ~ 1 + x + x^2"].complex_x == 3
