import re

import numpy as np
import pytest

from implicitreg import SimulationConfig, constancy_index, generate


class TestConfig:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=0, sigma=1.0, seed=1)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=10, sigma=-1.0, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=10, sigma=1.0, seed=-1)

    def test_rejects_non_finite_sigma(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=10, sigma=float("inf"), seed=1)

    @pytest.mark.parametrize("kwargs", [{"n": 2.5}, {"n": 10.0}, {"n": True}, {"n": "10"},
                                        {"seed": 1.5}, {"seed": False}, {"seed": None}])
    def test_rejects_a_non_integer_n_or_seed(self, kwargs):
        [name] = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("sigma", ["5", None, True, False, 1j, [1.0]], ids=repr)
    def test_rejects_a_sigma_that_is_no_real_number_by_name(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma must be a real number, not {re.escape(repr(sigma))}$"):
            SimulationConfig(sigma=sigma)

    @pytest.mark.parametrize("sigma", [2, np.float32(0.5), np.int64(3)], ids=repr)
    def test_accepts_a_real_sigma_of_any_numeric_type(self, sigma):
        assert SimulationConfig(sigma=sigma).sigma == sigma

    def test_accepts_numpy_integers(self):
        config = SimulationConfig(n=np.int32(12), sigma=1.0, seed=np.uint64(7))
        np.testing.assert_array_equal(generate(config).x,
                                      generate(SimulationConfig(n=12, sigma=1.0, seed=7)).x)


class TestGenerate:
    def test_noiseless_product_is_constant(self):
        data = generate(SimulationConfig(n=200, sigma=0.0, seed=3))
        np.testing.assert_allclose(data.x * data.y, 4000.0, rtol=1e-12)

    def test_noiseless_ranges(self):
        data = generate(SimulationConfig(n=500, sigma=0.0, seed=4))
        assert np.all((data.x > 20.0) & (data.x < 200.0))
        assert np.all((data.y > 20.0) & (data.y < 200.0))

    def test_deterministic_bit_exact(self):
        config = SimulationConfig(n=64, sigma=5.0, seed=99)
        a = generate(config)
        b = generate(config)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_draw_order_contract(self):
        # three contiguous blocks from PCG64: t, then x noise, then y noise
        config = SimulationConfig(n=32, sigma=2.0, seed=1234)
        data = generate(config)
        rng = np.random.default_rng(1234)
        t = rng.uniform(1.0, 10.0, 32)
        x_noise = rng.normal(0.0, 2.0, 32)
        y_noise = rng.normal(0.0, 2.0, 32)
        np.testing.assert_array_equal(data.x, 200.0 / t + x_noise)
        np.testing.assert_array_equal(data.y, 20.0 * t + y_noise)

    def test_labels(self):
        data = generate(SimulationConfig(n=5, sigma=0.0, seed=0))
        assert (data.x_label, data.y_label) == ("x", "y")


class TestProductErrorPropagation:
    """Noise enters the product as delta*y + eps*x + delta*eps."""

    def test_product_moments_at_sigma_5(self):
        n = 5000
        data = generate(SimulationConfig(n=n, sigma=5.0, seed=2024))
        product = data.x * data.y
        # population variance: sigma^2 (E[x^2] + E[y^2]) + sigma^4
        #                    = 25 * (4000 + 14800) + 625 = 470625
        var = 470625.0
        assert product.mean() == pytest.approx(4000.0, abs=3.0 * np.sqrt(var / n))
        assert product.var(ddof=1) == pytest.approx(var, rel=0.10)

    def test_product_stays_most_constant_across_seeds(self):
        for sigma in (1.0, 5.0):
            wins = 0
            for seed in range(100):
                data = generate(SimulationConfig(n=50, sigma=sigma, seed=seed))
                c_x = constancy_index(data.x)
                c_y = constancy_index(data.y)
                c_xy = constancy_index(data.x * data.y)
                if c_xy > c_x and c_xy > c_y:
                    wins += 1
            assert wins >= 95, f"sigma={sigma}: product most constant in only {wins}/100"

    def test_population_constancy_anchors(self):
        # constancy(xy) -> 1 / (1 + Var(xy)/4000^2) with
        # Var(xy) = 18800 sigma^2 + sigma^4
        for sigma, rounded in ((1.0, 0.9988), (5.0, 0.9712)):
            data = generate(SimulationConfig(n=5000, sigma=sigma, seed=77))
            var = 18800.0 * sigma ** 2 + sigma ** 4
            population = 1.0 / (1.0 + var / 4000.0 ** 2)
            assert population == pytest.approx(rounded, abs=5e-4)
            assert constancy_index(data.x * data.y) == pytest.approx(population, abs=0.005)
