"""The contract of the package's ten records: each is built positionally in
its field order, refuses every assignment, compares equal by value (arrays
element by element), survives copy and pickle, and caches what it caches."""

import copy
import pickle

import numpy as np
import pytest

from implicitreg import (BoyleSummary, Coefficient, ComparisonReport, Dataset, FitResult, ModelRow,
                         ModelSpec, Prediction, SimulationConfig, SquareSums, Term, fit_ols,
                         generate, parse_model)


def _row_args(model="y ~ 1 + x"):
    return (model, None, 0.9, 1.5, 2.5, 91.0, 0.25, 0, 1, 2, {"r_squared": 1.0, "se_y": 2.0}, None)


def _row(model="y ~ 1 + x"):
    return ModelRow(*_row_args(model))


def _data():
    return Dataset("volume", "pressure", [1.0, 2.0, 4.0, 8.0], [8.0, 4.5, 2.0, 1.0])


# per record, its class, its field names in constructor order and a factory
# of fresh positional arguments
RECORDS = {
    "Dataset": (Dataset, ("x_label", "y_label", "x", "y"),
                lambda: ("volume", "pressure", [1.0, 2.0, 4.0], [8.0, 4.5, 2.0])),
    "ModelSpec": (ModelSpec, ("response", "predictors", "intercept"),
                  lambda: (Term.Y, (Term.X, Term.XY), True)),
    "Coefficient": (Coefficient, ("term", "estimate", "std_error", "t_stat", "dof"),
                    lambda: (Term.X, 1.5, 0.5, 3.0, 10)),
    "FitResult": (FitResult, ("spec", "n", "estimates", "sse", "r_squared", "residual_dof",
                              "basis", "_r", "_sigma2", "_norms"),
                  lambda: (parse_model("y ~ 1 + x"), 10, (1.0, 2.0), 3.0, 0.5, 8, None,
                           np.eye(2), 0.375, np.ones(2))),
    "SquareSums": (SquareSums, ("ssm", "sse", "sst", "n", "sst_uncentered"),
                   lambda: (3.0, 4.0, 7.0, 10, 20.0)),
    "Prediction": (Prediction, ("y_hat", "x_hat", "x_complex"),
                   lambda: (np.array([1.0, np.nan]), np.array([2.0, 3.0]),
                            np.array([False, True]))),
    "SimulationConfig": (SimulationConfig, ("n", "sigma", "seed"), lambda: (40, 2.5, 7)),
    "ModelRow": (ModelRow, ("model", "reduced", "r_squared", "se_y", "se_x", "theta_t", "height",
                            "undefined_y", "undefined_x", "complex_x", "ranks", "error"),
                 _row_args),
    "ComparisonReport": (ComparisonReport, ("n", "x_label", "y_label", "seed", "rows"),
                         lambda: (50, "x", "y", 7, (_row(), _row("1 ~ x*y")))),
    "BoyleSummary": (BoyleSummary, ("n", "constancy_volume", "constancy_pressure",
                                    "constancy_product", "product_estimate", "rows", "data",
                                    "fits"),
                     lambda: (4, 0.86, 0.85, 0.99, 8.5, (_row(),), _data(), ())),
}
# fields that == and hash ignore
UNCOMPARED = {"FitResult": ("basis", "_r", "_sigma2", "_norms"), "BoyleSummary": ("data", "fits")}
# fields no argument sets
DERIVED = {"Prediction": ("y_defined", "x_defined")}
# holding arrays, these are unhashable
ARRAY_RECORDS = ("Dataset", "Prediction")


def _build(name):
    cls, _, args = RECORDS[name]
    return cls(*args())


def _same(a, b):
    """Equal values; arrays, and the arrays of datasets, element by element."""
    if isinstance(a, Dataset):
        return all(_same(getattr(a, field), getattr(b, field)) for field in RECORDS["Dataset"][1])
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.mark.parametrize("name", RECORDS)
def test_positional_arguments_fill_the_fields_in_order(name):
    cls, fields, args = RECORDS[name]
    values = args()
    record = cls(*values)
    for field, value in zip(fields, values, strict=True):
        assert _same(getattr(record, field), value), field


@pytest.mark.parametrize("name", RECORDS)
def test_every_field_refuses_assignment_and_deletion(name):
    record = _build(name)
    for field in RECORDS[name][1] + DERIVED.get(name, ()):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before, field
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_equal(name):
    a, b = _build(name), _build(name)
    assert a == b and not a != b
    assert a != "not a record"


@pytest.mark.parametrize("name", RECORDS)
def test_each_compared_field_takes_part(name):
    record = _build(name)
    fields = RECORDS[name][1] + DERIVED.get(name, ())
    for field in fields:
        other = type(record).__new__(type(record))
        for f in fields:
            # (None, 0) is equal to no field value here
            object.__setattr__(other, f, (None, 0) if f == field else getattr(record, f))
        assert (record == other) is (field in UNCOMPARED.get(name, ())), field


@pytest.mark.parametrize("a, b", [
    (_data(), Dataset("volume", "pressure", [1.0, 2.0, 4.0, 8.0], [8.0, 4.5, 2.0, 1.5])),
    (_data(), Dataset("volume", "pressure", [1.0, 2.0, 4.0], [8.0, 4.5, 2.0])),
    (_data(), Dataset("volume", "P", [1.0, 2.0, 4.0, 8.0], [8.0, 4.5, 2.0, 1.0])),
    (Prediction(np.array([1.0, np.nan]), np.array([2.0, 3.0]), np.array([False, True])),
     Prediction(np.array([1.0, 2.0]), np.array([2.0, 3.0]), np.array([False, True]))),
    (Prediction(np.array([1.0, np.nan]), np.array([2.0, 3.0]), np.array([False, True])),
     Prediction(np.array([1.0, np.nan]), np.array([2.0, 3.0]), np.array([False, False]))),
], ids=["dataset-value", "dataset-length", "dataset-label", "prediction-nan", "prediction-flag"])
def test_array_records_that_differ_compare_unequal(a, b):
    assert a != b and not a == b and b != a


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(_build(name))


def test_model_spec_hashes_by_value():
    a, b = parse_model("x*y ~ 1 + x + y"), ModelSpec(Term.XY, (Term.X, Term.Y), True)
    assert a is not b and hash(a) == hash(b)
    assert {a: "rotation"}[b] == "rotation"
    assert len({a, b, parse_model("x*y ~ 1 + x")}) == 2


def test_model_row_starts_with_its_own_ranks():
    a, b = ModelRow("y ~ 1 + x"), ModelRow("y ~ 1 + x")
    assert a.ranks == {} and a.ranks is not b.ranks
    assert a == b


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda record: pickle.loads(pickle.dumps(record))])
def test_copies_and_pickles_keep_every_field(name, clone):
    record = _build(name)
    twin = clone(record)
    assert type(twin) is type(record)
    for field in RECORDS[name][1]:
        assert _same(getattr(twin, field), getattr(record, field)), field
    assert twin == record


def test_dataset_axis_sums_are_computed_once():
    data = generate(SimulationConfig(n=30, sigma=1.0, seed=3))
    first = data.axis_sums
    assert data.axis_sums is first
    assert copy.copy(data).axis_sums is first


def test_fit_coefficients_are_computed_once(monkeypatch):
    fit = fit_ols(parse_model("y ~ 1 + x"), generate(SimulationConfig(n=30, sigma=1.0, seed=3)))
    inverses = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or inv(a))
    first = fit.coefficients
    assert fit.coefficients is first and fit.coefficient(Term.X) is first[1]
    assert len(inverses) == 1
