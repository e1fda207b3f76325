"""Session set-up shared by every test file."""

import importlib.util
import warnings

# When a Hypothesis test fails, Hypothesis writes a failure patch with libcst,
# whose import of mypy_extensions.TypedDict raises a DeprecationWarning.
# Under ``-W error`` that warning ends the whole session with an INTERNALERROR
# that hides the failing assertion, so libcst is imported once here with
# that one message ignored; every other warning still fails the run.
if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                category=DeprecationWarning)
        import libcst  # noqa: F401
