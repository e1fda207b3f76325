"""Spans and counts around the calls between implicitreg's modules.

The benchmark records spans from its own files only: it wraps the public
names one package module calls in another (``compare.fit_ols``,
``implicit.predict_y`` and so on) for the duration of a traced pass, and
restores the originals afterwards.  A name that a later version of the
package no longer has, or no longer calls, is skipped and its layer
reports zero calls.

This module imports only the standard library, so ``traced_cli.py`` can load
it before ``implicitreg.cli`` without moving import time around.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# fields of a span record [name, start, end, parent_index, attrs]
_END, _ATTRS = 2, 4


class Tracer:
    """Spans of one traced pass, kept in memory.

    A span is ``[name, start, end, parent_index, attrs]``; ``parent_index``
    points into the same list (-1 for a root).  ``values`` holds per-pass
    measurements that are not spans, such as import times read from
    ``-X importtime``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._pending: list[tuple] = []  # (span index, attrs_fn, result)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; yields the span's attribute dict."""
        index = self.begin(name)
        try:
            yield self.spans[index][_ATTRS]
        finally:
            self.end(index)

    def wrap(self, fn, name: str, attrs_fn=None):
        """``fn`` recording a span per call.

        ``attrs_fn(result)`` gives the span's counts; it runs in ``take``,
        after the pass, so counting adds nothing to any span's time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if attrs_fn is not None:
                self._pending.append((index, attrs_fn, result))
            return result

        return traced

    def absorb(self, spans: list[list]) -> None:
        """Append the spans another process recorded (its roots stay roots)."""
        base = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, attrs])

    def add_value(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Hand over this pass's spans and values and start a fresh pass."""
        for index, attrs_fn, result in self._pending:
            self.spans[index][_ATTRS].update(attrs_fn(result))
        spans, values = self.spans, self.values
        self.spans, self.values, self._stack, self._pending = [], {}, [], []
        return spans, values


def _fit_attrs(fit) -> dict:
    # bytes of the design matrix plus the response vector this fit factors
    return {"design_bytes": fit.n * (len(fit.coefficients) + 1) * 8}


def _refit_attrs(fit) -> dict:
    return {**_fit_attrs(fit), "refits": 1}


def _predict_attrs(pred) -> dict:
    return {
        "solves": 2 * len(pred.y_hat),
        "complex_x": pred.complex_count_x,
        "undefined": pred.undefined_count_y + pred.undefined_count_x,
    }


def _read_attrs(data) -> dict:
    return {"rows": data.n}


# (module, attribute, span name, attrs_fn).  fitcore.fit_ols is the name
# reduce_model_trace calls for each refit; compare.fit_ols is the first
# fit of every model, so the two never nest and their times add up.
PACKAGE_WRAPS = (
    ("implicitreg.compare", "parse_model", "formula.parse_model", None),
    ("implicitreg.compare", "fit_ols", "fitcore.fit_ols", _fit_attrs),
    ("implicitreg.fitcore", "fit_ols", "fitcore.fit_ols", _refit_attrs),
    ("implicitreg.compare", "reduce_model", "fitcore.reduce_model", None),
    ("implicitreg.compare", "predict", "implicit.predict", _predict_attrs),
    ("implicitreg.implicit", "predict_y", "implicit.predict_y", None),
    ("implicitreg.compare", "model_metrics", "compare.model_metrics", None),
    ("implicitreg.compare", "joint_square_sums", "metrics.joint_square_sums", None),
    ("implicitreg.compare", "rank_models", "metrics.rank_models", None),
)

# what the CLI's compare command calls across module boundaries
CLI_WRAPS = (
    ("implicitreg.cli", "read_csv", "dataio.read_csv", _read_attrs),
    ("implicitreg.cli", "build_comparison", "compare.build_comparison", None),
    ("implicitreg.cli", "render_json", "compare.render", None),
    ("implicitreg.cli", "render_csv", "compare.render", None),
    ("implicitreg.cli", "render_markdown", "compare.render", None),
)


def install(tracer: Tracer, wraps) -> list[tuple]:
    """Replace each wrapped name by its traced version; returns the undo list."""
    undo = []
    for module_name, attr, span_name, attrs_fn in wraps:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        setattr(module, attr, tracer.wrap(original, span_name, attrs_fn))
        undo.append((module, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: total time ``s``, ``self_s``, ``calls`` and summed attrs.

    Self time is a span's duration minus the durations of its direct
    children, so nested layers are never counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
        for key, value in attrs.items():
            entry[key] = entry.get(key, 0) + value
    return out


def import_breakdown(stderr_text: str) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime`` output.

    ``cli.import_s`` is ``implicitreg.cli`` imported at top level (it
    includes the package ``__init__``), ``cli.import_scipy_s`` sums every
    ``scipy`` module whose importer chain holds no other scipy module, and
    ``cli.import_numpy_s`` does the same for numpy outside scipy.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(fields[1])))

    out = {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0, "cli.import_numpy_s": 0.0}
    # the output is post-order (children first); reversed, each line's
    # importers are the shallower lines still on the stack
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        families = {importer.split(".")[0] for _, importer in stack}
        family = name.split(".")[0]
        if name == "implicitreg.cli" and not stack:
            out["cli.import_s"] += cumulative_us / 1e6
        elif family == "scipy" and "scipy" not in families:
            out["cli.import_scipy_s"] += cumulative_us / 1e6
        elif family == "numpy" and not families & {"numpy", "scipy"}:
            out["cli.import_numpy_s"] += cumulative_us / 1e6
        stack.append((depth, name))
    return out
