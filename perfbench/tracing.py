"""In-memory span tracing installed around the library's public functions.

Modules import each other by name (``from .objectives import
value_and_gradient``), so wrapping a function only in the module that
defines it would miss every call made through another module's binding.
`install` therefore replaces the function in *every* ``sparsepolyak``
module that binds it, and `uninstall` restores the originals.  A target
that no longer exists is skipped, so a function a later version drops or
stops calling reads 0 calls instead of raising.

A span is ``(name, start, end, parent, cell)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``cell`` identifies the solver run
the span belongs to, or the invocation when it lies outside any run.
"""

import csv
import functools
import importlib
import sys
import time

# (module, function) pairs wrapped in a traced run.  The span name is
# "<module>.<function>"; the module name is the layer.
TRACED = (
    ("config", "load_config"),
    ("cli", "cmd_run"),
    ("cli", "cmd_grid"),
    ("cli", "cmd_sweep"),
    ("synthdata", "generate_design"),
    ("synthdata", "generate_truth"),
    ("synthdata", "generate_responses"),
    ("synthdata", "design_spectrum"),
    ("objectives", "value_and_gradient"),
    ("objectives", "objective_value"),
    ("objectives", "gradient"),
    ("objectives", "target_value"),
    ("thresholding", "hard_threshold"),
    ("thresholding", "reciprocal_threshold"),
    ("thresholding", "top_s_support"),
    ("thresholding", "threshold_batch"),
    ("optimizer", "run"),
    ("optimizer", "sparse_polyak_step"),
    ("optimizer", "classic_polyak_step"),
    ("optimizer", "fixed_step_lhat"),
    ("diagnostics", "make_instance"),
    ("diagnostics", "plateau_level"),
    ("diagnostics", "iters_to_plateau"),
    ("diagnostics", "active_median_step"),
    ("dataio", "atomic_write_bytes"),
    ("dataio", "atomic_write_text"),
    ("dataio", "write_trace_csv"),
    ("dataio", "write_summary_json"),
    ("dataio", "write_manifest"),
    ("dataio", "dataset_to_npz"),
)

# A call to this span starts a new cell: one solver run.
CELL_SPAN = "optimizer.run"

PACKAGE = "sparsepolyak"


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patches:
    """Replace a function at every binding in the package; undo on `restore`."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, func: str, make_wrapper) -> bool:
        """Bind ``make_wrapper(original)`` wherever ``module.func`` is bound.

        Returns False, and patches nothing, when the function does not exist.
        """
        original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        return True

    def restore(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class Tracer:
    """Records a span for every call to the `TRACED` functions while installed."""

    def __init__(self):
        self.spans = []
        self.context = "-"
        self._stack = []
        self._cell = None
        self._cells = 0
        self._patches = Patches()

    def _make_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        opens_cell = name == CELL_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outer_cell = self._cell
            if opens_cell:
                self._cells += 1
                self._cell = f"{self.context}.c{self._cells}"
            cell = self._cell or self.context
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._cell = outer_cell
                spans[index] = (name, start, end, parent, cell)

        return traced

    def install(self):
        for module, func in TRACED:
            name = f"{module}.{func}"
            self._patches.wrap(module, func, lambda fn, name=name: self._make_wrapper(name, fn))

    def uninstall(self):
        self._patches.restore()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "cell"])
            for index, (name, start, end, parent, cell) in enumerate(self.spans):
                out.writerow([index, name, f"{start:.9f}", f"{end:.9f}", parent, cell])


def layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanStats:
    """Totals over a list of spans: calls, durations, self times, outermost calls per layer."""

    def __init__(self, spans):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.outer_calls = {}
        self.outer_total = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child_time[index]
            lay = layer(name)
            if parent < 0 or layer(spans[parent][0]) != lay:
                self.outer_calls[lay] = self.outer_calls.get(lay, 0) + 1
                self.outer_total[lay] = self.outer_total.get(lay, 0.0) + duration

    def seconds(self, *names) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def count(self, *names) -> int:
        return sum(self.calls.get(name, 0) for name in names)
