"""Span tracing of gkdim's public functions, installed from outside the library.

Each wrapped call records a span (id, parent id, name, start, end) in
memory, with references to its arguments and result so that work counts can
be derived after the timed pass, outside every span. A wrapper replaces the
function in every gkdim module that binds it, so a name imported with
`from .samuel import detect_polynomial` is traced as well as the defining
module's own. uninstall() puts every original back.
"""

import importlib
import sys
import time

#: (layer module, public function) pairs; a dotted name is a method
TARGETS = (
    ("cli", "run"), ("cli", "parse_spec"), ("cli", "render_report"),
    ("hilbert", "numerator_terms"), ("hilbert", "standard_monomial_counts"),
    ("hilbert", "module_dim_sequence"), ("hilbert", "hilbert_series_monomial_quotient"),
    ("presentations", "count_monomials_by_weight"),
    ("samuel", "classify_growth"), ("samuel", "detect_polynomial"),
    ("poincare", "minimal_recurrence"), ("poincare", "denominator_analysis"),
    ("poincare", "series_from_recurrence"), ("poincare", "fit_quasi_polynomial"),
    ("poincare", "RationalSeries.expand"), ("poincare", "RationalSeries.reduced"),
    ("exactnum", "to_binomial_basis"), ("exactnum", "from_binomial_basis"),
    ("exactnum", "Polynomial.gcd"),
    ("axioms", "check_multiplicity_axioms"), ("axioms", "chain_bound_check"),
    ("axioms", "holonomic_defect"),
    ("catalog", "cumulative_sequence"), ("catalog", "graded_values"),
)

LAYERS = ("cli", "presentations", "hilbert", "samuel", "poincare", "exactnum",
          "axioms", "catalog")

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)

ROOT = "cli.run"


class Span:
    __slots__ = ("parent", "name", "start", "end", "args", "result")

    def __init__(self, parent, name, start):
        self.parent, self.name, self.start = parent, name, start
        self.end, self.args, self.result = start, ((), {}), None


def _gkdim_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gkdim" or n.startswith("gkdim."))]


class Tracer:
    """Installs span-recording wrappers; spans accumulate in self.spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(stack[-1] if stack else -1, name, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = clock()
                stack.pop()
                span.args = (args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.bench_span = name
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module("gkdim.cli")
        modules = _gkdim_modules()
        for layer, qualname in TARGETS:
            owner = importlib.import_module(f"gkdim.{layer}")
            name = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))
                self._undo.append((cls, attr, raw))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        missed = untraced_bindings()
        if missed:
            self.uninstall()
            raise RuntimeError(f"wrappers missed bindings: {missed}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _originals() -> dict:
    out = {}
    for layer, qualname in TARGETS:
        owner = importlib.import_module(f"gkdim.{layer}")
        if "." not in qualname:
            fn = getattr(owner, qualname)
            out[id(getattr(fn, "__wrapped__", fn))] = f"{layer}.{qualname}"
    return out


def untraced_bindings() -> list:
    """Module attributes still bound to an unwrapped target function."""
    originals = _originals()
    return sorted(f"{m.__name__}.{attr}" for m in _gkdim_modules()
                  for attr, value in vars(m).items()
                  if id(value) in originals and not hasattr(value, "bench_span"))


def installed_wrappers() -> list:
    """Every place a benchmark wrapper is still bound (empty after uninstall)."""
    found = []
    for module in _gkdim_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "bench_span"):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if hasattr(fn, "bench_span"):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return sorted(set(found))


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans, factors) -> dict:
    """{span name: (self seconds, calls)}; self time excludes wrapped
    children and is scaled by factors[i] within the i-th report's root span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {name: [0.0, 0] for name in SPAN_NAMES}
    report = -1
    for s, c in zip(spans, child):
        report += s.name == ROOT
        entry = out[s.name]
        entry[0] += (s.end - s.start - c) * factors[report]
        entry[1] += 1
    return {k: tuple(v) for k, v in out.items()}


def layer_shares(totals: dict) -> dict:
    """Percent of traced report time spent in each layer's own code."""
    total = sum(t for t, _ in totals.values())
    shares = {layer: 0.0 for layer in LAYERS}
    for name, (t, _) in totals.items():
        shares[name.split(".")[0]] += t
    return {k: 100.0 * v / total if total else 0.0 for k, v in shares.items()}


#: work counts per traced pass, with their units
WORK_COUNTS = {
    "hilbert.numerator_terms.min_generators": "count",
    "hilbert.numerator_terms.max_min_generators": "count",
    "poincare.minimal_recurrence.samples": "count",
    "poincare.minimal_recurrence.orders_tried": "count",
    "poincare.minimal_recurrence.found": "count",
    "samuel.detect_polynomial.fits": "count",
    "poincare.RationalSeries.expand.terms": "count",
    "poincare.denominator_analysis.degree": "count",
    "cli.render_report.bytes": "bytes",
    "hilbert.module_dim_sequence.calls_per_report": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric a traced run prints, in order, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(WORK_COUNTS)
    for layer in LAYERS:
        units[f"layer.{layer}.share"] = "%"
    units["tracing.batch_s"] = "s"
    units["tracing.overhead_s"] = "s"
    return units


def work_counts(spans, minimalize) -> dict:
    """Work counts from the arguments and results of the recorded spans.

    `minimalize` is gkdim's minimalize_ideal, called here after the pass so
    that its time lands in no span.
    """
    counts = dict.fromkeys(WORK_COUNTS, 0)
    roots = dim_calls = 0
    for s in spans:
        args, kwargs = s.args
        if s.name == "hilbert.numerator_terms":
            k = len(minimalize(args[0]))
            counts["hilbert.numerator_terms.min_generators"] += k
            counts["hilbert.numerator_terms.max_min_generators"] = max(
                counts["hilbert.numerator_terms.max_min_generators"], k)
        elif s.name == "poincare.minimal_recurrence":
            n = len(getattr(args[0], "values", args[0]))
            confirm = kwargs.get("confirm", args[1] if len(args) > 1 else 8)
            counts["poincare.minimal_recurrence.samples"] += n
            if s.result is None:
                counts["poincare.minimal_recurrence.orders_tried"] += (n - confirm) // 2
            else:
                counts["poincare.minimal_recurrence.orders_tried"] += s.result.order
                counts["poincare.minimal_recurrence.found"] += 1
        elif s.name == "samuel.detect_polynomial":
            counts["samuel.detect_polynomial.fits"] += s.result is not None
        elif s.name == "poincare.RationalSeries.expand":
            counts["poincare.RationalSeries.expand.terms"] += args[1]
        elif s.name == "poincare.denominator_analysis":
            counts["poincare.denominator_analysis.degree"] += args[0].degree
        elif s.name == "cli.render_report":
            counts["cli.render_report.bytes"] += len((s.result or "").encode())
        elif s.name == "hilbert.module_dim_sequence":
            dim_calls += 1
        elif s.name == ROOT:
            roots += 1
    counts["hilbert.module_dim_sequence.calls_per_report"] = dim_calls / roots if roots else 0.0
    return counts
