"""Outside-in tracer: times fed's layers by wrapping module attributes.

The layers are fed's modules. `Tracer.install()` replaces every public
function attribute of the fed modules with a wrapper that records a span
(name, layer, start, end, parent, job id) and the counters below. That
includes names another module imported, such as `fed.cli.load_graph_file`
or `fed.oracle.mwfm`, and the attributes through which `fed.certificate`
calls `matching`, `ratio`, `magic` and `oracle`. `restore()` puts every
original back. The program's source is not edited.

Methods of fed's classes are not module attributes; their time counts
toward the calling layer. `edge_energy_floor` is left unwrapped because it
runs once per edge, and `edge_ratio_floor` only counts its calls, so both
add their time to the caller's self time. The program is single-threaded
with no queues, so no span waits.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("graph", "matching", "lp", "ratio", "magic", "oracle", "certificate", "cli")
_MODULES = ("fed",) + tuple(f"fed.{layer}" for layer in LAYERS)
_UNWRAPPED = {"fed.ratio.edge_energy_floor"}
_COUNT_ONLY = {"fed.ratio.edge_ratio_floor": "ratio.floor_evals"}
_TIME_INTO = {  # inclusive span time also added to these per-layer timers
    "fed.oracle.build_state": "oracle.statevector_ns",
    "fed.oracle.state_energy": "oracle.statevector_ns",
    "fed.oracle.pair_expectations": "oracle.statevector_ns",
    "fed.oracle.optimize_thetas": "oracle.variational_ns",
}
_CALLS_INTO = {
    "fed.lp.maximize": "lp.solves",
    "fed.matching.mwfm": "matching.mwfm_calls",
    "fed.ratio.solve_fraction_set": "ratio.solves",
    "fed.ratio.solve_range": "ratio.solves",
    "fed.magic.edge_energy": "magic.edges_evaluated",
    "fed.oracle.epr_lambda_max": "oracle.spectrum_calls",
    "fed.oracle.build_state": "oracle.build_state_calls",
    "fed.certificate.certify": "certificate.certify_calls",
}


@dataclass
class Span:
    name: str
    layer: str
    start: int = 0
    end: int = 0
    parent: int | None = None
    job: str | None = None
    error: bool = False
    matvecs: int = 0


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_call(tracer: "Tracer", span: Span, args: tuple, kwargs: dict, result) -> None:
    """Work counters that need the call's arguments or result."""
    c = tracer.counters
    if span.name == "fed.lp.maximize":
        m, n = len(_arg(args, kwargs, 1, "rows")), len(_arg(args, kwargs, 0, "c"))
        c["lp.tableau_cells"] += m * (n + m + 1)
    elif span.name == "fed.magic.total_energy":
        c["magic.edges_evaluated"] += len(_arg(args, kwargs, 0, "g").edges)
    elif span.name == "fed.graph.load_graph":
        c["graph.edges_parsed"] += len(result.edges)
    elif span.name == "fed.oracle.epr_lambda_max":
        g = _arg(args, kwargs, 0, "g")
        dim = 1 << g.vertex_count
        c[f"oracle.{result.method}_ns"] += span.end - span.start
        # Computed, not measured: float64 H plus eigenvector matrix for a
        # dense solve; one read and one write of the state per pair term
        # per matvec for an iterative one.
        if result.method == "dense":
            c["oracle.computed_bytes"] += 16 * dim * dim
        else:
            c["oracle.computed_bytes"] += 16 * dim * len(g.pairs) * span.matvecs


def self_times(spans: list) -> list:
    """Span duration minus the time its direct child spans cover.

    Spans of one thread nest, so children lie inside their parent and do
    not overlap each other.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_totals(spans: list) -> dict:
    """Per layer: self time in ns and the spans where an error was raised."""
    out = {layer: {"self_ns": 0, "errors": 0} for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        out[s.layer]["self_ns"] += t
        out[s.layer]["errors"] += s.error
    return out


class Tracer:
    """Spans and counters in memory for one traced stretch of jobs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_exc: BaseException | None = None

    def reset(self) -> None:
        self.spans, self.counters, self._stack, self._last_exc = [], Counter(), [], None

    def _span_wrapper(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, parent=tracer._stack[-1] if tracer._stack else None,
                        job=tracer.job)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_exc:  # raised here, not passed up by a child span
                    span.error = True
                    tracer._last_exc = exc
                raise
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
            if name in _CALLS_INTO:
                tracer.counters[_CALLS_INTO[name]] += 1
            if name in _TIME_INTO:
                tracer.counters[_TIME_INTO[name]] += span.end - span.start
            _after_call(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _eigsh_wrapper(self, fn):
        """Counts the matvecs of the operator that fed.oracle.eigsh receives."""
        from scipy.sparse.linalg import LinearOperator

        tracer = self

        @functools.wraps(fn)
        def wrapper(op, *args, **kwargs):
            span = tracer.spans[tracer._stack[-1]] if tracer._stack else None

            def matvec(v):
                tracer.counters["oracle.matvecs"] += 1
                if span is not None:
                    span.matvecs += 1
                return op.matvec(v)

            counted = LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return fn(counted, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every fed module; idempotent per original."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for modname in _MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                origin = value.__module__
                if origin not in _MODULES[1:]:
                    continue
                name = f"{origin}.{value.__name__}"
                if name in _UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    if name in _COUNT_ONLY:
                        wrappers[id(value)] = self._count_wrapper(value, _COUNT_ONLY[name])
                    else:
                        wrappers[id(value)] = self._span_wrapper(value, name, origin[len("fed."):])
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        oracle = importlib.import_module("fed.oracle")
        self._saved.append((oracle, "eigsh", oracle.eigsh))
        oracle.eigsh = self._eigsh_wrapper(oracle.eigsh)

    def restore(self) -> None:
        """Put back every attribute `install` replaced."""
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []
