"""Span recorder for the traced benchmark run.

Inside ``with Tracer():`` the public entry points of the ahrenvol layers
(``dfalg``, ``collar``, ``renorm`` and ``variation``) are replaced by wrappers
that record one span per call: its name, start, end, parent span and a size
(tensors, grid points or parameters handled).  Leaving the block restores
every original.  The program itself is not modified; the spans sit at the
boundaries the benchmark calls through.

Two kinds of binding are out of reach of a plain module-attribute patch, and
both are handled here:

* names copied by ``from .collar import ...`` (``variation`` holds its own
  reference to ``christoffels``, ``curvature_in_frame`` and friends), so every
  module dictionary holding the original object is patched;
* defaults bound at definition time (``functional=z2_functional`` in
  ``run_flow`` and ``gradient_flow_step``), so function ``__defaults__`` that
  hold the original are rewritten too.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict

from ahrenvol import cli, collar, dfalg, renorm, variation

MODULES = (dfalg, collar, renorm, variation, cli)


def _tensor_count(R, *args, **kwargs):
    return math.prod(R.shape[:-4])


def _points(geom, *args, **kwargs):
    return geom.npts


def _params(theta, *args, **kwargs):
    return len(theta)


# (owner, attribute, span name, size of one call)
ENTRY_POINTS = [
    (dfalg, "batch_invariants", "dfalg.batch_invariants", _tensor_count),
    *[
        (dfalg, name, "dfalg.algebra", None)
        for name in (
            "kn_product", "contract", "contract_k", "hodge_star", "inner",
            "inner_full", "f_h", "bilinear_algebra", "einstein_t2",
            "pfaffian_density", "decompose_curvature",
        )
    ],
    (collar, "curvature_in_frame", "collar.curvature_in_frame", _points),
    (collar, "christoffels", "collar.christoffels", None),
    (collar, "curvature_bar", "collar.curvature_bar", None),
    (collar, "rho_series_fit", "collar.rho_series_fit", None),
    (collar.RadialGeometry, "spatial", "collar.spatial", None),
    (collar.TorusJetGeometry, "spatial", "collar.spatial", None),
    (collar.PerturbedGeometry, "spatial", "collar.spatial", None),
    (collar.TorusJetGeometry, "xderiv", "collar.xderiv", None),
    *[
        (renorm, name, f"renorm.{name}", None)
        for name in (
            "volume_family", "boundary_II", "gauss_bonnet_audit",
            "renormalized_action", "finite_part",
        )
    ],
    *[
        (variation, name, f"variation.{name}", None)
        for name in (
            "functional_gradient", "el_slice_analysis", "linearized_curvature",
            "fd_curvature_derivative", "hessian11", "z2_functional",
        )
    ],
    (variation, "gradient_flow_step", "variation.gradient_flow_step", _params),
]

# cli.main is called by the benchmark itself, which opens its span directly.
SPAN_NAMES = sorted({name for _, _, name, _ in ENTRY_POINTS} | {"cli.main"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "size", "ok", "child_s")

    def __init__(self, name, start, parent, size):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.size = size
        self.ok = False
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans in memory while patched; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: Span | None = None
        self._undo: list = []

    # -- span bookkeeping --------------------------------------------------------

    def open(self, name: str, size: int = 1) -> Span:
        span = Span(name, time.perf_counter(), self._open, size)
        self.spans.append(span)
        self._open = span
        return span

    def close(self, span: Span, ok: bool = True) -> None:
        span.end = time.perf_counter()
        span.ok = ok
        self._open = span.parent
        if span.parent is not None:
            span.parent.child_s += span.duration

    @contextlib.contextmanager
    def region(self, name: str, size: int = 1):
        span = self.open(name, size)
        try:
            yield span
        except BaseException:
            self.close(span, ok=False)
            raise
        self.close(span)

    def _wrap(self, fn, name, size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.region(name, size(*args, **kwargs) if size else 1):
                return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        functions = list(_functions(MODULES))  # before wrappers shadow them
        replaced = {}
        for owner, attr, name, size in ENTRY_POINTS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, size)
            replaced[id(original)] = wrapper
            self._set(owner, attr, wrapper)
        # copies of the same function object held by other modules
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and callable(value):
                    self._set(module, attr, replaced[id(value)])
        # defaults bound at definition time
        for fn in functions:
            if fn.__defaults__ and any(id(d) in replaced for d in fn.__defaults__):
                self._undo.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(
                    replaced.get(id(d), d) if callable(d) else d for d in fn.__defaults__
                )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts (exact) and self times (seconds) of the spans."""
        calls = Counter()
        sizes = Counter()
        self_s = defaultdict(float)
        durations = defaultdict(list)
        z2_children = Counter()
        renorm_evals = 0
        for span in self.spans:
            calls[span.name] += 1
            sizes[span.name] += span.size
            self_s[span.name] += span.self_s
            durations[span.name].append(span.duration)
            if span.name == "variation.z2_functional" and span.parent is not None:
                z2_children[id(span.parent)] += 1
            if span.name == "collar.curvature_in_frame" and _under_renorm(span):
                renorm_evals += 1

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["dfalg.batch_invariants.tensors"] = sizes["dfalg.batch_invariants"]
        out["collar.curvature_in_frame.points"] = sizes["collar.curvature_in_frame"]
        out["collar.curvature_in_frame.median_ms"] = 1e3 * _median(
            durations["collar.curvature_in_frame"]
        )
        out["variation.z2_functional.median_s"] = _median(
            durations["variation.z2_functional"]
        )
        out["renorm.curvature_evals"] = renorm_evals
        # gradient_flow_step evaluates the functional once at theta, twice per
        # parameter for the central-difference gradient, then once per
        # line-search candidate; a step that returns accepted its last one.
        candidates = accepted = 0
        for span in self.spans:
            if span.name == "variation.gradient_flow_step":
                candidates += max(0, z2_children[id(span)] - 1 - 2 * span.size)
                accepted += int(span.ok)
        out["variation.line_search.candidates"] = candidates
        out["variation.line_search.accepted"] = accepted
        return out


def _under_renorm(span: Span) -> bool:
    node = span.parent
    while node is not None:
        if node.name.startswith("renorm."):
            return True
        node = node.parent
    return False


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _functions(modules):
    """Functions defined in ``modules``, including methods of their classes."""
    for module in modules:
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield value
            elif inspect.isclass(value):
                yield from (v for v in vars(value).values() if inspect.isfunction(v))
