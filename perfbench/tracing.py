"""Spans recorded from outside the library, around calls into its layers.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span
and job id.  :func:`instrument` wraps public functions and methods of
the ``repro`` modules so that every call made while it is active —
including calls the pipeline, parametric and serving layers make
internally — records a span.  Nothing is wrapped outside an
``instrument`` block, so untraced jobs run the library untouched.

The wrapped boundaries are fixed in ``_METHOD_SPANS`` and in
:func:`instrument`.  A boundary whose target no longer exists raises
:class:`LookupError`, so the traced run fails instead of reporting a
renamed layer as taking no time.
"""

import contextlib
import importlib
import sys
import time


class Tracer:
    """In-memory span recorder for one benchmark run (single-threaded)."""

    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, job
        self._stack = []
        self.job = None

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block; yields the span dict, whose
        ``name`` may be refined before the block ends."""
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self.job,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, job):
        """``{name: seconds}`` of span self time within one job.

        A span's self time is its duration minus the time its direct
        children cover (children never overlap: the run is serial).
        """
        spans = [s for s in self.spans if s["job"] == job]
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        totals = {}
        for s in spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals


def _wrap(tracer, fn, name_of):
    def wrapper(*args, **kwargs):
        name = name_of(args)
        if name is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _pi_span(args):
    # Π is lazy and cached: only the access that builds it is a span.
    _, pi_built = args[0].solver_version()
    return None if pi_built else "linalg.pi_build"


#: (module, class, attribute, span name or args -> span name)
_METHOD_SPANS = [
    ("repro.circuits.netlist", "Netlist", "compile", "circuits.build"),
    ("repro.systems.exponential", "ExponentialODE", "quadratic_linearize",
     "circuits.build"),
    ("repro.linalg.schur", "SchurForm", "__init__", "linalg.schur"),
    ("repro.volterra.associated", "AssociatedWorkspace", "pi", _pi_span),
    ("repro.mor.assoc", "AssociatedTransformMOR", "reduce", "mor.reduce"),
    ("repro.mor.assoc", "AssociatedTransformMOR", "build_basis",
     "mor.build_basis"),
    ("repro.systems.polynomial", "PolynomialODE", "project", "mor.project"),
    ("repro.store.modelstore", "ModelStore", "store", "store.save"),
    ("repro.store.modelstore", "ModelStore", "load", "store.load"),
]


def _lookup(module_name, owner, attr):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        module = None
    target = getattr(module, owner, None) if owner else module
    if target is None or attr not in vars(target):
        where = ".".join(filter(None, (module_name, owner, attr)))
        raise LookupError(f"perfbench: no {where} to trace")
    return target, vars(target)[attr]


@contextlib.contextmanager
def instrument(tracer, full_states, on_workspace=None):
    """Wrap the layer boundaries for the duration of the block.

    *full_states* is the state count of the workload's full model: a
    distortion sweep over a system that large is ``analysis.full_sweep``
    (the full-model reference), anything smaller is the ROM query
    ``analysis.sweep``.  *on_workspace* is called with every
    ``AssociatedWorkspace`` constructed inside the block, so the caller
    can read its public solver stats after the job.
    """
    def sweep_name(args):
        return ("analysis.full_sweep" if args[0].n_states >= full_states
                else "analysis.sweep")

    # Every boundary is looked up before anything is patched.
    methods = [(_lookup(module_name, owner, attr), attr, name)
               for module_name, owner, attr, name in _METHOD_SPANS]
    functions = [
        (_lookup("repro.analysis.distortion", None, "distortion_sweep")[1],
         sweep_name),
        (_lookup("repro.simulation.transient", None, "simulate")[1],
         lambda args: "simulation.transient"),
    ]
    workspace_cls, init = _lookup("repro.volterra.associated",
                                  "AssociatedWorkspace", "__init__")

    restore = []

    def patch(target, attr, value):
        restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    for (cls, original), attr, name in methods:
        name_of = name if callable(name) else (lambda args, n=name: n)
        if isinstance(original, property):
            patch(cls, attr, property(_wrap(tracer, original.fget, name_of)))
        else:
            patch(cls, attr, _wrap(tracer, original, name_of))

    # Functions are wrapped in every ``repro`` module that imported
    # them by name.
    for original, name_of in functions:
        wrapper = _wrap(tracer, original, name_of)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, wrapper)

    if on_workspace is not None:
        def hooked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            on_workspace(self)

        patch(workspace_cls, "__init__", hooked)
    try:
        yield
    finally:
        for target, attr, original in reversed(restore):
            setattr(target, attr, original)
