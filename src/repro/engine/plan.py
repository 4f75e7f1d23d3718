"""Declarative solve plans: independent tasks with explicit inputs.

A :class:`SolvePlan` is the unit of hand-off between the numerical
layers and the executor backends: a layer that used to run an inline
``for`` loop over independent solves instead *adds one task per loop
iteration* (binding every input explicitly — tasks must not depend on
loop variables by closure mutation) and calls :meth:`SolvePlan.execute`.
Results always come back in submission order, so the assembly code after
the plan does not depend on the backend.

Failure semantics: a task exception is re-raised as a dynamically
created subclass of both :class:`~repro.errors.TaskError` and the
original exception type, carrying the task's identity (plan label,
submission index, tag, attempt count).  Handlers that catch the
original type across a plan boundary keep working; handlers that only
care *which* task died get the identity without parsing tracebacks.
Transient failures (OS errors, memory pressure, injected faults) are
retried up to the opt-in :func:`~repro.engine.executor.task_retries`
bound before being raised.
"""

from functools import partial

from ..errors import FaultInjected, TaskError
from ..testing.faults import fault_point
from .executor import SerialExecutor, task_retries

__all__ = ["SolveTask", "SolvePlan", "chunk_bounds", "parallel_map"]

#: Failure families eligible for bounded retry: environmental conditions
#: that can clear between attempts.  Deterministic failures (validation,
#: numerical breakdown, structural errors) always fail fast — retrying
#: them re-runs identical floating-point work to the identical end.
_TRANSIENT = (FaultInjected, OSError, MemoryError)

#: The backend plans run on unless a caller passes its own executor.
_DEFAULT_EXECUTOR = SerialExecutor()

#: original exception type -> TaskError subclass preserving it.
_WRAP_CACHE = {}


def _wrapper_class(base):
    """TaskError subclass that is also a *base* (isinstance-preserving)."""
    cls = _WRAP_CACHE.get(base)
    if cls is None:
        if issubclass(base, TaskError):
            cls = base
        else:
            try:
                cls = type(
                    "Task" + base.__name__,
                    (TaskError, base),
                    {"__doc__": TaskError.__doc__, "__module__": __name__},
                )
            except TypeError:
                # Incompatible C-level layout (rare: e.g. OSError
                # subclasses with fixed slots): fall back to the plain
                # TaskError — the original stays reachable as __cause__.
                cls = TaskError
        _WRAP_CACHE[base] = cls
    return cls


def _task_failure(exc, plan_label, index, tag, attempts):
    """Build the TaskError (subclass) describing a failed task."""
    cls = _wrapper_class(type(exc))
    suffix = f" after {attempts} attempts" if attempts > 1 else ""
    message = (
        f"task {index} of plan {plan_label!r} (tag={tag!r}) "
        f"failed{suffix}: {exc}"
    )
    failure = cls(message)
    failure.plan_label = plan_label
    failure.task_index = index
    failure.task_tag = tag
    failure.attempts = attempts
    return failure


def _make_runner(task, index, plan_label, retries):
    """Zero-arg callable running *task* with fault point, retry and wrap."""

    def run():
        attempts = 0
        while True:
            attempts += 1
            try:
                fault_point("engine.task")
                return task()
            except Exception as exc:
                if attempts <= retries and isinstance(exc, _TRANSIENT):
                    continue
                raise _task_failure(
                    exc, plan_label, index, task.tag, attempts
                ) from exc

    return run


class SolveTask:
    """One independent unit of work: a callable with bound arguments.

    ``tag`` is free-form caller metadata (e.g. ``("H2-chain", s0, col)``)
    used to regroup results after execution; the engine never inspects
    it.
    """

    __slots__ = ("fn", "args", "kwargs", "tag")

    def __init__(self, fn, args=(), kwargs=None, tag=None):
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs) if kwargs else None
        self.tag = tag

    def __call__(self):
        if self.kwargs:
            return self.fn(*self.args, **self.kwargs)
        return self.fn(*self.args)

    def __repr__(self):
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"SolveTask({name}, tag={self.tag!r})"


class SolvePlan:
    """An ordered list of independent :class:`SolveTask` items.

    ``label`` names the emitting site in diagnostics; it carries no
    semantics.
    """

    def __init__(self, label=None):
        self.label = label
        self.tasks = []

    def add(self, fn, *args, tag=None, **kwargs):
        """Append a task calling ``fn(*args, **kwargs)``; returns it."""
        task = SolveTask(fn, args, kwargs, tag=tag)
        self.tasks.append(task)
        return task

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @property
    def tags(self):
        return [task.tag for task in self.tasks]

    def execute(self, executor=None, retries=None, cancel=None):
        """Run every task; results in submission order.

        With no *executor* the tasks run on a :class:`SerialExecutor`.
        Empty and single-task plans short-circuit to inline execution on
        any backend.  *retries* bounds re-execution of transiently
        failing tasks (default: the global
        :func:`~repro.engine.executor.task_retries`, itself 0 unless
        ``REPRO_TASK_RETRIES`` opts in); any failure surfaces as a
        :class:`~repro.errors.TaskError` subclass that preserves the
        original exception type and carries the task identity.

        *cancel* — a zero-argument callable polled between tasks — makes
        the plan cooperatively cancellable: once it reports True the
        backend raises :class:`~repro.errors.TaskCancelled` instead of
        starting further tasks (the serving layer's request-timeout
        hook).  Completed tasks keep their results; cancellation is
        best-effort and never interrupts a task mid-flight.  The keyword
        is only forwarded when set, so minimal executors implementing
        the bare ``run(callables)`` contract keep working.
        """
        if not self.tasks:
            return []
        if retries is None:
            retries = task_retries()
        if len(self.tasks) == 1 and cancel is None:
            return [_make_runner(self.tasks[0], 0, self.label, retries)()]
        if executor is None:
            executor = _DEFAULT_EXECUTOR
        runners = [
            _make_runner(task, index, self.label, retries)
            for index, task in enumerate(self.tasks)
        ]
        if cancel is None:
            return executor.run(runners)
        return executor.run(runners, cancel=cancel)

    def __repr__(self):
        return f"SolvePlan({self.label!r}, {len(self.tasks)} tasks)"


def chunk_bounds(count, parts):
    """Split ``range(count)`` into at most *parts* contiguous chunks.

    Returns ``[(lo, hi), ...]`` covering ``0..count`` with sizes differing
    by at most one — the standard block partition for grid batches whose
    per-item cost is uniform.
    """
    count = int(count)
    parts = max(1, min(int(parts), count))
    base, extra = divmod(count, parts)
    bounds = []
    lo = 0
    for idx in range(parts):
        hi = lo + base + (1 if idx < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def parallel_map(fn, items, executor=None, label=None):
    """``[fn(item) for item in items]`` through the engine."""
    plan = SolvePlan(label=label or "parallel_map")
    for item in items:
        plan.tasks.append(SolveTask(partial(fn, item)))
    return plan.execute(executor)
