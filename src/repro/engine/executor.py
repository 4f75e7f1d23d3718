"""Executor backends for :class:`~repro.engine.plan.SolvePlan`.

The contract is one tiny method — ``run(callables) -> results`` in
submission order.  :class:`SerialExecutor`, a plain in-order loop, is
the only backend shipped: the parallel backends measured no gain on
the 2-core hosts the benchmark runs on, so they were removed.  A custom
:class:`Executor` passed to :meth:`~repro.engine.plan.SolvePlan.execute`
is the seam a measured backend can come back through.
"""

import os
import threading

from ..errors import TaskCancelled, ValidationError

__all__ = [
    "Executor",
    "SerialExecutor",
    "set_task_retries",
    "task_retries",
    "worker_stats",
]


def _check_cancel(cancel, done, total):
    """Raise :class:`TaskCancelled` when *cancel* reports True."""
    if cancel is not None and cancel():
        raise TaskCancelled(
            f"plan cancelled after {done} of {total} tasks"
        )


class Executor:
    """Backend contract: run zero-argument callables, keep their order.

    *cancel*, when given, is a zero-argument callable polled between
    tasks; once it reports True the executor raises
    :class:`~repro.errors.TaskCancelled` instead of starting further
    tasks.  Cancellation is cooperative and best-effort — tasks already
    running are never interrupted mid-flight.
    """

    def run(self, callables, cancel=None):
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-order, in-thread execution (the deterministic default)."""

    def run(self, callables, cancel=None):
        if cancel is None:
            return [fn() for fn in callables]
        callables = list(callables)
        results = []
        for fn in callables:
            _check_cancel(cancel, len(results), len(callables))
            results.append(fn())
        return results


def worker_stats():
    """The active backend, ``{"backend": "serial", "workers": 1}``."""
    return {"backend": "serial", "workers": 1}


# ---------------------------------------------------------------------------
# transient-failure retry policy
# ---------------------------------------------------------------------------

#: Bounded-retry count for transient task failures; resolved lazily from
#: REPRO_TASK_RETRIES (default 0 — retries are strictly opt-in, so the
#: default behaviour is bit-identical to the historical engine).
_task_retries = None
_retries_lock = threading.Lock()


def _resolve_retries(value):
    try:
        count = int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"task retries must be a non-negative integer, got {value!r}"
        ) from exc
    if count < 0:
        raise ValidationError(
            f"task retries must be >= 0, got {count}"
        )
    return count


def task_retries():
    """The configured transient-retry count (``REPRO_TASK_RETRIES``)."""
    global _task_retries
    with _retries_lock:
        if _task_retries is None:
            raw = os.environ.get("REPRO_TASK_RETRIES", "").strip()
            if not raw:
                _task_retries = 0
            else:
                try:
                    _task_retries = _resolve_retries(raw)
                except ValidationError as exc:
                    _task_retries = 0
                    raise ValidationError(
                        f"REPRO_TASK_RETRIES must be a non-negative "
                        f"integer, got {raw!r}"
                    ) from exc
        return _task_retries


def set_task_retries(count):
    """Set the transient-retry count; returns the previous value.

    ``None`` reverts to the lazy ``REPRO_TASK_RETRIES`` default.  Only
    *transient* failures (OS errors, memory pressure, injected faults)
    are ever retried — deterministic numerical or validation failures
    fail fast regardless of this setting.
    """
    global _task_retries
    resolved = None if count is None else _resolve_retries(count)
    with _retries_lock:
        previous = _task_retries
        _task_retries = resolved
    return previous
