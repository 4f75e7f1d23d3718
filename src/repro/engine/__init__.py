"""Solve-plan engine — declarative task scheduling.

The paper's eq.-(18) decoupling splits the H2 machinery into independent
LTI subsystems whose Krylov chains and per-shift resolvent solves have
no data dependencies.  The fan-out layers express that work as *plans*
— flat lists of independent tasks — and hand them to an executor.

Architecture
------------
* :class:`~repro.engine.plan.SolveTask` — one independent unit of work
  (a callable plus bound arguments and an optional ``tag`` for callers
  that need to regroup results).
* :class:`~repro.engine.plan.SolvePlan` — an ordered list of tasks.
  ``plan.execute()`` runs every task and returns their results **in
  submission order**, wraps task failures in
  :class:`~repro.errors.TaskError`, retries transient failures up to
  ``REPRO_TASK_RETRIES`` times, and polls an optional ``cancel`` hook
  between tasks.
* :class:`~repro.engine.executor.SerialExecutor` — the backend: a plain
  in-order loop.

Which layers emit plans
-----------------------
* ``linalg.ResolventFactory.solve_many`` — per-shift batches (frequency
  grids).
* ``volterra.AssociatedWorkspace`` consumers: the per-subsystem /
  per-expansion-point Krylov chains of
  ``AssociatedRealization.moment_vectors``, ``DecoupledH2Realization``
  (eq.-18 independent subsystems) and
  ``mor.AssociatedTransformMOR.build_basis``.
* ``volterra.VolterraEvaluator.prime_h2`` — the symmetric-pair H2 grid.
* ``analysis.distortion_sweep``, ``volterra.frequency_sweep`` and
  ``systems.StateSpace.frequency_response`` — whole frequency grids.

Why serial only
---------------
Thread and process backends were measured on a 2-core host against
the benchmark's own jobs and gained nothing end to end (0.73–1.00×), so
they were removed.  ``plan.execute(executor)`` accepts any
:class:`~repro.engine.executor.Executor`; a parallel backend returns
through that seam once it records a ≥ 1.3× gain on a shipped workload.
``engine.worker_stats()`` reports ``{"backend": "serial", "workers": 1}``.
"""

from ..errors import (  # noqa: F401  (re-export: engine failures)
    TaskCancelled,
    TaskError,
)
from .executor import (  # noqa: F401
    Executor,
    SerialExecutor,
    set_task_retries,
    task_retries,
    worker_stats,
)
from .plan import SolvePlan, SolveTask, chunk_bounds, parallel_map  # noqa: F401

__all__ = [
    "Executor",
    "SerialExecutor",
    "TaskCancelled",
    "TaskError",
    "set_task_retries",
    "task_retries",
    "worker_stats",
    "SolvePlan",
    "SolveTask",
    "chunk_bounds",
    "parallel_map",
]
