"""Host speed, measured by a fixed numpy/scipy kernel.

The benchmark runs on shared hosts whose speed changes by up to 2x for
stretches of seconds to minutes, while another tenant's work shares the
cores.  Within a run, every job and set-up is timed next to
:func:`reference`, a kernel that does not touch the library; its
duration tracks how fast the host runs at that moment.  A time is
reported scaled by ``REFERENCE_S / reference time``: as the seconds it
would take on a host where the kernel takes ``REFERENCE_S``.  A change
to the library moves the scaled time as it moves the raw time, because
the kernel does not change with it.

The kernel mixes the kinds of work the workloads do: many small dense
triangular solves called from Python (the coupled Kronecker path), a
sparse LU factorization and solve (the Π build), and small dense solves.
"""

import time

#: Reference kernel time on a quiet 2-core x86-64 host (Python 3.11,
#: numpy 2.4, scipy 1.17, one BLAS thread): the host speed that scaled
#: times are quoted at.
REFERENCE_S = 0.025

_INPUTS = None


def _inputs():
    global _INPUTS
    if _INPUTS is None:
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n = 2048
        _INPUTS = {
            "tri": np.triu(rng.standard_normal((70, 70))) + 70 * np.eye(70),
            "rhs": rng.standard_normal(70),
            "sparse": sp.diags(
                [-np.ones(n - 1), 4 * np.ones(n), -np.ones(n - 1)],
                [-1, 0, 1], format="csc",
            ),
            "ones": np.ones(n),
            "dense": rng.standard_normal((120, 120)) + 120 * np.eye(120),
        }
    return _INPUTS


def reference():
    """Seconds one run of the fixed kernel takes now."""
    import numpy as np
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    data = _inputs()
    t0 = time.perf_counter()
    for _ in range(400):
        sla.solve_triangular(data["tri"], data["rhs"])
    for _ in range(20):
        spla.splu(data["sparse"]).solve(data["ones"])
    for _ in range(20):
        np.linalg.solve(data["dense"], data["dense"])
    return time.perf_counter() - t0


def scale(*reference_times):
    """Factor that turns a time measured next to these reference times
    into seconds at ``REFERENCE_S``."""
    return REFERENCE_S * len(reference_times) / sum(reference_times)
