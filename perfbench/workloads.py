"""The four benchmark workloads.

Each workload is one closed-loop, single-client job stream.  A job's
inputs come only from ``(seed, job index)``; the timed part of a job is
:meth:`Workload.run`, everything else (input generation, reading
counters, checking outputs) runs outside the timed interval.

Every ladder stays in the well-separated Π regime (``r = 10``,
``g_leak = 1``, a few quadratic cells): the ``r = 1, g_leak = 0.1``
ladder grinds the low-rank Π to full rank, which a fail-fast Π would
turn into refusals, i.e. benchmark failures.
"""

import contextlib
import shutil

import numpy as np

from repro.analysis.distortion import distortion_sweep
from repro.analysis.metrics import max_relative_error
from repro.circuits.examples import (
    nonlinear_transmission_line,
    quadratic_rc_ladder_netlist,
)
from repro.params import Parameter, materialize
from repro.pipeline import run_parametric, run_pipeline
from repro.serve.contracts import ReduceRequest, SweepRequest
from repro.serve.service import ReproService
from repro.simulation.sources import step_source
from repro.simulation.transient import simulate
from repro.store import ModelStore

#: The well-separated sparse ladder (see quadratic_rc_ladder_netlist).
LADDER = {"r": 10.0, "g_leak": 1.0, "quad_nodes": 8}
G_QUAD = 0.5
LADDER_REDUCE = {"orders": (3, 2, 1), "expansion_points": (0.0,),
                 "strategy": "decoupled"}
SWEEP = {"start": 0.05, "stop": 0.5, "points": 13, "amplitude": 0.1}

#: Worst relative HD2/HD3 deviation of a ladder ROM from its full model
#: at the checked frequencies.  Cold ladder ROMs match to ~1e-13;
#: interpolated family members are accepted at a 1e-4 probe deviation.
LADDER_HD_TOL = 1e-3
#: The same for the NTL ROM, whose (6,3,2) moments at s0 = 0.5 track
#: the full HD3 to ~10% (HD2 to ~4%) in its 0.02-0.08 sweep band.
NTL_HD_TOL = 0.2
#: Peak-normalised worst deviation of the NTL ROM step response
#: (measured ~7e-4).
TRANSIENT_TOL = 1e-2
#: Frequencies (out of 13) and family members checked per job.
CHECK_POINTS = 3
CHECK_MEMBERS = 2


def _rng(seed, index):
    # index -1 is the warm-up job; job indices start at 0.  (The
    # harness draws its check subsets from stream 1.)
    return np.random.default_rng([seed, 0, index + 1])


def _worst_dev(rom, full):
    rom = np.asarray(rom, dtype=float)
    full = np.asarray(full, dtype=float)
    return float(np.max(np.abs(rom - full) / np.abs(full)))


def _omegas(sweep):
    return np.linspace(sweep["start"], sweep["stop"], sweep["points"])


def _check_hd(system, sweep, pick, hd2, hd3, tol, what):
    """``None`` when the ROM's HD2/HD3 at the *pick* indices of *sweep*
    match the full *system* within *tol*, else why not."""
    _, hd2_full, hd3_full = distortion_sweep(
        system, _omegas(sweep)[pick], amplitude=sweep["amplitude"]
    )
    dev = max(_worst_dev(hd2[pick], hd2_full), _worst_dev(hd3[pick], hd3_full))
    if not dev <= tol:
        return f"{what}: HD deviation {dev:.3e} > {tol:.0e}"
    return None


def _pick(rng, count, size):
    return np.sort(rng.choice(size, size=min(count, size), replace=False))


def linalg_counters(workspaces):
    """Solver counters summed over the job's associated workspaces,
    from their public stats (read after the job, without side effects:
    lazy solvers that were never built are not touched)."""
    counters = {
        "linalg.lu_factorizations": 0,
        "linalg.lu_symbolic_analyses": 0,
        "linalg.pi_rounds": 0,
        "linalg.pi_rank": 0,
        "linalg.kron_solves": 0,
        "linalg.soft_accepts": 0,
    }
    for ws in workspaces:
        if not ws.is_sparse:
            continue
        lu = ws.resolvent.sparse_lu_stats
        counters["linalg.lu_factorizations"] += lu["real"] + lu["complex"]
        counters["linalg.lu_symbolic_analyses"] += lu["symbolic_analyses"]
        lowrank_version, pi_built = ws.solver_version()
        if lowrank_version is not None:
            stats = ws.lowrank_kron.stats
            counters["linalg.pi_rounds"] += stats["pi_iterations"]
            counters["linalg.kron_solves"] += stats["solves"]
            counters["linalg.soft_accepts"] += stats["soft_accepts"]
        if pi_built:
            counters["linalg.pi_rank"] = max(
                counters["linalg.pi_rank"], int(ws.pi.rank)
            )
    return counters


class Workload:
    """One job stream.  The harness calls, in order: ``setup`` (timed as
    set-up, repeatable after ``close``), then per job ``inputs``,
    ``run`` (timed), ``summarize``; after the timed loop ``check`` on
    every job; finally ``close``."""

    name = ""
    #: ``job_tail_s`` is this percentile of the run's job times, fixed
    #: per workload: the highest whole percentile that still has ten
    #: jobs beyond it in the shortest 20-second run seen (jobs per run
    #: in the comments).  Only ``query-mix`` runs enough jobs for it to
    #: sit above the median; the other three have no real tail metric.
    tail_percentile = None
    #: Spans a traced run must record: a layer boundary that moved or
    #: stopped being called would otherwise read as taking no time.
    spans = ()
    #: State count of the full model: sweeps this large are full-model
    #: references (``analysis.full_sweep``), smaller ones ROM queries.
    full_states = 0

    def __init__(self):
        self.span = lambda name: contextlib.nullcontext({"name": name})

    def setup(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.run(self.inputs(-1))  # the untimed warm-up job

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class LadderSparseCold(Workload):
    """Cold sparse reduce + 13-point ROM sweep into a fresh store."""

    name = "ladder-sparse-cold"
    tail_percentile = 35  # 15-27 jobs
    spans = ("circuits.build", "pipeline.run", "linalg.pi_build",
             "linalg.schur", "mor.reduce", "mor.build_basis", "mor.project",
             "analysis.sweep", "store.save")
    n = 1024
    full_states = n

    def inputs(self, index):
        rng = _rng(self.seed, index)
        g_quad = G_QUAD * (1.0 + rng.uniform(-0.2, 0.2))
        return {
            "g_quad": g_quad,
            "store": self.workdir / f"store-{index}",
        }

    def _system(self, inp):
        net = quadratic_rc_ladder_netlist(self.n, g_quad=inp["g_quad"],
                                          **LADDER)
        return net.compile(sparse=True).to_explicit()

    def run(self, inp):
        with self.span("circuits.build"):
            system = self._system(inp)
        with self.span("pipeline.run"):
            return run_pipeline(system, reduce=LADDER_REDUCE, sweep=SWEEP,
                                store=ModelStore(inp["store"]))

    def summarize(self, inp, out, workspaces):
        summary = {"hd2": out.sweep["hd2"], "hd3": out.sweep["hd3"]}
        if workspaces is not None:
            store = ModelStore(inp["store"])
            summary["counters"] = {
                **linalg_counters(workspaces),
                "mor.rom_order": int(out.rom.order),
                "store.bytes_written": sum(
                    store.entry_bytes(key) for key in store.keys()
                ),
            }
        shutil.rmtree(inp["store"], ignore_errors=True)
        return summary

    def check(self, index, summary, rng):
        return _check_hd(
            self._system(self.inputs(index)), SWEEP,
            _pick(rng, CHECK_POINTS, SWEEP["points"]),
            summary["hd2"], summary["hd3"], LADDER_HD_TOL, "ROM sweep",
        )


class NtlPaperCold(Workload):
    """The paper's Fig.-3 lifted line: coupled reduce, ROM step
    transient and 13-point ROM sweep."""

    name = "ntl-paper-cold"
    tail_percentile = 24  # 13-23 jobs
    spans = ("circuits.build", "pipeline.run", "linalg.schur", "mor.reduce",
             "mor.build_basis", "mor.project", "analysis.sweep",
             "simulation.transient")
    full_states = 70  # 36 nodes + 34 lifted diode states
    reduce = {"orders": (6, 3, 2), "expansion_points": (0.5,),
              "strategy": "coupled"}
    sweep = {"start": 0.02, "stop": 0.08, "points": 13, "amplitude": 0.1}
    step = 0.25
    transient = {"source": {"kind": "step", "amplitude": step},
                 "t_end": 30.0, "dt": 0.05}

    def inputs(self, index):
        rng = _rng(self.seed, index)
        return {"kappa": 40.0 * (1.0 + rng.uniform(-0.1, 0.1))}

    @staticmethod
    def _system(inp):
        return nonlinear_transmission_line(
            36, source="current", diode_at_input=False, diode_start=2,
            kappa=inp["kappa"],
        ).quadratic_linearize()

    def run(self, inp):
        with self.span("circuits.build"):
            system = self._system(inp)
        with self.span("pipeline.run"):
            return run_pipeline(system, reduce=self.reduce, sweep=self.sweep,
                                transient=self.transient)

    def summarize(self, inp, out, workspaces):
        summary = {
            "hd2": out.sweep["hd2"],
            "hd3": out.sweep["hd3"],
            "output": out.transient["output"],
        }
        if workspaces is not None:
            summary["counters"] = {
                **linalg_counters(workspaces),
                "mor.rom_order": int(out.rom.order),
                "simulation.steps": int(out.transient["steps"]),
                "simulation.newton_iterations": int(
                    out.transient["newton_iterations"]
                ),
            }
        return summary

    def check(self, index, summary, rng):
        system = self._system(self.inputs(index))
        error = _check_hd(
            system, self.sweep, _pick(rng, CHECK_POINTS, self.sweep["points"]),
            summary["hd2"], summary["hd3"], NTL_HD_TOL, "ROM sweep",
        )
        if error:
            return error
        full = simulate(system, step_source(self.step),
                        self.transient["t_end"], self.transient["dt"])
        dev = max_relative_error(full.output(0), summary["output"])
        if not dev <= TRANSIENT_TOL:
            return f"ROM transient deviation {dev:.3e} > {TRANSIENT_TOL:.0e}"
        return None


class McFamily(Workload):
    """One ROM family per job: 3x3 corner grid plus 4 Monte-Carlo draws
    over the series resistors and the quadratic cells."""

    name = "mc-family"
    # 10-20 jobs: the one 10-job run supports no percentile; p9 has
    # ten jobs beyond it from 11 jobs up.
    tail_percentile = 9
    spans = ("params.run", "circuits.build", "linalg.pi_build",
             "linalg.schur", "mor.reduce", "mor.build_basis", "mor.project")
    n = 256
    full_states = n
    mc = {"grid_points": 3, "draws": 4}

    def inputs(self, index):
        net = quadratic_rc_ladder_netlist(self.n, g_quad=G_QUAD, **LADDER)
        # Series resistors only: binding the leak resistors as well puts
        # the family in the grinding Π regime.
        r_sites = [k for k, dev in enumerate(net.devices)
                   if hasattr(dev, "resistance") and dev.node_neg != 0]
        g_sites = [k for k, dev in enumerate(net.devices)
                   if getattr(dev, "g2", 0.0) != 0.0]
        r0 = LADDER["r"]
        net.with_params([
            Parameter("r_series", "resistance", r_sites, nominal=r0,
                      low=0.9 * r0, high=1.15 * r0, sigma=0.03),
            Parameter("g_quad", "g2", g_sites, nominal=G_QUAD,
                      low=0.8 * G_QUAD, high=1.2 * G_QUAD, sigma=0.05),
        ])
        mc_seed = int(_rng(self.seed, index).integers(2**31))
        return {"netlist": net, "mc_seed": mc_seed}

    def run(self, inp):
        with self.span("params.run"):
            return run_parametric(
                inp["netlist"], reduce=LADDER_REDUCE, sweep=SWEEP,
                mc={**self.mc, "seed": inp["mc_seed"]}, sparse=True,
            )

    def summarize(self, inp, out, workspaces):
        members = [
            {key: m[key] for key in ("values", "hd2", "hd3")}
            for m in out.corners + out.draws
        ]
        summary = {"members": members}
        if workspaces is not None:
            tiers = out.tiers
            summary["counters"] = {
                **linalg_counters(workspaces),
                "mor.rom_order": int(out.corners[0]["rom_order"]),
                "params.tier_cold": tiers["cold"],
                "params.tier_warm": tiers["warm"],
                "params.tier_interp": tiers["interp"],
                "params.interp_rejected": tiers["interp_rejected"],
                "params.reuse_ratio": 1.0 - tiers["cold"] / len(members),
            }
        return summary

    def check(self, index, summary, rng):
        net = self.inputs(index)["netlist"]
        for m in _pick(rng, CHECK_MEMBERS, len(summary["members"])):
            member = summary["members"][m]
            system = materialize(net, member["values"]).compile(
                sparse=True
            ).to_explicit()
            error = _check_hd(
                system, SWEEP, _pick(rng, CHECK_POINTS, SWEEP["points"]),
                member["hd2"], member["hd3"], LADDER_HD_TOL, f"member {m}",
            )
            if error:
                return error
        return None


class QueryMix(Workload):
    """Sessions of Zipf-distributed sweep requests against a prefilled
    store.  Every session has the same composition (grid sizes and
    full-model comparisons), so session times are comparable."""

    name = "query-mix"
    tail_percentile = 72  # 34-59 jobs
    spans = ("serve.handle_hot", "serve.handle_disk", "store.load",
             "analysis.sweep", "analysis.full_sweep")
    n = 256
    full_states = n
    specs = 12  # more than the service's 8 hot slots
    zipf = 1.1
    #: Grid points of the requests of one session; the last of every
    #: four also sweeps the full model (``compare_full``).
    session_points = (13, 25, 50, 25, 13, 25, 50, 25)
    #: Share of requests re-run through a direct ``run_pipeline`` and
    #: required to match bit for bit.
    replay_share = 1 / 16
    sweep_keys = ("omegas", "hd2", "hd3", "hd2_full", "hd3_full")

    def _spec(self, k):
        g_quad = G_QUAD * (1.0 + 0.04 * (k - self.specs / 2) / self.specs)
        return {
            "generator": "quadratic_rc_ladder_netlist",
            # Four quadratic cells keep the prefill reductions short.
            "args": {"n_nodes": self.n, "g_quad": g_quad,
                     **LADDER, "quad_nodes": 4},
            "compile": {"sparse": True},
        }

    def setup(self, seed, workdir):
        self.store = workdir / "store"
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        weights = 1.0 / np.arange(1, self.specs + 1) ** self.zipf
        self.popularity = weights / weights.sum()
        prefill = ReproService(store=self.store)
        for k in range(self.specs):
            prefill.handle(ReduceRequest(self._spec(k),
                                         reduce=LADDER_REDUCE))
        # Warm-up on the prefill service, so the measured one starts
        # with empty hot and spec caches.
        for request in self.inputs(-1):
            prefill.handle(self._request(request))
        self.service = ReproService(store=self.store)

    def inputs(self, index):
        rng = _rng(self.seed, index)
        return [
            {
                "spec": int(rng.choice(self.specs, p=self.popularity)),
                "sweep": {
                    "start": rng.uniform(0.02, 0.1),
                    "stop": rng.uniform(0.4, 0.8),
                    "points": points,
                    "amplitude": SWEEP["amplitude"],
                    "compare_full": slot % 4 == 3,
                },
                "replay": bool(rng.random() < self.replay_share),
            }
            for slot, points in enumerate(self.session_points)
        ]

    def _request(self, request):
        return SweepRequest(self._spec(request["spec"]),
                            reduce=LADDER_REDUCE, sweep=request["sweep"])

    def run(self, inp):
        outcomes = []
        for request in inp:
            with self.span("serve.handle") as span:
                misses = self.service.spec_misses
                outcome = self.service.handle(self._request(request))
                span["name"] = f"serve.handle_{outcome.served_from}"
            outcome.spec_missed = self.service.spec_misses - misses
            outcomes.append(outcome)
        return outcomes

    def summarize(self, inp, out, workspaces):
        summary = {"sweeps": [
            {key: o.result.sweep[key] for key in self.sweep_keys
             if key in o.result.sweep}
            for o in out
        ]}
        if workspaces is not None:
            store = ModelStore(self.store)
            tiers = [o.served_from for o in out]
            summary["counters"] = {
                **linalg_counters(workspaces),
                "mor.rom_order": int(out[0].result.rom.order),
                "serve.hot_hits": tiers.count("hot"),
                "serve.disk_hits": tiers.count("disk"),
                "serve.spec_misses": sum(o.spec_missed for o in out),
                "store.bytes_read": sum(
                    store.entry_bytes(o.artifact_key)
                    for o in out if o.served_from == "disk"
                ),
            }
        return summary

    def check(self, index, summary, rng):
        for request, served in zip(self.inputs(index), summary["sweeps"]):
            error = self._check_request(request, served)
            if error:
                return error
        return None

    def _check_request(self, request, served):
        if not np.array_equal(served["omegas"], _omegas(request["sweep"])):
            return "served sweep is not on the requested grid"
        if "hd2_full" in served:
            for key in ("hd2", "hd3"):
                dev = _worst_dev(served[key], served[key + "_full"])
                if not dev <= LADDER_HD_TOL:
                    return (f"served {key} deviation {dev:.3e} > "
                            f"{LADDER_HD_TOL:.0e}")
        elif not np.all(np.isfinite(served["hd2"])):
            return "served sweep is not finite"
        if not request["replay"]:
            return None
        direct = run_pipeline(self._spec(request["spec"]),
                              reduce=LADDER_REDUCE, sweep=request["sweep"],
                              store=self.store).sweep
        for key, value in served.items():
            if not np.array_equal(value, direct[key]):
                return f"served {key} differs from a direct run_pipeline"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (LadderSparseCold, NtlPaperCold, McFamily, QueryMix)
}
