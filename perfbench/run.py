#!/usr/bin/env python3
"""End-to-end benchmark of the repro pipeline: four closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder-sparse-cold --seed 1 \\
        --seconds 20 --trace 0

One client runs jobs back to back for ``--seconds`` seconds of job time
and every job's output is checked after the timed loop.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

The traced run alternates traced and untraced jobs: traced jobs record
spans around the library's layer boundaries (see ``tracing.py``) and
read the solver, store, serving and parametric counters; the untraced
ones give the tracing overhead as a difference of medians.  Spans and
per-job counters are written to ``.perfbench/`` in the repository root.

``setup_s`` is the median of three cold set-ups, each in a process of
its own that has just imported the library: two child processes started
with ``--setup-only`` and the measuring process itself.

Times in the end-to-end metrics are scaled to a fixed host speed (see
``hostspeed.py``); the raw job and set-up times are printed as ``#``
lines.

BLAS is pinned to one thread and the engine to its serial backend
before numpy is imported (only the standard library is imported at
module level).
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Cold set-ups per run, each in its own process; ``setup_s`` is
#: their median.
SETUP_REPEATS = 3


def pin_environment():
    """One BLAS thread, the serial engine, no other ``REPRO_*`` setting,
    and temporary files inside the checkout.  Must run before numpy is
    imported."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.environ["REPRO_BACKEND"] = "serial"
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print it and exit "
                             "(the measuring run starts two of these)")
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    from repro.engine import worker_stats

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "engine": worker_stats().get("backend"),
    }


def run_jobs(workload, args, tracer):
    """The timed closed loop; returns one record per job.

    The host-speed kernel runs between jobs, outside the timed
    intervals; a job's ``scale`` comes from the runs before and after
    it.
    """
    from hostspeed import reference, scale
    from tracing import instrument

    untraced_span = workload.span
    records = []
    elapsed = 0.0
    index = 0
    reference()  # its first call pays for lazy imports
    ref_before = reference()
    while elapsed < args.seconds:
        inp = workload.inputs(index)
        traced = tracer is not None and index % 2 == 0
        workspaces = [] if traced else None
        if traced:
            tracer.job = index
            workload.span = tracer.span
            scope = instrument(tracer, workload.full_states,
                               workspaces.append)
        else:
            workload.span = untraced_span
            scope = contextlib.nullcontext()
        out = error = None
        with scope:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with workload.span("job"):
                    out = workload.run(inp)
            except Exception:  # a failed job is counted, the run goes on
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        elapsed += wall
        ref_after = reference()
        summary = None
        if error is None:
            try:
                summary = workload.summarize(inp, out, workspaces)
            except Exception:
                error = traceback.format_exc()
        records.append({"index": index, "wall": wall, "cpu": cpu,
                        "scale": scale(ref_before, ref_after),
                        "traced": traced, "error": error,
                        "summary": summary})
        ref_before = ref_after
        del out, inp, workspaces
        index += 1
    workload.span = untraced_span
    return records


def check_jobs(workload, records, seed):
    import numpy as np

    for record in records:
        if record["error"] is not None:
            continue
        rng = np.random.default_rng([seed, 1, record["index"]])
        try:
            reason = workload.check(record["index"], record["summary"], rng)
        except Exception:
            reason = traceback.format_exc()
        if reason:
            record["error"] = f"check failed: {reason}"


def end_to_end(records, setup_s, tail_percentile):
    """End-to-end metrics, plus the job count and how many jobs lie
    beyond the workload's fixed tail percentile.  Job times are scaled
    to the reference host speed."""
    import numpy as np

    walls = [r["wall"] * r["scale"] for r in records]
    tail_s = float(np.percentile(walls, tail_percentile))
    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)
    metrics = {
        "jobs_per_s": attempted / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "cpu_s_per_job": sum(r["cpu"] * r["scale"] for r in records)
        / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
    }
    info = {
        "jobs": attempted,
        "tail_percentile": tail_percentile,
        "jobs_beyond_tail": sum(w > tail_s for w in walls),
        "job_walls_s": [round(w, 6) for w in walls],
        "raw_job_walls_s": [round(r["wall"], 6) for r in records],
    }
    return metrics, info


def per_layer(records, tracer, names):
    """Per-layer metrics of the traced jobs.

    ``<span>_s`` is the span's self time per job (mean over traced
    jobs); counters are per-job means; ``serve.handle_<tier>_s`` is the
    median whole-request time of that serving tier.
    """
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    self_times = [tracer.self_times(r["index"]) for r in traced]
    metrics = {}
    for name in names:
        if name.startswith("serve.handle_"):
            span = name[:-len("_s")]
            durations = [s["end"] - s["start"] for s in tracer.spans
                         if s["name"] == span]
            metrics[name] = statistics.median(durations) if durations else 0.0
        elif name == "trace.unaccounted_s":
            metrics[name] = statistics.fmean(
                t.get("job", 0.0) for t in self_times
            )
        elif name == "trace.overhead_s":
            metrics[name] = (
                statistics.median(r["wall"] * r["scale"] for r in traced)
                - statistics.median(r["wall"] * r["scale"]
                                    for r in untraced)
                if traced and untraced else 0.0
            )
        elif name.endswith("_s"):
            metrics[name] = statistics.fmean(
                t.get(name[:-len("_s")], 0.0) for t in self_times
            )
        else:
            metrics[name] = statistics.fmean(
                (r["summary"] or {}).get("counters", {}).get(name, 0)
                for r in traced
            )
    return metrics


def cold_setup(args):
    """``(raw, scaled)`` seconds of one set-up in a fresh process,
    imports included."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main(argv=None):
    start = time.perf_counter()
    args = parse_args(argv)
    # A terminated run still removes its work directory (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from hostspeed import reference, scale
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    def timed_setup():
        """``(raw, scaled)`` seconds of a cold set-up, imports included;
        the host-speed kernel runs after it, so the set-up stays cold."""
        t0 = time.perf_counter()
        workload.setup(args.seed, workdir)
        raw = import_s + time.perf_counter() - t0
        reference()  # its first call pays for lazy imports
        return raw, raw * scale(*(reference() for _ in range(3)))

    if args.setup_only:
        try:
            setup = timed_setup()
        finally:
            workload.close()
        print(json.dumps({"setup_s": setup}))
        return 0

    # Cold set-ups in child processes first, while this one is small.
    setups = [cold_setup(args) for _ in range(SETUP_REPEATS - 1)]
    try:
        setups.append(timed_setup())
        gc.collect()
        tracer = Tracer() if args.trace else None
        records = run_jobs(workload, args, tracer)
        check_jobs(workload, records, args.seed)
    finally:
        workload.close()

    for record in records:
        if record["error"] is not None:
            print(f"job {record['index']} failed:\n{record['error']}",
                  file=sys.stderr)
    if args.trace:
        missing = sorted(set(workload.spans)
                         - {s["name"] for s in tracer.spans})
        if missing:
            print(f"perfbench: the traced jobs recorded no {missing} span",
                  file=sys.stderr)
            return 1
    e2e, info = end_to_end(records,
                           statistics.median(s for _, s in setups),
                           workload.tail_percentile)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = (per_layer(records, tracer, [m["name"] for m in wanted])
              if args.trace else e2e)
    env = environment()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                raw_setups_s=[raw for raw, _ in setups], env=env)
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            **info,
            "records": [
                {"index": r["index"], "traced": r["traced"],
                 "wall_s": r["wall"], "cpu_s": r["cpu"],
                 "scale": r["scale"],
                 "failed": r["error"] is not None,
                 "counters": (r["summary"] or {}).get("counters")}
                for r in records
            ],
            "spans": tracer.spans,
        }))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for metric in wanted:
        print(f"{metric['name']:32s} {values[metric['name']]:14.6g} "
              f"{metric['unit']}")
    failed = sum(r["error"] is not None for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
