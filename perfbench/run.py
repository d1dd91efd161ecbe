"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figure8|explore|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each invocation is one fresh
process running one workload.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
with ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` list.  The line
before it is a JSON record of the run's conditions (seed, ``nproc``,
Python and NumPy versions, worker caps, unset environment, sample
counts and 90th percentiles).  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment that steers the program (engine, faults, tracing,
#: profiling); unset before the program is imported.
STEERING_ENV = (
    "REPRO_SIM_ENGINE", "REPRO_FAULT_PLAN", "REPRO_TRACE", "REPRO_PROFILE",
)

#: Extra fresh processes that set up and exit; ``setup_s`` is the
#: median over them and the measuring process.
SETUP_PROBES = 2


def _clean_environment() -> list:
    removed = [name for name in STEERING_ENV if name in os.environ]
    for name in STEERING_ENV:
        os.environ.pop(name, None)
    return removed


def _percentile_ms(seconds: list, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile, in ms.

    The ops of a run are few and of many kinds, so the plain sample
    percentile jumps between whichever two ops rank next to it; the
    Harrell-Davis estimator weighs every order statistic by a beta
    kernel centred on the percentile and moves smoothly instead.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(seconds, dtype=float)) * 1e3
    n = len(x)
    if n == 0:
        return math.nan
    if not np.all(np.isfinite(x)):
        return float(np.percentile(x, q, method="inverted_cdf"))
    p = q / 100.0
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _latencies(ops) -> list:
    """Op latencies in reference-machine seconds; a failed op misses
    every limit."""
    return [op.seconds if op.ok else math.inf for op in ops]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, setup_s: float) -> dict:
    """End-to-end values; times are in reference-machine seconds (see
    :func:`workloads.reference_scale`)."""
    ops = workload.ops
    warm = [op for op in ops if op.warm]
    cold = [op for op in ops if not op.warm]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / workload.busy_s,
        "op_p50_ms": _percentile_ms(_latencies(ops), 50),
        "warm_p50_ms": _percentile_ms(_latencies(warm), 50),
        "cold_p50_ms": _percentile_ms(_latencies(cold), 50),
        "ok_frac": sum(op.ok for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics.update(workload.exact())
    return metrics


def tails(workload) -> dict:
    """90th percentiles (ms) and sample counts, printed in the
    conditions line.  They are not gated: on serve and explore they
    fall where slow gemv requests meet fast ones, or rest on a handful
    of ops, and move by more than any bound between runs."""
    ops = workload.ops
    classes = {
        "op": ops,
        "warm": [op for op in ops if op.warm],
        "cold": [op for op in ops if not op.warm],
    }
    return {
        name: {"p90_ms": _percentile_ms(_latencies(members), 90),
               "samples": len(members)}
        for name, members in classes.items()
    }


def per_layer(workload, tracer) -> dict:
    from tracer import analyze

    layers = workload.layers
    metrics = analyze(tracer)
    served_total = sum(layers.served.values())
    for tier in ("scalar", "interp", "compiled", "fused"):
        metrics[f"backend.served.{tier}"] = layers.served.get(tier, 0)
    metrics["backend.scalar_served_frac"] = _frac(
        layers.served.get("scalar", 0), served_total
    )
    metrics["backend.ledger_dynamic"] = layers.ledger.get("dynamic", 0)
    metrics["backend.ledger_static"] = layers.ledger.get("static", 0)
    metrics["opencl.pipeline_compiles"] = layers.pipeline_compiles

    ex = layers.explore
    metrics["rewrite.enumerated"] = ex.get("enumerated", 0)
    metrics["rewrite.dedup_hit_frac"] = _frac(
        ex.get("dedup_hits", 0), ex.get("enumerated", 0)
    )
    metrics["rewrite.evaluated_per_finished"] = _frac(
        ex.get("evaluated", 0), ex.get("finished", 0)
    )

    cs = layers.cache
    for kind, prefix in (("kernel", "kernel"), ("run", "run"), ("cycles", "cycle")):
        hits = cs.get(f"{prefix}_hits", 0)
        metrics[f"cache.hit_frac.{kind}"] = _frac(
            hits, hits + cs.get(f"{prefix}_misses", 0)
        )

    sv = layers.service
    metrics["service.queue_wait_p50_ms"] = 1e3 * layers.queue_wait_p50_s
    metrics["service.warm_hit_frac"] = _frac(
        sv.get("warm_hits", 0), layers.warm_requests
    )
    for name in ("coalesced", "rejects", "retries"):
        metrics[f"service.{name}"] = sv.get(name, 0)
    return metrics


def measure_traced(workload, seconds: float) -> dict:
    """Measure with every layer wrapped; returns the per-layer values."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        workload.measure(seconds)
    finally:
        tracer.uninstall()
        workload.close()
    return per_layer(workload, tracer)


def _own_setup_s() -> float:
    """Age of this process when its set-up ended (``/proc`` clock-tick
    resolution)."""
    ticks = os.sysconf("SC_CLK_TCK")
    with open("/proc/self/stat") as f:
        started = int(f.read().rsplit(")", 1)[1].split()[19]) / ticks
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - started


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh process to its first timed op."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", "0", "--setup-probe"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - spawned


def _emit(declared: list, values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    out = {}
    for metric in declared:
        value = float(values[metric["name"]])
        out[metric["name"]] = {
            "value": value if math.isfinite(value) else sys.float_info.max,
            "unit": metric["unit"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    unset = _clean_environment()
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy

    from workloads import WORKLOADS, nproc, reference_scale, speed_sample

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(scratch),
                                            bool(args.trace))
        workload.setup()
        own = _own_setup_s()
        if args.setup_probe:
            print(time.monotonic(), flush=True)
            workload.close()
            return 0
        # Each set-up time is scaled by the machine speed next to it.
        speed = speed_sample()
        setups = [own * reference_scale(speed, speed)]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                seconds = _probe_setup(args)
                after = speed_sample()
                setups.append(seconds * reference_scale(speed, after))
                speed = after
        if args.trace:
            values = measure_traced(workload, args.seconds)
            metrics = _emit(declared["per_layer"], values)
        else:
            workload.measure(args.seconds)
            workload.close()
            values = end_to_end(workload, statistics.median(setups))
            metrics = _emit(declared["end_to_end"], values)
        ops = workload.ops
        failed = [op for op in ops if not op.ok]
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "env_unset": list(STEERING_ENV),
            "env_was_set": unset,
            "tails": tails(workload),
            "setup_samples_s": setups,
            "busy_s": workload.busy_s,
            "errors": sorted({op.error for op in failed})[:5],
            **workload.info,
        }
        print(json.dumps(info))
        print(json.dumps({
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # another run may still be using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
