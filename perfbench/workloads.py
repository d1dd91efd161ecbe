"""The benchmark's three workloads: ``figure8``, ``explore``, ``serve``.

Each workload builds its inputs from the seed in :meth:`setup` and then
runs whole *rounds* of ops until the measured time, in reference-machine
seconds (:func:`reference_scale`), reaches the requested seconds.  An op is *cold* the first time the process sees its
exact request and *warm* when it repeats an earlier one.  Every op's
output is checked against the benchmark's NumPy oracle at that
benchmark's own ``rtol``; checks run outside the timed op.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from tracer import Tracer

#: Seconds a serve client waits for a reply; a request still pending
#: then counts as failed.
REQUEST_TIMEOUT_S = 30.0

SIZES = ("small", "large")


def nproc() -> int:
    return os.cpu_count() or 1


def outputs_match(out, expected, rtol: float) -> bool:
    """The figure8 harness's oracle test, as a verdict."""
    out = np.asarray(out, dtype=float).ravel()
    expected = np.asarray(expected, dtype=float).ravel()
    return out.shape == expected.shape and bool(
        np.allclose(out, expected, rtol=rtol, atol=1e-7)
    )


def geomean(values) -> float:
    """Geometric mean; NaN when there is nothing to average (every op
    of its kind failed)."""
    values = list(values)
    if not values:
        return math.nan
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def generated_code_quality(runs) -> Dict[str, float]:
    """``gen_rel_perf`` and ``winner_runtime_geo`` of generated kernels.

    ``runs`` holds ``(reference Counters, generated Counters, global
    size, local size)`` per problem; the ratio is taken under every
    device profile, the runtime under the nvidia one.
    """
    from repro.opencl.cost import DEVICES, estimate_cycles, estimate_runtime

    rel, runtimes = [], []
    for ref, gen, global_size, local_size in runs:
        for profile in DEVICES.values():
            rel.append(
                estimate_cycles(ref, profile) / estimate_cycles(gen, profile)
            )
        runtimes.append(
            estimate_runtime(gen, DEVICES["nvidia"], global_size, local_size)
        )
    return {
        "gen_rel_perf": geomean(rel),
        "winner_runtime_geo": geomean(runtimes),
    }


def _calibration_loop() -> int:
    """A fixed piece of pure-Python work: dictionary and integer
    operations, as the interpreter-bound program does."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(3000):
        key = (i * 7) & 127
        table[key] = table.get(key, 0) + (i ^ acc) % 11
        acc = (acc + table[key]) & 0xFFFF
    return acc


#: One pass of :func:`_calibration_loop` on the reference machine (s).
REFERENCE_LOOP_S = 1e-3


def speed_sample() -> float:
    """Seconds one pass of the calibration loop takes right now (median
    of three passes)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def reference_scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two speed samples into
    reference-machine seconds.

    The machine's speed drifts by tens of percent within a run (shared
    hosts), in phases that last seconds, so every timed interval is
    scaled by the speed measured just before and just after it.
    """
    return 2 * REFERENCE_LOOP_S / (before + after)


@dataclass
class OpRecord:
    start: float
    end: float
    warm: bool
    ok: bool = False
    error: str = ""
    #: Reference-machine seconds per measured second (see
    #: :func:`reference_scale`).
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """Latency in reference-machine seconds."""
        return (self.end - self.start) * self.scale


@dataclass
class Layers:
    """Program-side counters read through public stats objects."""

    served: Dict[str, int] = field(default_factory=dict)
    ledger: Dict[str, int] = field(default_factory=dict)
    pipeline_compiles: int = 0
    cache: Dict[str, int] = field(default_factory=dict)
    explore: Dict[str, int] = field(default_factory=dict)
    service: Dict[str, int] = field(default_factory=dict)
    queue_wait_p50_s: float = 0.0
    warm_requests: int = 0

    def add(self, target: Dict[str, int], source: Dict[str, Any]) -> None:
        for key, value in source.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                target[key] = target.get(key, 0) + value


def _program_counters() -> tuple:
    """(served launches per backend, ledger declines per kind, pipeline
    compiles) from the program's public counters."""
    from repro import obs
    from repro.backend import ledger
    from repro.opencl import simt_compile

    counters = obs.snapshot()["counters"]
    served = {
        name[len("launch.served."):]: value
        for name, value in counters.items()
        if name.startswith("launch.served.")
    }
    kinds: Dict[str, int] = {}
    for (_engine, _backend, kind), n in ledger.counts().items():
        kinds[kind] = kinds.get(kind, 0) + n
    return served, kinds, simt_compile.compile_count()


class Workload:
    """Shared measuring loop of the single-client workloads."""

    name = ""
    #: Rounds every run measures, so that it has warm and cold ops.
    min_rounds = 1

    def __init__(self, seed: int, scratch: str, trace: bool):
        self.seed = seed
        self.scratch = scratch
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.layers = Layers()
        self.tracer: Optional[Tracer] = None
        self.ops: List[OpRecord] = []
        #: Measured time in reference-machine seconds.
        self.busy_s = 0.0
        self.info: Dict[str, Any] = {}

    # -- hooks -----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self):
        """Yields each round as a list of ``(item, warm)``."""
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def exact(self) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- measuring ---------------------------------------------------------
    def _counters_before(self):
        return _program_counters() if self.trace else None

    def _counters_after(self, before) -> None:
        if before is None:
            return
        after = _program_counters()
        for key, value in after[0].items():
            delta = value - before[0].get(key, 0)
            self.layers.served[key] = self.layers.served.get(key, 0) + delta
        for key, value in after[1].items():
            delta = value - before[1].get(key, 0)
            self.layers.ledger[key] = self.layers.ledger.get(key, 0) + delta
        self.layers.pipeline_compiles += after[2] - before[2]

    def measure(self, seconds: float) -> None:
        """Whole rounds until the busy time, scaled to the reference
        machine, reaches ``seconds``."""
        speed = speed_sample()
        for done, round_items in enumerate(self.rounds(), start=1):
            for item, warm in round_items:
                before = self._counters_before()
                if self.tracer is not None:
                    self.tracer.recording = True
                    start = self.tracer.op_begin()
                else:
                    start = time.perf_counter()
                error = ""
                result = None
                try:
                    result = self.execute(item)
                except Exception as exc:  # an op failure, not the run's
                    error = f"{type(exc).__name__}: {exc}"
                if self.tracer is not None:
                    end = self.tracer.op_end(start)
                    self.tracer.recording = False
                else:
                    end = time.perf_counter()
                self._counters_after(before)
                op = OpRecord(start, end, warm, error=error)
                if not error:
                    try:
                        op.ok = self.check(item, result)
                    except Exception as exc:
                        op.error = f"check: {type(exc).__name__}: {exc}"
                    if not op.ok and not op.error:
                        op.error = f"wrong output: {self.describe(item)}"
                after = speed_sample()
                op.scale = reference_scale(speed, after)
                speed = after
                self.ops.append(op)
                self.busy_s += op.seconds
            if self.busy_s >= seconds and done >= self.min_rounds:
                return

    def describe(self, item) -> str:
        return repr(item)


# ---------------------------------------------------------------------------
# figure8
# ---------------------------------------------------------------------------

VARIANTS = ("reference", "none", "barrier_cf", "all")


class Figure8(Workload):
    """One op = one Figure 8 bar input: benchmark x size x variant.

    A round is the full sweep (all 12 benchmarks, both sizes, the
    reference and the generated code at three levels; cold) in a seeded
    order, followed by exact repeats of every small-size bar (warm).
    Engine ``auto``, no tuning cache.
    """

    name = "figure8"

    def __init__(self, seed, scratch, trace, benchmarks=None):
        super().__init__(seed, scratch, trace)
        self.benchmarks = benchmarks

    def setup(self) -> None:
        from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
        from repro.compiler.options import OPTIMIZATION_LEVELS

        self.levels = OPTIMIZATION_LEVELS
        self.cases = {}
        for name in self.benchmarks or ALL_BENCHMARKS:
            bench = get_benchmark(name)
            for size in SIZES:
                input_seed = int(self.rng.integers(2**31))
                inputs, size_env = bench.inputs_for(size, input_seed)
                expected = bench.oracle(inputs, size_env)
                self.cases[(name, size)] = (bench, inputs, size_env, expected)
        self.counters: Dict[tuple, Any] = {}

    def rounds(self):
        items = [
            (name, size, variant)
            for (name, size) in self.cases
            for variant in VARIANTS
        ]
        sweep = [items[i] for i in self.rng.permutation(len(items))]
        small = [it for it in sweep if it[1] == "small"]
        repeat = [small[i] for i in self.rng.permutation(len(small))]
        yield [(it, False) for it in sweep] + [(it, True) for it in repeat]
        while True:
            yield [(it, True) for it in sweep]

    def execute(self, item):
        name, size, variant = item
        bench, inputs, size_env, _ = self.cases[(name, size)]
        if variant == "reference":
            return bench.run_reference(inputs, size_env, engine="auto")
        return bench.run_generated(
            inputs, size_env, options_factory=self.levels[variant],
            engine="auto",
        )

    def check(self, item, result) -> bool:
        name, size, variant = item
        bench, _, _, expected = self.cases[(name, size)]
        out, counters = result
        self.counters.setdefault(item, counters)
        return outputs_match(out, expected, bench.rtol)

    def describe(self, item) -> str:
        return "/".join(item)

    def exact(self) -> Dict[str, float]:
        runs = []
        for (name, size), (bench, _, size_env, _) in self.cases.items():
            ref = self.counters.get((name, size, "reference"))
            gen = self.counters.get((name, size, "all"))
            if ref is not None and gen is not None:
                stage = bench.stages[0]
                runs.append((ref, gen, stage.global_size(size_env),
                             stage.local_size))
        return generated_code_quality(runs)


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

EXPLORE_PROBLEMS = ("nn", "gemv", "mm")


class Explore(Workload):
    """One op = one ``explore_program`` call (depth 3, ``max_eval`` 12)
    on a fresh, empty ``TuningCache`` directory.

    The first round explores every problem (nn, gemv, mm) at both sizes
    once, in a seeded order, on seeded inputs (cold); later rounds
    repeat those exact requests in new seeded orders (warm: only
    in-process state is warm, the cache starts empty every op).
    """

    name = "explore"
    #: A cold round and two warm ones: the run's mix of explore ops must
    #: not depend on how fast the machine is today.
    min_rounds = 3

    def __init__(self, seed, scratch, trace, problems=None, sizes=SIZES):
        super().__init__(seed, scratch, trace)
        self.problems = problems or EXPLORE_PROBLEMS
        self.sizes = sizes

    def setup(self) -> None:
        from repro.benchsuite.common import get_benchmark
        from repro.opencl.cost import DEVICES, estimate_cycles
        from repro.rewrite.explore import ExploreConfig

        self.config = ExploreConfig(
            depth=3, max_eval=12,
            workers=min(nproc(), ExploreConfig().workers),
        )
        self.info["explore_workers"] = self.config.workers
        self.cases = {}
        for name in self.problems:
            bench = get_benchmark(name)
            for size in self.sizes:
                input_seed = int(self.rng.integers(2**31))
                inputs, size_env = bench.inputs_for(size, input_seed)
                expected = bench.oracle(inputs, size_env)
                _, ref_counters = bench.run_reference(inputs, size_env)
                ref_cycles = estimate_cycles(ref_counters, DEVICES["nvidia"])
                self.cases[(name, size)] = (
                    bench, bench.high_level(size_env), inputs, size_env,
                    expected, ref_cycles,
                )
        self.winners: Dict[tuple, Any] = {}
        self._ops_started = 0

    def rounds(self):
        keys = list(self.cases)
        warm = False
        while True:
            order = self.rng.permutation(len(keys))
            yield [(keys[i], warm) for i in order]
            warm = True

    def execute(self, item):
        from repro.cache import TuningCache
        from repro.rewrite.explore import explore_program

        bench, high_level, inputs, size_env, _, _ = self.cases[item]
        self._ops_started += 1
        cache = TuningCache(
            os.path.join(self.scratch, f"explore-{self._ops_started}")
        )
        try:
            return explore_program(
                high_level, inputs, size_env,
                config=replace(self.config, workload=item[0]), cache=cache,
            )
        finally:
            self.layers.add(self.layers.cache, cache.stats.as_dict())

    def check(self, item, result) -> bool:
        """Re-run the winner outside the op and compare to the oracle."""
        from repro.compiler.codegen import compile_kernel
        from repro.compiler.kernel import execute_kernel
        from repro.compiler.options import CompilerOptions
        from repro.rewrite.explore import specialize_sizes

        bench, _, inputs, size_env, expected, _ = self.cases[item]
        self.layers.add(self.layers.explore, vars(result.stats))
        best = result.best()
        kernel = compile_kernel(
            specialize_sizes(best.program, size_env),
            CompilerOptions(local_size=best.local_size),
        )
        run = execute_kernel(
            kernel, {p.name: inputs[p.name] for p in best.program.params},
            size_env, best.global_size, local_size=best.local_size,
        )
        self.winners.setdefault(item, best)
        return outputs_match(run.output, expected, bench.rtol)

    def describe(self, item) -> str:
        return "/".join(item)

    def exact(self) -> Dict[str, float]:
        rel = [
            self.cases[key][5] / best.cycles
            for key, best in self.winners.items()
        ]
        return {
            "gen_rel_perf": geomean(rel),
            "winner_runtime_geo": geomean(
                best.runtime for best in self.winners.values()
            ),
        }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

@dataclass
class Request:
    program: Any  # the hammer Workload (program, options, geometry)
    bench: Any
    inputs: Dict[str, Any]
    expected: np.ndarray
    warm: bool
    key: str


#: The programs of one serve round, in the order sent.  Each client sends
#: a cold request and a warm repeat per entry; even clients send the
#: cold one first and odd clients the warm one, so that with two clients
#: the same program runs on both at once, a cold request beside a warm
#: repeat.  Concurrent requests are then of like cost in every run, and
#: no fast request waits out a slow gemv by chance.  The fast programs
#: appear twice, so that the medians fall among them.
ROUND_PROGRAMS = ("gemv@none", "gemv@all") + (
    "nn@none", "nn@all", "mm-nvidia@none", "mm-nvidia@all",
) * 2


class Serve(Workload):
    """Closed loop: ``nproc`` client threads, each submitting one
    ``TuningService.submit_run`` request and waiting for its reply
    before sending the next.

    Requests run over the hammer's six small programs (nn, gemv,
    mm-nvidia at levels ``none`` and ``all``).  Each client builds its
    own program objects and reuses them, as a real client would.  In
    round ``r`` every client sends, per entry of :data:`ROUND_PROGRAMS`,
    one new seeded input (cold) and, from round 1 on, an exact repeat of
    its own round ``r - 1`` request (warm).  The clients move in lock
    step: each sends its next request once every client has its reply,
    so the same requests are in flight together in every run.  The
    service runs with its default config apart from the worker cap; its
    cache sits in a fresh directory.
    """

    name = "serve"
    min_rounds = 2

    def setup(self) -> None:
        from repro.benchsuite.common import get_benchmark
        from repro.benchsuite.hammer import build_workloads
        from repro.cache import TuningCache
        from repro.service import ServiceConfig, TuningService

        self.clients = nproc()
        self.programs = [
            {w.name: w for w in build_workloads()} for _ in range(self.clients)
        ]
        self.benches = {
            name: get_benchmark(w.spec["benchmark"])
            for name, w in self.programs[0].items()
        }
        self.ref_counters = {}
        for name, w in self.programs[0].items():
            if w.spec["level"] == "all":
                bench = self.benches[name]
                inputs, size_env = bench.inputs_for("small", self.seed)
                self.ref_counters[name] = bench.run_reference(
                    inputs, size_env
                )[1]
        config = ServiceConfig(workers=min(nproc(), ServiceConfig().workers))
        self.info["service_workers"] = config.workers
        self.info["clients"] = self.clients
        self.cache = TuningCache(os.path.join(self.scratch, "serve-cache"))
        self.service = TuningService(cache=self.cache, config=config)
        self.previous: List[Dict[str, List[Request]]] = [
            {} for _ in range(self.clients)
        ]
        self.served_counters: Dict[str, Any] = {}
        self.results: List[tuple] = []

    def _new_request(self, client: int, name: str) -> Request:
        w, bench = self.programs[client][name], self.benches[name]
        inputs, size_env = bench.inputs_for(
            w.spec["size"], int(self.rng.integers(2**31))
        )
        stage_inputs = {
            param.name: inputs[key]
            for param, key in zip(w.program.params, bench.stages[0].param_names)
        }
        return Request(
            w, bench, stage_inputs, bench.oracle(inputs, size_env), False, name
        )

    def _round(self, index: int) -> List[List[Request]]:
        """Per-client request lists of round ``index``."""
        plans = []
        for client in range(self.clients):
            fresh: Dict[str, List[Request]] = {}
            repeats = {
                name: iter(reqs)
                for name, reqs in self.previous[client].items()
            }
            plan = []
            for name in ROUND_PROGRAMS:
                for warm in (False, True) if client % 2 == 0 else (True, False):
                    if not warm:
                        req = self._new_request(client, name)
                        fresh.setdefault(name, []).append(req)
                        plan.append(req)
                    elif index > 0:
                        pick = next(repeats[name])
                        plan.append(
                            Request(pick.program, pick.bench, pick.inputs,
                                    pick.expected, True, name)
                        )
            self.previous[client] = fresh
            plans.append(plan)
        return plans

    def _submit(self, req: Request):
        kwargs = req.program.submit_kwargs()
        kwargs["inputs"] = req.inputs
        response = self.service.submit_run(**kwargs)
        return response.result(timeout=REQUEST_TIMEOUT_S)

    def measure(self, seconds: float) -> None:
        before = self._counters_before()
        index = 0
        lock = threading.Lock()
        if self.tracer is not None:
            self.tracer.recording = True
        while self.busy_s < seconds or index < self.min_rounds:
            plans = self._round(index)
            first = len(self.results)
            #: (machine speed, release time) at each lock step.
            marks: List[tuple] = []

            def close_step() -> None:
                # Runs once every client has its reply: time the step
                # that ended and sample the machine's speed between
                # steps, outside them.
                arrived = time.perf_counter()
                speed = speed_sample()
                if marks:
                    previous, released = marks[-1]
                    self.busy_s += (arrived - released) * reference_scale(
                        previous, speed
                    )
                marks.append((speed, time.perf_counter()))

            step = threading.Barrier(self.clients, action=close_step)

            def client(plan: List[Request]) -> None:
                tracer = self.tracer
                for req in plan:
                    step.wait(timeout=REQUEST_TIMEOUT_S)
                    number = len(marks) - 1
                    start = (
                        tracer.op_begin() if tracer is not None
                        else time.perf_counter()
                    )
                    error, result = "", None
                    try:
                        result = self._submit(req)
                    except Exception as exc:  # overload, timeout, failure
                        error = f"{type(exc).__name__}: {exc}"
                    end = (
                        tracer.op_end(start) if tracer is not None
                        else time.perf_counter()
                    )
                    op = OpRecord(start, end, req.warm, error=error)
                    with lock:
                        self.results.append((req, result, op, number))
                step.wait(timeout=REQUEST_TIMEOUT_S)

            threads = [
                threading.Thread(
                    target=client, args=(plan,), name=f"perfbench-client-{i}"
                )
                for i, plan in enumerate(plans)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=3 * REQUEST_TIMEOUT_S)
            planned = sum(len(plan) for plan in plans)
            if len(self.results) - first != planned:
                # A stuck request broke the lock step (the barrier timed
                # out): the run is void, not a measurement.
                raise RuntimeError("a serve client did not finish its round")
            for _, _, op, number in self.results[first:]:
                op.scale = reference_scale(marks[number][0], marks[number + 1][0])
            index += 1
        if self.tracer is not None:
            self.tracer.recording = False
        self._counters_after(before)
        self.info["rounds"] = index
        self.layers.warm_requests = sum(1 for r in self.results if r[0].warm)
        self.layers.add(self.layers.service, self.service.stats.as_dict())
        self.layers.add(self.layers.cache, self.cache.stats.as_dict())
        from repro import obs

        hist = obs.snapshot()["histograms"].get("service.queue_wait.cold")
        if hist:
            self.layers.queue_wait_p50_s = hist["p50"]
        for req, result, op, _ in self.results:
            if not op.error:
                out, counters = result
                op.ok = outputs_match(out, req.expected, req.bench.rtol)
                if not op.ok:
                    op.error = f"wrong output: {req.key}"
                self.served_counters.setdefault(req.key, counters)
            self.ops.append(op)

    def exact(self) -> Dict[str, float]:
        return generated_code_quality(
            (self.ref_counters[name], self.served_counters[name],
             w.global_size, w.local_size)
            for name, w in self.programs[0].items()
            if name in self.ref_counters and name in self.served_counters
        )

    def close(self) -> None:
        self.service.shutdown()


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "figure8": Figure8,
    "explore": Explore,
    "serve": Serve,
}
