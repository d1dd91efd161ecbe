"""Integration tests over the benchmark suite.

Every benchmark's differential-testing contract: NumPy oracle ≡
hand-written reference kernel on the simulator ≡ generated kernel on the
simulator (at every optimization level for a representative subset).
"""

import numpy as np
import pytest

from repro.compiler.options import OPTIMIZATION_LEVELS
from repro.benchsuite.common import (
    ALL_BENCHMARKS,
    all_benchmark_names,
    get_benchmark,
)
from repro.benchsuite.figure6 import check_figure6, figure6_trace
from repro.benchsuite.figure8 import measure_benchmark
from repro.benchsuite.table1 import run_table1
from repro.opencl import VectorizationError


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_benchmark_correctness_small(name):
    get_benchmark(name).verify("small")


@pytest.mark.parametrize("name", ["nn", "gemv", "convolution", "mm-amd"])
def test_benchmark_correct_at_every_level(name):
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    expected = bench.oracle(inputs, size_env)
    for level_name, factory in OPTIMIZATION_LEVELS.items():
        out, _ = bench.run_generated(inputs, size_env, options_factory=factory)
        np.testing.assert_allclose(
            out, expected, rtol=bench.rtol, atol=1e-7,
            err_msg=f"{name} wrong at level {level_name}",
        )


#: Generated kernels the strict ``compiled`` tier declines today: codegen
#: hoists uninitialised ``float`` accumulators, every engine binds them
#: as integer zero, and the first masked float store then mixes integer
#: and float lanes (the float-accumulator cliff in ROADMAP.md).  The fix
#: must flip these to passing.
_SCALAR_SERVED = pytest.mark.xfail(
    strict=True, raises=VectorizationError,
    reason="float-accumulator cliff: masked assignment mixes integer and "
           "float lanes",
)


@pytest.mark.parametrize("level", list(OPTIMIZATION_LEVELS))
@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_SCALAR_SERVED)
        if name in ("gemv", "atax", "gesummv") else name
        for name in all_benchmark_names()
    ],
)
def test_generated_kernel_served_by_compiled_tier(name, level):
    """Every generated kernel runs on the strict lane-batched tier —
    correct but silently scalar-served counts as a failure."""
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    bench.run_generated(
        inputs, size_env, options_factory=OPTIMIZATION_LEVELS[level],
        engine="compiled",
    )


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_high_level_program_semantics(name):
    """The portable high-level IL evaluates to the oracle's answer on the
    reference interpreter (for interpreter-friendly sizes)."""
    from repro.ir.interp import apply_fun
    from repro.ir.nodes import Param
    from repro.types import ArrayType, VectorType

    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    if name in ("nbody-nvidia", "nbody-amd", "mriq", "md"):
        pytest.skip("vector-heavy interpreters covered by dedicated tests")
    program = bench.high_level(size_env)

    stage = bench.stages[0]
    args = []
    for p, pname in zip(program.params, stage.param_names):
        value = inputs[pname]
        if isinstance(value, np.ndarray):
            t = p.type
            if isinstance(t, ArrayType) and isinstance(t.elem, ArrayType):
                rows = int(
                    np.prod(value.shape[:-1])
                    if value.ndim > 1
                    else len(value) // int(t.elem.length.evaluate(size_env))
                )
                args.append(np.asarray(value).reshape(rows, -1).tolist())
            else:
                args.append(np.asarray(value).ravel().tolist())
        else:
            args.append(value)
    result = apply_fun(program, args, size_env)
    flat = np.asarray(result, dtype=float).ravel()
    expected = bench.oracle(inputs, size_env)
    np.testing.assert_allclose(flat, expected, rtol=1e-6, atol=1e-7)


def test_table1_has_all_rows():
    rows = run_table1()
    assert [r.benchmark for r in rows] == ALL_BENCHMARKS
    for row in rows:
        assert row.loc_opencl > 0
        assert row.loc_high_level > 0
        assert row.loc_low_level >= row.loc_high_level


def test_figure6_lands_on_paper_line3():
    assert check_figure6()
    trace = figure6_trace()
    # The raw expression is dramatically longer than the simplified one.
    assert len(str(trace.raw)) > 4 * len(str(trace.simplified))


def test_figure8_cells_structure():
    cells = measure_benchmark(get_benchmark("nn"), "small")
    assert len(cells) == 6  # 3 levels x 2 devices
    assert {c.level for c in cells} == {"none", "barrier_cf", "all"}
    assert {c.device for c in cells} == {"nvidia", "amd"}
    for cell in cells:
        assert cell.relative_performance > 0


def test_optimizations_never_hurt_for_gemv():
    cells = measure_benchmark(get_benchmark("gemv"), "small")
    by_level = {}
    for c in cells:
        by_level.setdefault(c.level, []).append(c.relative_performance)
    assert np.mean(by_level["all"]) >= np.mean(by_level["barrier_cf"])
    assert np.mean(by_level["barrier_cf"]) >= np.mean(by_level["none"]) - 1e-9
