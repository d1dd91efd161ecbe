"""``compile_kernel`` never mutates its argument.

Type inference, address-space inference and view binding annotate a
private clone, so the caller's program keeps its canonical form, and
every key derived from it (the compile memo, ``TuningCache.kernel_key``,
the service's run identity) stays stable across compiles.  gemv is the
sharpest probe: type inference gives its inner lambdas fresh size
variables, so before compilation was pure its canonical form changed on
every compile.
"""

import sys
import threading

import numpy as np
import pytest

from repro.benchsuite.gemv import gemv_program
from repro.cache import TuningCache
from repro.compiler.codegen import clear_compile_memo, compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import CompilerOptions
from repro.ir.nodes import Lambda
from repro.ir.structural import canonical
from repro.ir.visit import post_order
from repro.opencl import simt_compile
from repro.opencl.runtime import _parse_cached
from repro.service import ServiceConfig, TuningService

N, K, LOCAL = 4, 16, 16
SIZE_ENV = {"N": N, "K": K}
GLOBAL = (N * LOCAL, 1, 1)
OPTIONS = CompilerOptions.all(local_size=(LOCAL, 1, 1))


def _gemv():
    return gemv_program(low_level=True, k_val=K)


def _inputs():
    rng = np.random.default_rng(3)
    return {
        "A": rng.random((N, K)),
        "x": rng.random(K),
        "y": rng.random(N),
        "alpha": 1.5,
        "beta": 0.75,
    }


def _expected(inputs):
    return inputs["alpha"] * (inputs["A"] @ inputs["x"]) + inputs["beta"] * inputs["y"]


def _run(kernel, inputs):
    return execute_kernel(
        kernel, inputs, SIZE_ENV, GLOBAL, local_size=(LOCAL, 1, 1)
    )


def _annotations(fun: Lambda) -> list:
    """Every annotation compilation could write, node by node."""
    nodes = list(fun.params) + list(post_order(fun.body))
    return [
        (id(e), e.type, e.addr_space, e.mem, e.view)
        for e in nodes
    ]


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
def test_compile_leaves_the_program_unchanged(memo):
    clear_compile_memo()
    fun = _gemv()
    before_text = canonical(fun)
    before = _annotations(fun)
    for _ in range(2):
        compile_kernel(fun, OPTIONS, memo=memo)
        assert canonical(fun) == before_text
        assert _annotations(fun) == before


def test_repeat_compile_reuses_kernel_parse_and_pipeline():
    clear_compile_memo()
    fun = _gemv()
    inputs = _inputs()
    first = compile_kernel(fun, OPTIONS)
    _run(first, inputs)
    pipelines = simt_compile.compile_count()
    parse_misses = _parse_cached.cache_info().misses

    second = compile_kernel(fun, OPTIONS)
    result = _run(second, inputs)

    assert second is first
    assert second.source == first.source
    assert _parse_cached.cache_info().misses == parse_misses
    assert simt_compile.compile_count() == pipelines
    np.testing.assert_allclose(result.output, _expected(inputs), rtol=1e-9)


def test_repeated_submit_run_is_a_warm_hit(tmp_path):
    clear_compile_memo()
    service = TuningService(
        cache=TuningCache(tmp_path / "cache"),
        config=ServiceConfig(workers=2, journal_dir=str(tmp_path / "journal")),
    )
    request = dict(
        program=_gemv(), inputs=_inputs(), size_env=SIZE_ENV,
        global_size=GLOBAL, local_size=(LOCAL, 1, 1), options=OPTIONS,
    )
    try:
        first, _ = service.submit_run(**request).result(timeout=60)
        for _ in range(3):
            again, _ = service.submit_run(**request).result(timeout=60)
            assert again.tobytes() == first.tobytes()
    finally:
        service.shutdown()
    assert service.stats.completed == 1
    assert service.stats.warm_hits == 3


def test_threads_compiling_one_shared_program_do_not_interfere():
    # A tiny switch interval makes the two compiles interleave at many
    # points; when compilation annotated the shared program in place,
    # this failed most rounds with "undefined identifier 'wg_id_..'".
    inputs = _inputs()
    expected = _expected(inputs)
    failures = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(40):
            clear_compile_memo()
            fun = _gemv()
            start = threading.Barrier(2)

            def client():
                start.wait()
                try:
                    result = _run(compile_kernel(fun, OPTIONS), inputs)
                    np.testing.assert_allclose(result.output, expected, rtol=1e-9)
                except Exception as exc:  # collected, asserted below
                    failures.append(f"{type(exc).__name__}: {exc}")

            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert not failures, failures[:3]
