"""Tests for the pluggable execution-backend subsystem (repro.backend).

Covers the registry (registration, lookup, unknown-name errors, engine
chains), launch-time engine resolution (explicit argument vs the
``REPRO_SIM_ENGINE`` preference), and the fused whole-grid backend's
compilation decisions (fused segments, proof-carrying stores, prefix
masks, lane cap, aliasing) plus its fallback behaviour.  The bitwise
cross-backend contract itself is exercised by the engine sweeps in
``tests/test_simt.py`` / ``tests/test_simt_compile.py``.
"""

import numpy as np
import pytest

from repro.backend import (
    Backend,
    CompileUnsupported,
    backend_names,
    engine_names,
    get_backend,
    get_fused_kernel,
    register_backend,
    register_engine,
    resolve,
)
from repro.backend import fused as fused_mod
from repro.backend import registry as registry_mod
from repro.opencl import Buffer, OpenCLProgram, VectorizationError, launch

SAXPY = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""


def saxpy_args(n, xs=None):
    x = Buffer.from_array(xs if xs is not None else np.arange(n, dtype=float))
    return {
        "x": x,
        "y": Buffer.from_array(np.ones(n)),
        "out": Buffer.zeros(n),
        "a": 2.0,
        "n": n,
    }


def run_saxpy(engine, n=64, local=16, **overrides):
    program = OpenCLProgram(SAXPY)
    args = saxpy_args(n)
    args.update(overrides)
    counters = launch(program, n, local, args, engine=engine)
    return args["out"].data.copy(), vars(counters)


class TestRegistry:
    def test_default_backends_registered(self):
        assert set(backend_names()) == {"scalar", "compiled", "fused"}

    def test_default_engines(self):
        chains = {
            name: tuple(b.name for b in resolve(name).members)
            for name in engine_names()
        }
        assert chains == {
            "auto": ("compiled", "scalar"),
            "compiled": ("compiled",),
            "fused": ("fused", "compiled", "scalar"),
            "scalar": ("scalar",),
        }
        preferred = resolve("compiled", prefer=True)
        assert [b.name for b in preferred.members] == ["compiled", "scalar"]
        assert not preferred.strict

    def test_lookup_returns_the_backend(self):
        backend = get_backend("fused")
        assert backend.name == "fused"

    def test_unknown_backend_error_lists_names(self):
        with pytest.raises(ValueError) as err:
            get_backend("nope")
        for name in backend_names():
            assert name in str(err.value)

    def test_unknown_engine_error_lists_names(self):
        with pytest.raises(ValueError) as err:
            resolve("warp-speed")
        for name in engine_names():
            assert name in str(err.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend(get_backend("scalar"))

    def test_engine_chain_members_must_exist(self):
        with pytest.raises(ValueError):
            register_engine("broken-chain", ("no-such-backend",))

    def test_engine_chain_lists_each_backend_once(self):
        # A backend that declined a launch must never be re-run in the
        # same launch, so a chain may not list it twice.
        with pytest.raises(ValueError, match="twice"):
            register_engine("twice-chain", ("compiled", "scalar", "compiled"))
        assert "twice-chain" not in engine_names()

    def test_custom_backend_registration_roundtrip(self):
        class Null(Backend):
            name = "test-null"

            def plan(self, parsed, kernel):
                raise CompileUnsupported("always declines")

        try:
            register_backend(Null())
            register_engine("test-null-then-scalar", ("test-null", "scalar"))
            out, counters = run_saxpy("test-null-then-scalar")
            ref, ref_counters = run_saxpy("scalar")
            np.testing.assert_array_equal(out, ref)
            assert counters == ref_counters
        finally:
            registry_mod._BACKENDS.pop("test-null", None)
            registry_mod._ENGINES.pop("test-null-then-scalar", None)

    def test_strict_chain_raises_when_exhausted(self):
        src = """
        kernel void K(global float *x, int n) {
          if (get_global_id(0) >= n) { return; }
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        with pytest.raises(VectorizationError):
            launch(program, 4, 4, {"x": Buffer.zeros(4), "n": 4},
                   engine="compiled")


class TestEngineResolution:
    def test_launch_unknown_engine_lists_valid_names(self):
        program = OpenCLProgram(SAXPY)
        with pytest.raises(ValueError) as err:
            launch(program, 16, 16, saxpy_args(16), engine="warp-speed")
        message = str(err.value)
        for name in engine_names():
            assert name in message

    def test_env_var_accepts_backend_names(self, monkeypatch):
        ref, ref_counters = run_saxpy("scalar")
        for name in ("fused", "compiled"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", name)
            out, counters = run_saxpy(None)
            np.testing.assert_array_equal(out, ref)
            assert counters == ref_counters

    def test_env_var_is_a_preference_not_a_requirement(self, monkeypatch):
        # A kernel only the scalar tier supports must still run when the
        # environment prefers a strict lane-batched engine.
        src = """
        kernel void K(global float *x, int n) {
          if (get_global_id(0) >= n) { return; }
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        out = Buffer.zeros(4)
        launch(program, 4, 4, {"x": out, "n": 4})
        np.testing.assert_array_equal(out.data, np.ones(4))

    def test_env_var_unknown_name_still_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp-speed")
        program = OpenCLProgram(SAXPY)
        with pytest.raises(ValueError):
            launch(program, 16, 16, saxpy_args(16))


class TestFusedCompilation:
    def test_saxpy_fully_fuses_with_a_proven_store(self):
        program = OpenCLProgram(SAXPY)
        fk = get_fused_kernel(program.parsed, program.kernel())
        assert fk is not None
        assert fk.fused_segment_count == len(fk.segments) == 1
        assert fk.sole_names == frozenset({"out"})

    def test_barrier_kernel_splits_segments(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          local float tmp[8];
          int l = get_local_id(0);
          tmp[l] = x[get_global_id(0)];
          barrier(CLK_LOCAL_MEM_FENCE);
          out[get_global_id(0)] = tmp[l] + 1.0f;
        }
        """
        program = OpenCLProgram(src)
        fk = get_fused_kernel(program.parsed, program.kernel())
        assert fk is not None
        assert len(fk.segments) == 3  # stage | barrier | finish

    def test_unvectorizable_kernel_has_no_fused_form(self):
        # Statically refused (barrier + early return) but legal at this
        # launch shape: the fused chain must fall through to scalar.
        src = """
        kernel void K(global float *x, int n) {
          if (get_global_id(0) >= n) { return; }
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        assert get_fused_kernel(program.parsed, program.kernel()) is None
        out_f = Buffer.zeros(4)
        c_f = launch(program, 4, 4, {"x": out_f, "n": 4}, engine="fused")
        out_s = Buffer.zeros(4)
        c_s = launch(program, 4, 4, {"x": out_s, "n": 4}, engine="scalar")
        np.testing.assert_array_equal(out_f.data, out_s.data)
        assert vars(c_f) == vars(c_s)

    def test_loaded_output_buffer_is_not_sole(self):
        src = """
        kernel void K(global float *out) {
          int i = get_global_id(0);
          out[i] = out[i] + 1.0f;
        }
        """
        program = OpenCLProgram(src)
        fk = get_fused_kernel(program.parsed, program.kernel())
        assert fk is not None
        assert "out" not in fk.sole_names

    def test_store_inside_a_loop_is_not_sole(self):
        src = """
        kernel void K(global float *out, int n) {
          int i = get_global_id(0);
          for (int t = 0; t < 2; t = t + 1) {
            out[i + t * n] = 1.0f;
          }
        }
        """
        program = OpenCLProgram(src)
        fk = get_fused_kernel(program.parsed, program.kernel())
        assert fk is not None
        assert "out" not in fk.sole_names

    def test_prefix_guard_matches_scalar_bitwise(self):
        # Guard bound below the launch size: the fused backend runs the
        # body on a lane prefix; buffers and counters must match scalar.
        program = OpenCLProgram(SAXPY)
        n, glob = 100, 128
        for engine in ("scalar", "fused"):
            args = saxpy_args(glob)
            args["n"] = n
            counters = launch(program, glob, 4, args, engine=engine)
            if engine == "scalar":
                ref = args["out"].data.copy()
                ref_counters = vars(counters)
            else:
                np.testing.assert_array_equal(args["out"].data, ref)
                assert vars(counters) == ref_counters
        assert ref_counters["global_stores"] == n
        assert np.count_nonzero(ref) == n  # items past the guard skipped

    def test_aliased_output_still_bitwise(self):
        # The same array passed as input and output disables the
        # proof-carrying store (aliasing check) without losing bitwise
        # equality with the scalar engine.
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = x[i] + 1.0f;
        }
        """
        program = OpenCLProgram(src)
        shared_f = Buffer.from_array(np.arange(8, dtype=float))
        c_f = launch(program, 8, 4, {"x": shared_f, "out": shared_f},
                     engine="fused")
        shared_s = Buffer.from_array(np.arange(8, dtype=float))
        c_s = launch(program, 8, 4, {"x": shared_s, "out": shared_s},
                     engine="scalar")
        np.testing.assert_array_equal(shared_f.data, shared_s.data)
        assert vars(c_f) == vars(c_s)

    def test_lane_cap_falls_back_to_compiled(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "FUSED_MAX_LANES", 32)
        out, counters = run_saxpy("fused", n=64, local=16)
        ref, ref_counters = run_saxpy("scalar", n=64, local=16)
        np.testing.assert_array_equal(out, ref)
        assert counters == ref_counters

    def test_grid_uniform_loop_fuses(self):
        src = """
        kernel void K(const global float * restrict x, global float *out,
                      int reps) {
          int i = get_global_id(0);
          float acc = 0.0f;
          for (int t = 0; t < reps; t = t + 1) {
            acc = acc + x[i];
          }
          out[i] = acc;
        }
        """
        program = OpenCLProgram(src)
        fk = get_fused_kernel(program.parsed, program.kernel())
        assert fk is not None and fk.fused_segment_count == 1
        for engine in ("scalar", "fused"):
            args = {
                "x": Buffer.from_array(np.arange(16, dtype=float)),
                "out": Buffer.zeros(16),
                "reps": 3,
            }
            counters = launch(program, 16, 4, args, engine=engine)
            if engine == "scalar":
                ref = args["out"].data.copy()
                ref_counters = vars(counters)
            else:
                np.testing.assert_array_equal(args["out"].data, ref)
                assert vars(counters) == ref_counters
        assert ref_counters["loop_iterations"] == 3 * 16
