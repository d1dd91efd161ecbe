"""Common protocol of the pluggable execution backends.

A *backend* is one way of running a kernel launch on the simulated
device: the scalar reference interpreter, the closure-compiled
lane-batched pipeline, or the whole-grid fused-numpy engine.  Every
backend obeys one contract — **bitwise-identical buffer contents and
identical** :class:`~repro.opencl.interp.Counters` for every launch it
completes — so the launcher may pick any of them (and fall through a
chain of them) without observable differences beyond speed.

The life cycle mirrors an OpenCL driver:

``plan``
    Compile/analyze the kernel once per parsed program.  Raises
    :class:`CompileUnsupported` when the backend cannot run this kernel
    at all (the launcher then falls through to the next backend in the
    chain).  Plans are cached by the backend on the parsed program
    object, which the runtime shares per source through an LRU.

``run``
    Execute one launch.  Returns ``True`` on success (buffers written,
    counters merged).  Returns ``False`` for a *dynamic* refusal — the
    backend noticed mid-launch that it cannot reproduce the scalar
    semantics (e.g. a cross-lane data race), has already rolled the
    global buffers back to their pre-launch contents, and has named the
    cause in ``request.decline_reason`` for the ledger.  It may also
    raise :class:`CompileUnsupported` for launch-shape refusals that
    occur before any buffer is touched (e.g. the fused backend's
    whole-grid lane cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

# The closure compiler's static-refusal exception doubles as the
# backend-level one: "this backend cannot run this kernel, try the next
# one".  Sharing the type keeps the fallback seam identical whether the
# refusal comes from closure compilation or from a backend adapter.
from repro.opencl.simt_compile import CompileUnsupported

__all__ = [
    "Backend",
    "CompileUnsupported",
    "ExecutionRequest",
]


@dataclass
class ExecutionRequest:
    """Everything one kernel launch needs, backend-independent.

    ``base_env`` maps parameter names to
    :class:`~repro.opencl.interp.Pointer` values (global buffers) or
    scalars; ``local_decls`` are the kernel's ``local`` array
    declarations (allocated per work-group by each backend in its own
    layout).  ``counters`` is the caller's accumulator — backends must
    only merge into it on success.  ``decline_reason`` is where a
    backend whose ``run`` returns ``False`` names the cause.
    """

    parsed: Any  # ParsedProgram
    kernel: Any  # c.CFunctionDef
    gsize: tuple
    lsize: tuple
    base_env: Mapping[str, Any]
    local_decls: Sequence
    counters: Any  # Counters
    decline_reason: str = ""

    @property
    def total_work_items(self) -> int:
        g = self.gsize
        return g[0] * g[1] * g[2]


class Backend:
    """Base class of the execution backends (see the module docstring)."""

    #: Registry name (also the ``launch(engine=...)`` spelling).
    name: str = ""
    #: One-line description for the registry listing.
    description: str = ""

    def plan(self, parsed, kernel):
        """Prepare a kernel once; raise :class:`CompileUnsupported` to
        decline.  The returned object is passed back to :meth:`run`."""
        raise NotImplementedError

    def run(self, plan, request: ExecutionRequest) -> bool:
        """Execute one launch; ``False`` = dynamic refusal after
        rollback (see the module docstring)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<backend {self.name!r}>"
