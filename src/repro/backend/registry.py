"""Backend registry: names -> backends -> fallback chains.

Two name spaces live here:

* **backend names** — concrete :class:`~repro.backend.base.Backend`
  implementations (``scalar``, ``compiled``, ``fused``), registered
  with :func:`register_backend`;
* **engine names** — what ``launch(engine=...)`` / ``REPRO_SIM_ENGINE``
  accept.  Every engine name resolves to an ordered *fallback chain* of
  backends plus a strictness flag, registered with
  :func:`register_engine`.  Single-backend strict engines (``compiled``)
  and multi-tier preferences (``auto``, ``fused``) are the same
  mechanism.

Chain semantics (:meth:`ResolvedChain.execute`):

1. Each backend is tried once, in order; a chain lists a backend at
   most once (:func:`register_engine` rejects duplicates), so a backend
   that declined is never re-run in the same launch.
2. A static refusal (:class:`CompileUnsupported` from ``plan`` — or
   from ``run`` before any buffer was touched, e.g. a launch-shape cap)
   and a *dynamic* refusal (``run`` returns ``False`` after rolling the
   buffers back) both fall through to the next backend.
3. A strict chain that runs out of backends raises
   :class:`~repro.opencl.simt.VectorizationError` (e.g. forcing
   ``engine="compiled"`` onto an unsupported kernel); graceful chains
   end in ``scalar``, which always succeeds.
4. Every decline — static, dynamic, an unexpected ``plan()`` crash
   (shielded for non-final members), an injected ``backend-run``
   fault, or an open circuit breaker — is recorded in the degradation
   ledger (:mod:`repro.backend.ledger`), so a silently-degraded run is
   observable after the fact.
5. When a :class:`~repro.service.breaker.BreakerBoard` is installed
   (only ever by a running :class:`~repro.service.daemon.TuningService`),
   non-final backends whose breaker is open are skipped pre-emptively;
   crash/fault declines feed the breaker, served launches reset it.

``REPRO_SIM_ENGINE`` expresses a *preferred default*, not a hard
requirement: resolving a strict engine name from the environment
(:func:`resolve` with ``prefer=True``) appends ``scalar`` to the chain
so a whole test-suite run can be steered through one backend without
breaking kernels only the scalar reference supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.backend.base import Backend, CompileUnsupported, ExecutionRequest

__all__ = [
    "EngineSpec",
    "ResolvedChain",
    "register_backend",
    "register_engine",
    "get_backend",
    "backend_names",
    "engine_names",
    "resolve",
]

_BACKENDS: Dict[str, Backend] = {}
_ENGINES: Dict[str, "EngineSpec"] = {}


@dataclass(frozen=True)
class EngineSpec:
    """One engine name: an ordered backend chain + strictness."""

    name: str
    members: Tuple[str, ...]
    strict: bool = False
    description: str = ""


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Add a backend under ``backend.name``; returns it (decorator-
    friendly).  Re-registering an existing name requires ``replace``."""
    name = backend.name
    if not name:
        raise ValueError("backend has no name")
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = backend
    return backend


def register_engine(
    name: str,
    members: Sequence[str],
    strict: bool = False,
    description: str = "",
    replace: bool = False,
) -> EngineSpec:
    """Register an engine name resolving to a backend fallback chain.

    A chain lists each backend at most once."""
    if name in _ENGINES and not replace:
        raise ValueError(f"engine {name!r} is already registered")
    if len(set(members)) != len(members):
        raise ValueError(f"engine {name!r} lists a backend twice: {members}")
    for member in members:
        if member not in _BACKENDS:
            raise ValueError(
                f"engine {name!r} references unknown backend {member!r}"
            )
    spec = EngineSpec(name, tuple(members), strict, description)
    _ENGINES[name] = spec
    return spec


def get_backend(name: str) -> Backend:
    """Look a backend up by name; raises ``ValueError`` listing the
    registered names for unknown ones."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS)) or "<none>"
        raise ValueError(
            f"unknown execution backend {name!r} (registered: {known})"
        ) from None


def backend_names() -> tuple:
    return tuple(sorted(_BACKENDS))


def engine_names() -> tuple:
    """Every name ``launch(engine=...)``/``REPRO_SIM_ENGINE`` accepts."""
    return tuple(sorted(_ENGINES))


@dataclass
class ResolvedChain:
    """An engine name resolved to live backend instances."""

    name: str
    members: Tuple[Backend, ...]
    strict: bool

    def execute(self, request: ExecutionRequest) -> None:
        from repro import faultinject
        from repro.backend import ledger
        from repro.faultinject import FaultInjected
        from repro.obs import metrics, span
        from repro.opencl.simt import VectorizationError
        from repro.service import breaker as breaker_mod

        refusals = []
        last = self.members[-1] if self.members else None
        # The service's circuit-breaker board, when one is installed
        # (repro.service.breaker): a backend with repeated crash/fault
        # declines is skipped pre-emptively and re-probed after a
        # cool-down.  One-shot CLI runs never install a board, so this
        # is a no-op outside the service.
        board = breaker_mod.installed()
        metrics.inc("launch.total")
        for backend in self.members:
            if (
                board is not None
                and backend is not last
                and not board.allow(backend.name)
            ):
                # Skipping an unhealthy tier is itself a degradation:
                # ledgered like any other decline, and the breaker is
                # exempt for the final member so graceful chains always
                # complete.
                ledger.record(
                    self.name, backend.name, "breaker", "circuit open"
                )
                refusals.append(f"{backend.name}: circuit open")
                continue
            if backend is not last:
                # ``backend-run`` fault site: an injected fault declines
                # this backend (exercising the chain + ledger); the final
                # member is exempt so a graceful chain still completes.
                try:
                    faultinject.maybe_fail("backend-run")
                except FaultInjected as exc:
                    ledger.record(self.name, backend.name, "fault", str(exc))
                    refusals.append(f"{backend.name}: injected fault")
                    if board is not None:
                        board.failure(backend.name)
                    continue
            try:
                with span("plan", backend=backend.name, engine=self.name):
                    plan = backend.plan(request.parsed, request.kernel)
            except CompileUnsupported as exc:
                ledger.record(self.name, backend.name, "static", str(exc))
                refusals.append(f"{backend.name}: {exc}")
                if board is not None and backend is not last:
                    # A static refusal is no health verdict: give back
                    # the half-open probe slot allow() may have taken
                    # (final members never take one), or the breaker
                    # could stay half-open forever.
                    board.release(backend.name)
                continue
            except Exception as exc:
                # Crash shield: an unexpected bug in a backend's plan()
                # must not take the launch down while healthier tiers
                # remain.  plan() precedes any buffer write, so falling
                # through is exact.  The crash is ledgered with the
                # crashing backend's name at *every* chain position; the
                # final member additionally re-raises (a chain with no
                # healthy backend is a real error).
                ledger.record(
                    self.name, backend.name, "crash",
                    f"{type(exc).__name__}: {exc}",
                )
                if board is not None:
                    board.failure(backend.name)
                if backend is last:
                    raise
                refusals.append(
                    f"{backend.name}: crashed in plan ({type(exc).__name__})"
                )
                continue
            try:
                with span(
                    "run", backend=backend.name, engine=self.name,
                    kernel=request.kernel.name,
                ):
                    done = backend.run(plan, request)
            except CompileUnsupported as exc:
                # Launch-shape refusal before any buffer was touched.
                ledger.record(self.name, backend.name, "static", str(exc))
                refusals.append(f"{backend.name}: {exc}")
                if board is not None and backend is not last:
                    board.release(backend.name)  # no verdict: free probe
                continue
            if done:
                metrics.inc(f"launch.served.{backend.name}")
                if board is not None:
                    # Only health outcomes feed the breaker: a served
                    # launch closes it; static/dynamic refusals are the
                    # backend working as designed and count as neither.
                    board.success(backend.name)
                return
            reason = request.decline_reason or "dynamic bail-out"
            request.decline_reason = ""
            ledger.record(self.name, backend.name, "dynamic", reason)
            refusals.append(f"{backend.name}: {reason}")
            if board is not None and backend is not last:
                board.release(backend.name)  # no verdict: free probe
        detail = "; ".join(refusals) or "empty backend chain"
        kind = "strict engine" if self.strict else "engine"
        raise VectorizationError(
            f"kernel {request.kernel.name!r} not supported by {kind} "
            f"{self.name!r} ({detail})"
        )


def resolve(name: str, prefer: bool = False) -> ResolvedChain:
    """Resolve an engine name to its backend chain.

    ``prefer`` marks the name as a *preference* (the ``REPRO_SIM_ENGINE``
    path): strict chains gain a ``scalar`` tail so the run never fails
    on kernels the preferred backend cannot execute.
    """
    spec = _ENGINES.get(name)
    if spec is None:
        known = ", ".join(engine_names()) or "<none>"
        raise ValueError(
            f"unknown execution engine {name!r}: valid engines are {known}"
        )
    members = list(spec.members)
    strict = spec.strict
    if prefer and strict:
        if "scalar" in _BACKENDS and "scalar" not in members:
            members.append("scalar")
        strict = False
    return ResolvedChain(
        spec.name, tuple(get_backend(m) for m in members), strict
    )
