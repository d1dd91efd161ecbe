"""Persistent content-addressed store for tuning artifacts.

Exploring the rewrite space means compiling and simulating many
candidate programs, most of which reappear unchanged on the next run
(and across ``benchsuite`` invocations).  Following Loo.py's lead on
caching transformed-kernel artifacts, this module keeps three kinds of
entries on disk, all addressed by content, never by file name or
timestamp:

* **kernel entries** — the full :class:`~repro.compiler.codegen.CompiledKernel`
  (generated OpenCL source plus launch metadata), keyed by the
  *structural hash* of the IL program (:mod:`repro.ir.structural`, so
  parameter renaming and cloning do not defeat the cache) combined with
  the :class:`~repro.compiler.options.CompilerOptions` and the size
  environment;
* **cycle entries** — the measured simulated cycle count of one
  execution, keyed by the kernel key plus a fingerprint of the concrete
  input arrays, the launch geometry, the device profile and the
  simulator engine;
* **run entries** — the full outcome of one simulated execution (the
  output buffer and the device-independent :class:`Counters`), keyed
  like cycle entries minus the device.

Crash- and concurrency-safety (see ``src/repro/RESILIENCE.md``):

* Writes are atomic (temp file + ``os.replace``) and serialized across
  *processes* with an advisory ``fcntl`` lock on ``<root>/.lock`` —
  ``kill -9`` mid-write leaves at most a stale temp file (swept by the
  eviction pass), never a partial entry, and two concurrent explorers
  sharing one store cannot interleave evictions with writes.
* Every entry carries a header with format version and a SHA-256
  checksum of its payload.  A failing entry is *classified* — I/O
  errors count separately from decode/checksum failures and from
  version staleness — and corrupt/stale entries are moved to
  ``<root>/quarantine/`` (visible in :class:`CacheStats`, never
  silently unlinked) so a recurring corruption source can be diagnosed
  post-mortem.  The worst failure mode is still just a recompile.
* The store is size-capped: when ``max_bytes`` (constructor argument or
  ``REPRO_CACHE_MAX_BYTES``) is exceeded after a write, least-recently-
  used entries are evicted — hits refresh an entry's mtime, so recency
  is by *use*, not by creation.
* The ``cache-read``/``cache-write`` fault-injection sites
  (:mod:`repro.faultinject`) fire at the top of every get/put with
  bounded in-place retries; recoveries are counted in
  ``stats.faults_recovered``.

The store root comes from the ``REPRO_CACHE_DIR`` environment variable,
falling back to ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import faultinject, obs
from repro.compiler.codegen import CompiledKernel
from repro.compiler.options import CompilerOptions
from repro.faultinject import FaultInjected
from repro.ir.nodes import FunDecl
from repro.ir.structural import canonical
from repro.opencl.interp import Counters

#: Bump when the on-disk layout or any pickled class changes shape.
#: v3: entries carry a checksummed header; corrupt/stale entries are
#: quarantined instead of unlinked.
CACHE_VERSION = 3

_ENV_VAR = "REPRO_CACHE_DIR"
_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: Entry-header magic; the full header is
#: ``b"repro-cache <version> <sha256-of-body>\n"`` followed by the body.
_MAGIC = b"repro-cache"

#: Temp files older than this are crash leftovers; the eviction pass
#: sweeps them.
_TMP_MAX_AGE_SECONDS = 3600.0

QUARANTINE_DIR = "quarantine"


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def fingerprint_inputs(inputs: Mapping[str, Any]) -> str:
    """Digest concrete kernel inputs (arrays by bytes, scalars by repr)."""
    h = hashlib.sha256()
    for name in sorted(inputs):
        value = inputs[name]
        h.update(name.encode())
        if isinstance(value, np.ndarray) or (
            hasattr(value, "__len__") and not isinstance(value, str)
        ):
            arr = np.ascontiguousarray(np.asarray(value))
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


class CacheFormatError(Exception):
    """An entry failed validation; ``reason`` classifies it.

    ``"corrupt"`` — bad magic, truncated header, checksum mismatch or
    undecodable payload; ``"stale"`` — a well-formed entry of another
    format version or keyed under a different content hash.
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass
class CacheStats:
    """Hit/miss and failure-recovery accounting for one
    :class:`TuningCache` instance.  Nothing fails silently: every
    dropped or skipped entry shows up in exactly one counter."""

    kernel_hits: int = 0
    kernel_misses: int = 0
    cycle_hits: int = 0
    cycle_misses: int = 0
    run_hits: int = 0
    run_misses: int = 0
    puts: int = 0
    #: Total entries removed from the live store for cause
    #: (= quarantined; kept for backwards compatibility).
    invalid: int = 0
    #: Entries moved to ``<root>/quarantine/`` (corrupt + stale).
    quarantined: int = 0
    #: Quarantined for undecodable content (bad magic/checksum/pickle).
    corrupt_entries: int = 0
    #: Quarantined for version or key mismatch (well-formed, outdated).
    stale_entries: int = 0
    #: Reads/writes that failed with an ``OSError`` other than
    #: file-not-found (treated as a miss / skipped write, not corruption).
    io_errors: int = 0
    #: Entries evicted by the LRU size cap.
    evictions: int = 0
    #: Writes skipped because an injected fault exhausted its retries.
    write_skips: int = 0
    #: Injected faults absorbed by in-place retries at the cache sites.
    faults_recovered: int = 0

    def kernel_hit_rate(self) -> float:
        total = self.kernel_hits + self.kernel_misses
        return self.kernel_hits / total if total else 0.0

    def cycle_hit_rate(self) -> float:
        total = self.cycle_hits + self.cycle_misses
        return self.cycle_hits / total if total else 0.0

    def run_hit_rate(self) -> float:
        total = self.run_hits + self.run_misses
        return self.run_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class TuningCache:
    """On-disk content-addressed store for compiled kernels and timings.

    ``max_bytes`` caps the total size of live entries (``None`` reads
    ``REPRO_CACHE_MAX_BYTES``; 0/unset disables eviction).
    """

    def __init__(
        self,
        root: "str | Path | None" = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            env = os.environ.get(_MAX_BYTES_ENV_VAR)
            max_bytes = int(env) if env else 0
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        # The explorer's worker pool shares one cache: serialize file IO
        # and stats updates within the process; the fcntl lock in
        # _exclusive() serializes mutations across processes.
        self._lock = threading.Lock()
        # The newest cache owns the metrics snapshot's "cache" slot
        # (harnesses build exactly one per run).
        obs.register_cache_stats(self.stats)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def _options_token(options: CompilerOptions) -> str:
        parts = [
            f"{f.name}={getattr(options, f.name)!r}"
            for f in sorted(fields(options), key=lambda f: f.name)
        ]
        return ";".join(parts)

    def kernel_key(
        self,
        program: FunDecl,
        options: CompilerOptions,
        size_env: Mapping[str, int],
    ) -> str:
        sizes = ";".join(f"{k}={int(v)}" for k, v in sorted(size_env.items()))
        payload = "\n".join(
            [
                f"v{CACHE_VERSION}",
                canonical(program),
                self._options_token(options),
                sizes,
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def source_key(source: str, kernel_name: str, size_env: Mapping[str, int]) -> str:
        """Key for a hand-written (non-IL) kernel: raw source + sizes.

        The reference kernels of the benchsuite have no IL program to
        hash structurally; their source text is the identity.
        """
        sizes = ";".join(f"{k}={int(v)}" for k, v in sorted(size_env.items()))
        payload = "\n".join([f"v{CACHE_VERSION}", "src", kernel_name, sizes, source])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def run_key(
        self,
        kernel_key: str,
        inputs_fingerprint: str,
        global_size,
        local_size,
        engine: Optional[str],
    ) -> str:
        payload = "\n".join(
            [
                "run",
                kernel_key,
                inputs_fingerprint,
                repr(tuple(global_size) if hasattr(global_size, "__len__") else global_size),
                repr(tuple(local_size) if hasattr(local_size, "__len__") else local_size),
                engine or "auto",
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def cycles_key(
        self,
        kernel_key: str,
        inputs_fingerprint: str,
        global_size,
        local_size,
        device: str,
        engine: Optional[str],
    ) -> str:
        payload = "\n".join(
            [
                kernel_key,
                inputs_fingerprint,
                repr(tuple(global_size) if hasattr(global_size, "__len__") else global_size),
                repr(tuple(local_size) if hasattr(local_size, "__len__") else local_size),
                device,
                engine or "auto",
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # entry framing: versioned, checksummed header
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(body: bytes) -> bytes:
        digest = hashlib.sha256(body).hexdigest()
        header = f"{_MAGIC.decode()} {CACHE_VERSION} {digest}\n".encode()
        return header + body

    @staticmethod
    def _decode(raw: bytes) -> bytes:
        """Validate the header and checksum; returns the body."""
        newline = raw.find(b"\n")
        if newline < 0 or not raw.startswith(_MAGIC + b" "):
            raise CacheFormatError("corrupt", "missing entry header")
        parts = raw[:newline].split(b" ")
        if len(parts) != 3:
            raise CacheFormatError("corrupt", "malformed entry header")
        try:
            version = int(parts[1])
        except ValueError:
            raise CacheFormatError("corrupt", "malformed version field") from None
        if version != CACHE_VERSION:
            raise CacheFormatError(
                "stale", f"format v{version}, expected v{CACHE_VERSION}"
            )
        body = raw[newline + 1:]
        if hashlib.sha256(body).hexdigest().encode() != parts[2]:
            raise CacheFormatError("corrupt", "checksum mismatch")
        return body

    # ------------------------------------------------------------------
    # low-level file handling
    # ------------------------------------------------------------------
    def _path(self, key: str, kind: str) -> Path:
        return self.root / f"{key}.{kind}"

    @contextmanager
    def _exclusive(self):
        """Advisory cross-process lock on ``<root>/.lock`` (held around
        writes, quarantine moves and eviction; reads rely on atomic
        replace instead and stay lock-free)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _write_atomic(self, path: Path, body: bytes) -> None:
        data = self._encode(body)
        self.root.mkdir(parents=True, exist_ok=True)
        with self._exclusive():
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._evict_locked()

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a failing entry aside — never silently unlink it."""
        obs.instant("cache.quarantine", entry=path.name, reason=reason)
        obs.inc("cache.quarantines")
        self.stats.invalid += 1
        self.stats.quarantined += 1
        if reason == "stale":
            self.stats.stale_entries += 1
        else:
            self.stats.corrupt_entries += 1
        target_dir = self.root / QUARANTINE_DIR
        try:
            with self._exclusive():
                target_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, target_dir / f"{path.name}.{reason}")
        except OSError:
            # Quarantine itself failed (permissions, cross-device...):
            # fall back to unlinking so the entry cannot poison reads.
            try:
                path.unlink()
            except OSError:
                pass

    def quarantined_entries(self) -> list:
        """Paths currently sitting in the quarantine directory."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted(p for p in qdir.iterdir() if p.is_file())

    def _read_body(self, path: Path) -> Optional[bytes]:
        """Read and validate one entry; ``None`` is a classified miss."""
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.stats.io_errors += 1
            return None
        try:
            body = self._decode(raw)
        except CacheFormatError as exc:
            self._quarantine(path, exc.reason)
            return None
        try:
            # A hit refreshes recency for the LRU eviction pass.
            os.utime(path)
        except OSError:
            pass
        return body

    def _survive_read(self) -> bool:
        """``cache-read`` fault site; ``False`` = give up (treat as miss)."""
        try:
            self.stats.faults_recovered += faultinject.survive("cache-read")
            return True
        except FaultInjected:
            self.stats.io_errors += 1
            return False

    def _survive_write(self) -> bool:
        """``cache-write`` fault site; ``False`` = skip this write."""
        try:
            self.stats.faults_recovered += faultinject.survive("cache-write")
            return True
        except FaultInjected:
            self.stats.write_skips += 1
            return False

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _evict_locked(self) -> None:
        """LRU eviction down to ``max_bytes``; also sweeps stale temp
        files left by killed writers.  Caller holds ``_exclusive``.

        Only ``.tmp-*`` names are statted unless a byte budget is set,
        so with eviction off a put lists the store once instead of
        statting every live entry."""
        import time

        now = time.time()
        entries = []
        total = 0
        try:
            with os.scandir(self.root) as it:
                children = list(it)
        except OSError:
            return
        for entry in children:
            if entry.name.startswith(".tmp-"):
                try:
                    if now - entry.stat().st_mtime > _TMP_MAX_AGE_SECONDS:
                        os.unlink(entry.path)
                except OSError:
                    pass
                continue
            if not self.max_bytes or entry.name.startswith("."):
                continue
            try:
                if not entry.is_file():
                    continue
                st = entry.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, entry.name, st.st_size, entry.path))
            total += st.st_size
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda e: (e[0], e[1]))
        evicted = 0
        for _, _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1
            evicted += 1
        if evicted:
            obs.instant("cache.evict", entries=evicted, live_bytes=total)
            obs.inc("cache.evictions", evicted)

    # ------------------------------------------------------------------
    # kernel entries
    # ------------------------------------------------------------------
    def get_kernel(self, key: str) -> Optional[CompiledKernel]:
        with obs.span("cache.get_kernel"), self._lock:
            if not self._survive_read():
                self.stats.kernel_misses += 1
                return None
            return self._get_kernel(key)

    def _get_kernel(self, key: str) -> Optional[CompiledKernel]:
        path = self._path(key, "kernel")
        body = self._read_body(path)
        if body is None:
            self.stats.kernel_misses += 1
            return None
        try:
            entry = pickle.loads(body)
            if entry["version"] != CACHE_VERSION or entry["key"] != key:
                raise CacheFormatError("stale", "entry version/key mismatch")
            kernel = entry["kernel"]
            if not isinstance(kernel, CompiledKernel):
                raise CacheFormatError("corrupt", "entry holds no kernel")
        except CacheFormatError as exc:
            self._quarantine(path, exc.reason)
            self.stats.kernel_misses += 1
            return None
        except Exception:
            # Checksummed body that still fails to unpickle: a schema
            # drift of the pickled classes, not bit rot.
            self._quarantine(path, "corrupt")
            self.stats.kernel_misses += 1
            return None
        self.stats.kernel_hits += 1
        return kernel

    def put_kernel(self, key: str, kernel: CompiledKernel) -> None:
        entry = {"version": CACHE_VERSION, "key": key, "kernel": kernel}
        with obs.span("cache.put_kernel"), self._lock:
            if not self._survive_write():
                return
            try:
                self._write_atomic(self._path(key, "kernel"), pickle.dumps(entry))
            except OSError:
                self.stats.io_errors += 1
                return
            self.stats.puts += 1

    # ------------------------------------------------------------------
    # cycle entries
    # ------------------------------------------------------------------
    def get_cycles(self, key: str) -> Optional[float]:
        with obs.span("cache.get_cycles"), self._lock:
            if not self._survive_read():
                self.stats.cycle_misses += 1
                return None
            return self._get_cycles(key)

    def _get_cycles(self, key: str) -> Optional[float]:
        path = self._path(key, "cycles.json")
        body = self._read_body(path)
        if body is None:
            self.stats.cycle_misses += 1
            return None
        try:
            entry = json.loads(body)
            if entry["version"] != CACHE_VERSION or entry["key"] != key:
                raise CacheFormatError("stale", "entry version/key mismatch")
            cycles = float(entry["cycles"])
        except CacheFormatError as exc:
            self._quarantine(path, exc.reason)
            self.stats.cycle_misses += 1
            return None
        except Exception:
            self._quarantine(path, "corrupt")
            self.stats.cycle_misses += 1
            return None
        self.stats.cycle_hits += 1
        return cycles

    def put_cycles(self, key: str, cycles: float) -> None:
        entry = {"version": CACHE_VERSION, "key": key, "cycles": float(cycles)}
        with obs.span("cache.put_cycles"), self._lock:
            if not self._survive_write():
                return
            try:
                self._write_atomic(
                    self._path(key, "cycles.json"), json.dumps(entry).encode("utf-8")
                )
            except OSError:
                self.stats.io_errors += 1
                return
            self.stats.puts += 1

    # ------------------------------------------------------------------
    # run entries (output buffer + counters)
    # ------------------------------------------------------------------
    def get_run(self, key: str) -> Optional[tuple]:
        """``(output array, Counters)`` of a cached execution, or ``None``."""
        with obs.span("cache.get_run"), self._lock:
            if not self._survive_read():
                self.stats.run_misses += 1
                return None
            return self._get_run(key)

    def _get_run(self, key: str) -> Optional[tuple]:
        path = self._path(key, "run")
        body = self._read_body(path)
        if body is None:
            self.stats.run_misses += 1
            return None
        try:
            entry = pickle.loads(body)
            if entry["version"] != CACHE_VERSION or entry["key"] != key:
                raise CacheFormatError("stale", "entry version/key mismatch")
            output = entry["output"]
            if not isinstance(output, np.ndarray):
                raise CacheFormatError("corrupt", "entry holds no output array")
            counters = Counters(**entry["counters"])
        except CacheFormatError as exc:
            self._quarantine(path, exc.reason)
            self.stats.run_misses += 1
            return None
        except Exception:
            self._quarantine(path, "corrupt")
            self.stats.run_misses += 1
            return None
        self.stats.run_hits += 1
        return output, counters

    def put_run(self, key: str, output: np.ndarray, counters: Counters) -> None:
        entry = {
            "version": CACHE_VERSION,
            "key": key,
            "output": np.asarray(output),
            "counters": dict(vars(counters)),
        }
        with obs.span("cache.put_run"), self._lock:
            if not self._survive_write():
                return
            try:
                self._write_atomic(self._path(key, "run"), pickle.dumps(entry))
            except OSError:
                self.stats.io_errors += 1
                return
            self.stats.puts += 1

    # ------------------------------------------------------------------
    def clear(self, include_quarantine: bool = True) -> int:
        """Delete every live entry (and, by default, the quarantine);
        returns the number of entry files removed."""
        removed = 0
        if self.root.is_dir():
            with self._exclusive():
                for path in self.root.iterdir():
                    if path.suffix in (".kernel", ".json", ".run") or (
                        path.name.startswith(".tmp-")
                    ):
                        try:
                            path.unlink()
                            removed += 1
                        except OSError:
                            pass
        if include_quarantine:
            for path in self.quarantined_entries():
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed
