"""Content-addressed on-disk artifact store for compile units.

The store persists compilation products keyed by content hashes so that warm
processes skip work entirely (see DESIGN.md, "Compile units and the artifact
store"):

* **model entries** — everything needed to rebuild a :class:`CompiledModel`
  without running sanitize/layout/irgen/optimize/codegen: the encoded
  optimized IR module, the sanitization info, the static layout, the
  grid-search metadata, the generated Python source and the per-function
  unit fingerprints;
* **optimize entries** — the encoded optimized module alone, keyed on the
  *pre-optimization* unit fingerprints.  Models that differ only in plain
  parameter values (which live in the params buffer, not the IR) share these
  even though their model keys differ.

Concurrency: writers stage into a temp file in the destination directory and
publish with ``os.replace`` (atomic on POSIX and Windows), so readers never
observe partial objects and never take a lock.  A corrupt or truncated object
(killed writer on a non-atomic filesystem, bit rot) reads as a miss and is
unlinked best-effort.

Eviction: :meth:`ArtifactStore.gc` removes oldest-``mtime`` objects until the
store fits a byte cap — exposed as ``python -m repro.cache gc``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ArtifactStore",
    "normalize_flags",
    "resolve_store",
    "unit_fingerprints",
    "artifact_salt",
    "model_artifact_key",
    "optimize_artifact_key",
    "tuned_pipeline_key",
    "STORE_ENV_VAR",
    "TUNED_KEY_PREFIX",
]

#: Key prefix of tuned-pipeline entries (autotune winners + provenance).
#: The prefix keeps them enumerable on disk — ``python -m repro.cache stats``
#: reports tuned-cache health next to the artifact cache — and lets the
#: store's counters split tuned traffic from compile-artifact traffic.
TUNED_KEY_PREFIX = "tune-"

#: Environment variable naming the default on-disk store root.  When set,
#: sessions (and the module-level ``repro.compile``) persist artifacts there
#: without any code changes.
STORE_ENV_VAR = "REPRO_ARTIFACT_DIR"

#: Known compile flags and their default (effective) values.  Flag
#: normalization maps every compile to the *effective* configuration so that
#: explicitly passing a default (``{"analysis_cache": True}``) aliases the
#: clean entry — which is correct, it compiles identically — while any
#: non-default value (``{"sanitize": True}``, ``{"analysis_cache": False}``)
#: always yields a distinct key.
_FLAG_DEFAULTS: Dict[str, object] = {
    "analysis_cache": True,
    "structured_codegen": True,
    "sanitize": False,
}


def normalize_flags(flags: Optional[Dict[str, object]]) -> Tuple:
    """Canonicalise compile flags for cache keying.

    Known flags are coerced to their effective boolean value and dropped when
    they equal the default; unknown flags are kept verbatim (sorted).  The
    result is a hashable tuple: ``()`` for every spelling of the default
    configuration.
    """
    if not flags:
        return ()
    items = []
    for key in sorted(flags):
        value = flags[key]
        if key in _FLAG_DEFAULTS:
            value = bool(value)
            if value == _FLAG_DEFAULTS[key]:
                continue
        items.append((str(key), value))
    return tuple(items)


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


def artifact_salt() -> str:
    """Global invalidators shared by every artifact key.

    Covers the Python lowering version and the IR payload format.  Struct
    layout changes need no salt of their own: function fingerprints expand
    every struct to its full field layout (:func:`repro.ir.fingerprint.\
type_signature`), so the in-place mutations that bump
    :data:`repro.ir.types.TYPE_MUTATION_EPOCH` change the content hash
    directly — the live epoch counter itself is process-history-dependent
    (every compile bumps it while building its structs) and must never leak
    into a content address.
    """
    from ..backends.pycodegen import CODEGEN_VERSION
    from ..ir.serialize import FORMAT_VERSION

    return f"cg{CODEGEN_VERSION}:ir{FORMAT_VERSION}"


def _sha256(*tokens: str) -> str:
    h = hashlib.sha256()
    for token in tokens:
        h.update(token.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def unit_fingerprints(
    module,
    pipeline_fingerprint: str,
    flags: Optional[Dict[str, object]] = None,
    function_fingerprints: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Per-function *compile unit* keys for every function of ``module``.

    A unit key covers the function's own structural fingerprint, the unit
    keys of everything it (transitively) calls, the optimisation pipeline,
    the normalized flags and the global :func:`artifact_salt` — so a unit is
    reusable exactly when re-running distill → optimize → codegen on it would
    reproduce the stored artifact.  ``function_fingerprints`` passes in the
    structural fingerprints when the caller already computed them for every
    function of ``module``.
    """
    from ..ir.fingerprint import function_fingerprint
    from ..ir.instructions import Call

    salt = artifact_salt()
    flags_token = repr(normalize_flags(flags))
    own: Dict[str, str] = function_fingerprints or {
        name: function_fingerprint(fn) for name, fn in module.functions.items()
    }
    callees: Dict[str, List[str]] = {}
    for name, fn in module.functions.items():
        seen = set()
        for instr in fn.instructions():
            if isinstance(instr, Call):
                seen.add(instr.callee.name)
        callees[name] = sorted(seen)

    keys: Dict[str, str] = {}

    def key_of(name: str, stack: frozenset) -> str:
        cached = keys.get(name)
        if cached is not None:
            return cached
        if name in stack:
            # Defensive: generated models have an acyclic call graph; on a
            # cycle fall back to the plain structural fingerprint.
            return own[name]
        inner = stack | {name}
        callee_keys = [key_of(c, inner) for c in callees.get(name, ())]
        key = _sha256(own[name], *callee_keys, pipeline_fingerprint, flags_token, salt)
        keys[name] = key
        return key

    for name in module.functions:
        key_of(name, frozenset())
    return keys


def model_artifact_key(
    composition,
    pipeline,
    seed: int,
    flags: Optional[Dict[str, object]] = None,
) -> str:
    """Store key of a full-model compile (exact: includes parameter values)."""
    from .session import _pipeline_fingerprint, structural_fingerprint

    return _sha256(
        "model",
        structural_fingerprint(composition),
        _pipeline_fingerprint(pipeline),
        str(int(seed)),
        repr(pipeline.verify),
        repr(normalize_flags(flags)),
        artifact_salt(),
    )


def optimize_artifact_key(unit_keys: Dict[str, str]) -> str:
    """Store key of an optimized module, from pre-optimization unit keys."""
    return _sha256("opt", *sorted(unit_keys.values()))


def tuned_pipeline_key(composition, engine: str, objective_id: str) -> str:
    """Store key of an autotuned-pipeline entry.

    Keyed on the structural composition hash × engine × objective (plus the
    global salt): every structurally identical rebuild of a model resolves to
    the same tuned pipeline, a pipeline tuned for one engine never leaks to
    another, and changing the objective weights starts a fresh search.  Run
    seeds and budgets are deliberately excluded — see DESIGN.md, "Pipeline
    autotuner".
    """
    from .session import structural_fingerprint

    return TUNED_KEY_PREFIX + _sha256(
        "autotune",
        structural_fingerprint(composition),
        str(engine),
        str(objective_id),
        artifact_salt(),
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class ArtifactStore:
    """A content-addressed pickle store with atomic writes.

    Readers are lock-free: ``get`` opens the published object file directly
    and treats any read/decode failure as a miss.  Writers are safe under
    concurrency from multiple processes: the payload is staged in a unique
    temp file in the destination directory and published atomically with
    ``os.replace`` — concurrent writers of the same key race benignly (the
    content is identical by construction of the key).
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(os.fspath(root))
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0
        #: Process-local counters for tuned-pipeline entries (keys carrying
        #: :data:`TUNED_KEY_PREFIX`); these are a *subset* of the totals.
        self.tuned_hits = 0
        self.tuned_misses = 0
        self.tuned_writes = 0

    # -- paths ------------------------------------------------------------
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        return os.path.join(self._objects_dir(), key[:2], f"{key}.pkl")

    # -- read/write --------------------------------------------------------
    def get(self, key: str):
        """The stored payload for ``key``, or ``None`` on a miss.

        Corrupt/partial objects count as misses (and are unlinked
        best-effort) rather than surfacing as exceptions.
        """
        path = self.path_for(key)
        tuned = key.startswith(TUNED_KEY_PREFIX)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
                self.tuned_misses += tuned
            return None
        except Exception:
            with self._lock:
                self.misses += 1
                self.tuned_misses += tuned
                self.errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        with self._lock:
            self.hits += 1
            self.tuned_hits += tuned
        return payload

    def put(self, key: str, payload) -> None:
        """Atomically publish ``payload`` under ``key``."""
        path = self.path_for(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        with self._lock:
            self.writes += 1
            self.tuned_writes += key.startswith(TUNED_KEY_PREFIX)

    # -- maintenance -------------------------------------------------------
    def _iter_objects(self) -> Iterable[Tuple[str, os.stat_result]]:
        objects = self._objects_dir()
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    yield path, os.stat(path)
                except OSError:
                    continue

    def stats(self) -> Dict[str, int]:
        """On-disk object count and total bytes plus process-local counters."""
        files = 0
        size = 0
        for _path, st in self._iter_objects():
            files += 1
            size += st.st_size
        return {
            "files": files,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
        }

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict oldest objects until the store holds at most ``max_bytes``.

        Eviction order is ``mtime`` (oldest first): ``os.replace`` stamps a
        fresh mtime on every write, so re-used artifacts that were recently
        re-published survive longer.  Returns a summary of what was removed.
        """
        entries = sorted(self._iter_objects(), key=lambda e: (e[1].st_mtime, e[0]))
        total = sum(st.st_size for _p, st in entries)
        removed_files = 0
        removed_bytes = 0
        for path, st in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= st.st_size
            removed_files += 1
            removed_bytes += st.st_size
        return {
            "removed_files": removed_files,
            "removed_bytes": removed_bytes,
            "kept_files": len(entries) - removed_files,
            "kept_bytes": total,
        }

    def tuned_stats(self) -> Dict[str, int]:
        """Tuned-pipeline cache health: on-disk entries plus local counters.

        Entry enumeration works across processes (tuned keys carry
        :data:`TUNED_KEY_PREFIX`, so their object files are recognisable on
        disk); the hit/miss/write counters are this process's, like every
        other store counter.
        """
        entries = 0
        size = 0
        for path, st in self._iter_objects():
            if os.path.basename(path).startswith(TUNED_KEY_PREFIX):
                entries += 1
                size += st.st_size
        with self._lock:
            return {
                "entries": entries,
                "bytes": size,
                "hits": self.tuned_hits,
                "misses": self.tuned_misses,
                "writes": self.tuned_writes,
            }

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "errors": self.errors,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ArtifactStore {self.root!r}>"


def resolve_store(store) -> Optional[ArtifactStore]:
    """Coerce a ``store=`` argument to an :class:`ArtifactStore` or ``None``.

    ``None`` consults :data:`STORE_ENV_VAR`; ``False`` disables the store
    even when the environment variable is set; a string/path opens a store
    at that root; an :class:`ArtifactStore` passes through.
    """
    if store is False:
        return None
    if store is None:
        root = os.environ.get(STORE_ENV_VAR)
        return ArtifactStore(root) if root else None
    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(os.fspath(store))
