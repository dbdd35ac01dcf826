"""On-disk, content-keyed result cache for experiment runs.

Every simulation in this library is a pure function of its point —
an :class:`~repro.core.ExperimentConfig` or a
:class:`~repro.microbench.CollectivePoint` (runs are deterministic per
seed) — so a result can be cached forever under a stable hash of the
point.  The big win is quiet baselines: a scaling sweep recomputes one
quiet run per machine size, and those sizes repeat across sweeps, CLI
invocations, and the E1–E20 harness — with a cache they are simulated
once ever per library version.

Key scheme
----------
:func:`config_key` canonicalises the config into a nested structure of
primitives (dataclasses become ``(qualified name, sorted fields)``,
dicts are sorted by key, sets are sorted, floats go through ``repr``
so the key survives JSON round-trips) and hashes the JSON encoding
with SHA-256.  The current :data:`repro.__version__` is mixed into
every key and also names the cache subdirectory, so bumping the
library version invalidates the whole cache without deleting anything.

Storage is one pickle file per result under
``<root>/v<version>/<key[:2]>/<key>.pkl``: 256 prefix shards, so hot
shared caches (the experiment server's above all) never scan or
``readdir`` one directory with hundreds of thousands of files.  Writes
go through a temp file created inside the target shard +
``os.replace``, so concurrent workers, servers and CLI runs sharing a
root never observe a torn entry; unreadable entries count as misses
and are removed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
import typing as _t
from pathlib import Path

from .. import __version__

__all__ = ["MISS", "CacheStats", "ResultCache", "config_key",
           "config_token"]

#: Orphaned ``*.tmp`` files older than this are swept opportunistically
#: (a worker killed between ``mkstemp`` and ``os.replace`` leaves them
#: behind; anything this stale can never be replaced into place).
TMP_MAX_AGE_S = 3600.0


class _Miss:
    """Sentinel type for a cache miss (distinct from any cached value,
    including a legitimately cached ``None``)."""

    _instance: "_Miss | None" = None

    def __new__(cls) -> "_Miss":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cache MISS>"


#: The miss sentinel: ``cache.get(cfg, MISS) is MISS`` is the reliable
#: miss test (``None`` is a perfectly cacheable value).
MISS = _Miss()


def config_token(obj: _t.Any) -> _t.Any:
    """Canonicalise ``obj`` into a JSON-encodable, order-stable token."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() is the shortest round-trippable form — stable across
        # processes and unaffected by JSON float formatting.
        return ("float", repr(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: config_token(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return (type(obj).__qualname__, sorted(fields.items()))
    if isinstance(obj, dict):
        # Sort by the JSON encoding of the *typed* key token and keep
        # the token in the payload — keying by str(k) would collapse
        # {1: x} and {"1": x} onto one cache key (the set-token
        # collision PR 2 fixed, in dict form).
        items = [(config_token(k), config_token(v))
                 for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], separators=(",", ":"),
                                             sort_keys=True))
        return ("dict", items)
    if isinstance(obj, (list, tuple)):
        return ("seq", [config_token(v) for v in obj])
    if isinstance(obj, (set, frozenset)):
        # Sort by the JSON encoding (type-aware: 1 -> "1", "1" -> '"1"')
        # and keep the tokens themselves — sorting/keying by str() would
        # collapse {1} and {"1"} onto one cache key.
        members = [config_token(v) for v in obj]
        members.sort(key=lambda t: json.dumps(t, separators=(",", ":"),
                                              sort_keys=True))
        return ("set", members)
    text = repr(obj)
    if " at 0x" in text:  # default object repr leaks the address
        state = getattr(obj, "__dict__", None)
        if state is not None:
            return (type(obj).__qualname__, config_token(state))
        raise TypeError(
            f"cannot build a stable cache key for {type(obj).__qualname__}: "
            "repr() is address-based and the object has no __dict__")
    return (type(obj).__qualname__, text)


def config_key(config: _t.Any, *, salt: str = "") -> str:
    """Stable SHA-256 hex key for an experiment config."""
    payload = json.dumps([salt, config_token(config)],
                         separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


class ResultCache:
    """Pickle-per-entry result cache rooted at a directory.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  Entries live in
        prefix shards of a per-version subdirectory.
    version:
        Version salt; defaults to :data:`repro.__version__`.  Bumping
        it orphans (but does not delete) all prior entries.
    """

    def __init__(self, root: str | os.PathLike[str],
                 *, version: str = __version__,
                 tmp_max_age_s: float = TMP_MAX_AGE_S) -> None:
        self.root = Path(root)
        self.version = version
        self.stats = CacheStats()
        self.tmp_max_age_s = tmp_max_age_s
        if self._dir.is_dir():
            self.sweep_stale_tmp()

    @property
    def _dir(self) -> Path:
        return self.root / f"v{self.version}"

    def sweep_stale_tmp(self, max_age_s: float | None = None) -> int:
        """Remove orphaned ``*.tmp`` litter older than ``max_age_s``.

        A worker killed between ``mkstemp`` and ``os.replace`` leaves a
        temp file that no code path ever revisits; long-lived shared
        caches would otherwise grow them without bound.  The sweep is
        age-gated so in-flight writes by concurrent processes are never
        touched.  Returns the number of files removed.
        """
        if max_age_s is None:
            max_age_s = self.tmp_max_age_s
        removed = 0
        if not self._dir.is_dir():
            return removed
        cutoff = time.time() - max_age_s
        for p in self._dir.rglob("*.tmp"):
            try:
                if p.stat().st_mtime < cutoff:
                    p.unlink()
                    removed += 1
            except OSError:
                continue  # raced with a concurrent writer/sweeper
        return removed

    def key(self, config: _t.Any) -> str:
        return config_key(config, salt=self.version)

    def _path(self, config: _t.Any) -> Path:
        key = self.key(config)
        return self._dir / key[:2] / f"{key}.pkl"

    def get(self, config: _t.Any, default: _t.Any = None) -> _t.Any:
        """The cached result for ``config``, or ``default`` on a miss.

        Pass :data:`MISS` as the default to distinguish a miss from a
        cached ``None``/falsy value (as
        :meth:`~repro.parallel.SweepExecutor.submit` does).
        """
        path = self._path(config)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            self.stats.misses += 1
            return default
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            # Torn/corrupt/stale entry: treat as a miss and drop it.
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        return value

    def put(self, config: _t.Any, value: _t.Any) -> None:
        """Store ``value`` under ``config``'s key (atomic replace)."""
        path = self._path(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def __len__(self) -> int:
        if not self._dir.is_dir():
            return 0
        return sum(1 for _ in self._dir.rglob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry for this version; returns the count.

        Also sweeps orphaned stale ``*.tmp`` files (age-gated) so a
        cleared cache directory really is empty of litter.
        """
        removed = 0
        if self._dir.is_dir():
            for p in list(self._dir.rglob("*.pkl")):
                p.unlink(missing_ok=True)
                removed += 1
            self.sweep_stale_tmp()
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self._dir} entries={len(self)} "
                f"hits={self.stats.hits} misses={self.stats.misses}>")


#: Former name of the sharded layout, now the only one; kept so code
#: that imports it (``perfbench/layers.py``) still resolves.
ShardedResultCache = ResultCache
