"""On-disk arrival-trace cache.

Materializing a rate trace into concrete arrivals
(:func:`~repro.workloads.arrivals.arrivals_from_trace`) is deterministic in
``(trace values, period, source, n_fields, poisson, seed)`` — yet every
process-pool worker used to regenerate the same list from the config seed,
once per job. :func:`cached_arrivals_from_trace` keys the materialized list
by a hash of exactly those inputs and memoizes it on disk, so a sweep's
workers generate each distinct workload once and then just unpickle it.

Control knob (environment, read per call so tests can monkeypatch):

``REPRO_TRACE_CACHE``
    unset — cache under ``$XDG_CACHE_HOME/repro/traces`` (defaulting to
    ``~/.cache/repro/traces``); ``0``/``off``/``no``/``false`` (any case)
    — disable caching entirely; anything else — use that directory.

Writes are atomic (temp file + ``os.replace``) so concurrent workers can
race on the same key safely. Each entry is the sha256 digest of its pickle
followed by the pickle itself; an entry that fails the digest or fails to
unpickle is regenerated and rewritten, so a damaged file can neither crash
a run nor swap its workload. Tiny traces (fewer than
:data:`CACHE_MIN_TUPLES` expected tuples) skip the cache — the pickle
round-trip would cost more than the generation it saves.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import List, Optional

from ..obs.logconf import get_logger
from .arrivals import Arrival, arrivals_from_trace
from .trace import RateTrace

_log = get_logger("workloads")

#: cache entries below this expected tuple count are not worth the disk IO
CACHE_MIN_TUPLES = 5000

#: bump when the arrival-generation algorithm or entry format changes
_FORMAT_VERSION = 2

#: an entry starts with the sha256 digest of the pickle that follows it
_DIGEST_BYTES = hashlib.sha256().digest_size

_ENV_VAR = "REPRO_TRACE_CACHE"
_OFF_VALUES = {"0", "off", "no", "false"}


def trace_cache_dir() -> Optional[Path]:
    """The active cache directory, or ``None`` when caching is disabled."""
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        if raw.strip().lower() in _OFF_VALUES or not raw.strip():
            return None
        return Path(raw).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro" / "traces"


def trace_cache_key(trace: RateTrace, source: str, n_fields: int,
                    poisson: bool, seed: Optional[int]) -> str:
    """Hex digest identifying one materialized arrival list."""
    h = hashlib.sha256()
    h.update(f"v{_FORMAT_VERSION}|{trace.period!r}|{source}|{n_fields}|"
             f"{int(poisson)}|{seed!r}|".encode())
    for v in trace.values:
        h.update(repr(v).encode())
        h.update(b",")
    return h.hexdigest()


def cached_arrivals_from_trace(trace: RateTrace,
                               source: str = "src",
                               n_fields: int = 4,
                               poisson: bool = False,
                               seed: Optional[int] = None) -> List[Arrival]:
    """Drop-in cached variant of :func:`arrivals_from_trace`.

    Returns the identical arrival list (cache hits are byte-equal pickles
    of what generation would produce); falls back to direct generation
    when the cache is disabled, the trace is small, or the entry is
    missing or damaged.
    """
    cache_dir = trace_cache_dir()
    if cache_dir is None or trace.total_tuples() < CACHE_MIN_TUPLES:
        return arrivals_from_trace(trace, source=source, n_fields=n_fields,
                                   poisson=poisson, seed=seed)
    key = trace_cache_key(trace, source, n_fields, poisson, seed)
    path = cache_dir / f"{key}.pkl"
    try:
        entry = path.read_bytes()
        payload = entry[_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() == entry[:_DIGEST_BYTES]:
            arrivals = pickle.loads(payload)
            _log.debug("trace cache hit %s (%d arrivals)", key[:12],
                       len(arrivals))
            return arrivals
    except Exception:
        pass  # a miss, or an entry pickle cannot read
    # regenerate, and repair a damaged entry
    arrivals = arrivals_from_trace(trace, source=source, n_fields=n_fields,
                                   poisson=poisson, seed=seed)
    _log.debug("trace cache miss %s: materialized %d arrivals",
               key[:12], len(arrivals))
    _write_atomic(path, arrivals)
    return arrivals


def _write_atomic(path: Path, arrivals: List[Arrival]) -> None:
    """Best-effort atomic publish; caching never fails the caller."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            payload = pickle.dumps(arrivals, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass
