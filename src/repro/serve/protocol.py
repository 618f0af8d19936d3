"""Newline-framed wire protocol for the ingestion front-end.

One tuple per line, two accepted shapes:

* **JSON object** — ``{"v": [430, 212, 317], "s": "bike", "t": 1754650000.1}``
  where ``v`` is the tuple's value list (required), ``s`` an optional
  source/stream name, and ``t`` an optional sender-side epoch timestamp
  (``time.time()``) used to measure arrival skew.
* **Bare CSV** — ``430,212,317`` — values only, attributed to the
  connection's default source. This is the lowest-friction path: a
  Citi-Bike CSV row can be piped at the socket with ``nc`` alone.

Arrival timestamps are **always assigned server-side** on arrival (the
paper's monitor measures queueing delay from arrival at the node, and a
client-supplied clock can't be trusted); ``t`` only feeds the skew
gauge, never the control loop.

A well-framed line is a tuple whatever its values: a CSV field that is
not a number stays a string, and a tuple may carry fewer values than the
query reads. Operators treat such a value as SQL treats NULL — a
threshold filter reading a missing or non-numeric field does not pass
the tuple — so a short or non-numeric tuple is admitted, counted and
filtered out, never an error inside the control loop.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Tuple

from ..errors import ServeError

#: hard cap on one framed line; longer lines are malformed by definition
#: (protects the server from an unframed or hostile client)
MAX_LINE_BYTES = 64 * 1024


def encode_tuple(values: Tuple, source: Optional[str] = None,
                 sent: Optional[float] = None) -> bytes:
    """Frame one tuple as a JSON line (trailing newline included)."""
    doc = {"v": list(values)}
    if source is not None:
        doc["s"] = source
    if sent is not None:
        doc["t"] = sent
    return json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n"


def _csv_values(text: str) -> Tuple:
    values = []
    for field in text.split(","):
        field = field.strip()
        try:
            values.append(int(field))
        except ValueError:
            try:
                values.append(float(field))
            except ValueError:
                values.append(field)
    return tuple(values)


#: source name of a tuple whose frame names none (every bare CSV line);
#: a live service's pins-only routing table pins it to shard 0
DEFAULT_SOURCE = "live"


def decode_line(line: bytes, default_source: str = DEFAULT_SOURCE,
                ) -> Tuple[Tuple, str, Optional[float]]:
    """Parse one framed line into ``(values, source, sent_epoch)``.

    Raises :class:`~repro.errors.ServeError` on malformed input (caller
    counts it and keeps the connection alive — one bad line must not
    drop a client).
    """
    if len(line) > MAX_LINE_BYTES:
        raise ServeError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        text = line.decode("utf-8", errors="strict").strip() \
            if isinstance(line, bytes) else str(line).strip()
    except UnicodeDecodeError as exc:
        raise ServeError(f"frame is not valid UTF-8: {exc}") from exc
    if not text:
        raise ServeError("empty line")
    if text[0] == "{":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: brackets nested deeper than the parser's stack
            raise ServeError(f"bad JSON frame: {exc}") from exc
        if not isinstance(doc, dict) or "v" not in doc:
            raise ServeError("JSON frame must be an object with a 'v' list")
        values = doc["v"]
        if not isinstance(values, list):
            raise ServeError("'v' must be a list")
        source = doc.get("s", default_source)
        if not isinstance(source, str) or not source:
            raise ServeError("'s' must be a non-empty string")
        sent = doc.get("t")
        if sent is not None:
            # NaN, ±Infinity (json.loads accepts them) and booleans would
            # poison the skew gauges and the /status JSON they feed
            try:
                finite = not isinstance(sent, bool) and math.isfinite(sent)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise ServeError(
                    "'t' must be a finite number (epoch seconds)")
            sent = float(sent)
        return tuple(values), source, sent
    return _csv_values(text), default_source, None
