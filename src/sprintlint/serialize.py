"""Canonical JSON, input file reading and timestamp formatting helpers.

All serialized output in this package goes through `canonical_json` so that
identical runs produce byte-identical files, and every input file is read
through `read_text` or `read_json`.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from .errors import ParseError


def canonical_json(value: object) -> str:
    """Serialize with sorted keys and no incidental whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def read_text(path: str | Path) -> str:
    """Read a UTF-8 file; an unreadable or undecodable one is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def read_json(path: str | Path) -> object:
    """Read one UTF-8 JSON document; any failure to read or decode it is a ParseError."""
    text = read_text(path)
    try:
        return json.loads(text)
    # ValueError covers JSONDecodeError and integers over the digit limit;
    # RecursionError, documents nested too deeply for the decoder
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


# The instants `format_iso_utc` can write back: from 0001-01-01T00:00:00Z up
# to, but not including, 10000-01-01T00:00:00Z (later instants of year 9999
# round up to it as floats).
FIRST_TS = -62135596800.0
END_TS = 253402300800.0


def parse_iso_utc(text: str, what: str = "timestamp") -> float:
    """Parse an ISO-8601 timestamp with explicit offset into UTC epoch seconds.

    Only instants that `format_iso_utc` can write back are accepted.
    """
    if not isinstance(text, str) or not text:
        raise ParseError(f"{what} must be an ISO-8601 string, got {text!r}")
    # replaced by hand: fromisoformat reads a "Z" suffix only from Python 3.11
    raw = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ParseError(f"{what} is not valid ISO-8601: {text!r} ({exc})") from None
    if parsed.tzinfo is None:
        raise ParseError(f"{what} lacks a timezone offset: {text!r}")
    # an aware datetime's timestamp() applies its offset exactly
    moment = parsed.timestamp()
    if not FIRST_TS <= moment < END_TS:
        raise ParseError(f"{what} is out of range (years 1 to 9999 in UTC): {text!r}")
    return moment


def format_iso_utc(ts: float) -> str:
    """Render UTC epoch seconds as ISO-8601 with a Z suffix."""
    moment = datetime.fromtimestamp(ts, tz=timezone.utc)
    spec = "microseconds" if moment.microsecond else "seconds"
    return moment.isoformat(timespec=spec).replace("+00:00", "Z")
