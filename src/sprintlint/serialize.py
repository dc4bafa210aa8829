"""Canonical JSON, input file reading and timestamp formatting helpers.

All JSON output in this package is the text `canonical_json` gives (the
export line writers in `ingest` build that text straight from the records),
so that identical runs produce byte-identical files. Every input file is
read through `read_text` or `read_json`, and every output file is written
through `write_text`, which takes either a string or its pieces and leaves
the encoding to a UTF-8 text file, a string a slice at a time, so a large
document can be written without being held whole as bytes, or as text when
it comes in pieces. `object_pieces` and `array_pieces` give those pieces for
a JSON object or array, each member or item turned to text only when its
turn comes; `array_pieces`, the one writer of a JSON array from values,
encodes `batch` items to a call, as many as the caller that knows their size
chooses, each batch first put through the caller's `dump` when its piece is
asked for. Both CSV writers, the stats export and the trend CSV, quote a
field through `csv_field`.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

from .errors import ParseError


# one encoder for every call: json.dumps with these arguments builds a new one each time
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(value: object) -> str:
    """Serialize with sorted keys and no incidental whitespace."""
    return _CANONICAL.encode(value)


def object_pieces(members: Mapping[str, Iterable[str]]) -> Iterator[str]:
    """`canonical_json` of an object, in pieces; each member's value is given as the pieces of its JSON."""
    yield "{"
    for position, key in enumerate(sorted(members)):
        yield f"{',' if position else ''}{canonical_json(key)}:"
        yield from members[key]
    yield "}"


def array_pieces(values: Iterable[object], batch: int = 1, dump: Callable[[list], list] = list) -> Iterator[str]:
    """`canonical_json(dump(list(values)))` in pieces: one per `batch` items, each but the first led by its comma."""
    items = iter(values)
    comma = ""
    yield "["
    while chunk := list(islice(items, batch)):
        yield comma + canonical_json(dump(chunk))[1:-1]
        comma = ","
    yield "]"


def read_text(path: str | Path) -> str:
    """Read a UTF-8 file, its line breaks as they are; an unreadable or undecodable one is a ParseError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


# the most characters of a string encoded at once (64 Ki, at most 256 KiB of
# UTF-8), and the bytes a file buffers before it writes
SLICE = 1 << 16


def text_slices(text: str | Iterable[str]) -> Iterable[str]:
    """`text`, a string or the pieces of one in order, as pieces: a string is cut into `SLICE`-character slices."""
    if isinstance(text, str):
        return (text[start:start + SLICE] for start in range(0, len(text), SLICE))
    return text


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write `text`, a string or the pieces of one in order, to `path` as UTF-8, whole or not at all.

    The `text_slices` of `text` go in turn to a temporary file beside `path`,
    opened as UTF-8 text with a buffer of `SLICE` bytes: the file encodes
    each piece as it is written and joins small ones into few writes, so only
    a slice of a string is held as bytes. The temporary file then replaces
    `path`. A failed write, a piece that cannot be made or encoded included,
    leaves an earlier file at `path` as it was and no temporary file behind.
    A path that names something other than a regular file (a device, a pipe,
    a symbolic link) is written through instead, after every piece is encoded.
    """
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        path.write_bytes(b"".join(piece.encode("utf-8") for piece in text_slices(text)))
        return
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8", newline="", buffering=SLICE) as out:
            out.writelines(text_slices(text))
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp) and exc.filename2 is None:
            # name the file the caller asked for, not the temporary
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


# a field holding one of these is quoted: the delimiter, the quote character
# and both line breaks, CR included, which a reader takes for a line break
_CSV_SPECIAL = frozenset(',"\r\n')


def csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, its quotes doubled, when it holds a comma, a quote, CR or LF; else as it is."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


# the start of a JSON escape from \uD800 to \uDFFF, its hex digits in either case
_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")


def check_unicode(text: str, value: object) -> None:
    """Raise ValueError if `value`, decoded from the JSON `text`, holds a lone surrogate.

    Decoded UTF-8 never holds a surrogate; only a JSON escape from \\uD800 to
    \\uDFFF can make one, so text without such an escape is not walked.
    """
    if not _SURROGATE_ESCAPE.search(text):
        return
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(exc.object[exc.start])
        raise ValueError(f"lone surrogate \\u{code:04x} is not valid Unicode text") from None


def decode_json(text: str) -> object:
    """`json.loads(text)`, but an integer past the interpreter's digit limit raises a ValueError worded the same
    under every Python version, not the interpreter's own advice to call `sys.set_int_max_str_digits`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the one other ValueError `json.loads` raises, whatever its text
        raise ValueError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


def read_json(path: str | Path) -> object:
    """Read one UTF-8 JSON document; any failure to read or decode it is a ParseError."""
    text = read_text(path)
    try:
        value = decode_json(text)
        check_unicode(text, value)
    # ValueError covers JSONDecodeError, integers over the digit limit and
    # lone surrogates; RecursionError, documents nested too deeply for the decoder
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return value


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
        # the message quotes the text as given, not as rewritten
        reason = str(exc).replace(repr(raw), repr(text))
        raise ParseError(f"{what} is not valid ISO-8601: {text!r} ({reason})") from None
    if parsed.tzinfo is None:
        raise ParseError(f"{what} lacks a timezone offset: {text!r}")
    # an aware datetime's timestamp() applies its offset exactly
    moment = parsed.timestamp()
    if not FIRST_TS <= moment < END_TS:
        reason = ""
        if moment == END_TS and parsed <= datetime.max.replace(tzinfo=timezone.utc):
            # an instant in the last microseconds of year 9999 rounds up to END_TS as a float
            reason = " (in year 9999, but it rounds up to 10000-01-01T00:00:00Z as epoch seconds)"
        raise ParseError(f"{what} is out of range (years 1 to 9999 in UTC): {text!r}{reason}")
    return moment


def format_iso_utc(ts: float) -> str:
    """Render UTC epoch seconds as ISO-8601 with a Z suffix, with microseconds only when there are any."""
    # isoformat writes microseconds only when there are any, and "+00:00" as its last six characters
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()[:-6] + "Z"
