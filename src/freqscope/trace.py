"""Frequency traces and the .ftrace on-disk format.

A trace is a fixed-interval series of integer kHz readings plus metadata.
The file format is line oriented so labels are percent-encoded:

    #ftrace v1
    #interval_ms=10
    #device=comet_lake
    #label=facebook.com
    0,800000
    1,1600000

Header lines start with '#'; body lines are `index,freq_khz` in ASCII
digits, indices counting from 0. Files are UTF-8 with LF endings and are
written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import chain
from urllib.parse import quote, unquote

import numpy as np

MAGIC = "#ftrace v1"

_HEADER_KEYS = ("interval_ms", "device", "label")

_INT64_MAX = 2**63 - 1

# `index,freq_khz` lines of ASCII digits, LF-terminated; 19 digits always fit uint64
_CANONICAL_BODY = re.compile(r"(?:[0-9]{1,19},[0-9]{1,19}\n)+")


class TraceFormatError(ValueError):
    """Raised for malformed trace and report files and data files not UTF-8;
    names the file, then the offending `line` and the `problem`, both kept."""

    def __init__(self, path: str | os.PathLike, line: int, problem: str):
        super().__init__(f"{os.fspath(path)}: line {line}: {problem}")
        self.line, self.problem = line, problem


@dataclass
class FrequencyTrace:
    """`samples` is a read-only 1-d int64 array that the trace owns; any
    1-d sequence of integers in [0, 2**63) may be passed in."""

    samples: np.ndarray
    interval_ms: int
    device: str = "unknown"
    label: str | None = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples)
        if samples.ndim != 1:
            raise ValueError("samples must be a 1-d sequence")
        if not len(samples):
            raise ValueError("trace needs at least one sample")
        if self.interval_ms < 1:
            raise ValueError("interval_ms must be >= 1")
        if samples.dtype.kind not in "iu" or not isinstance(self.samples, np.ndarray):
            # numpy reads a bool among ints as an int and mixed numpy integer
            # types as floats, so all but integer arrays are judged value by value
            for v in self.samples:
                if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                        or not 0 <= v <= _INT64_MAX):
                    raise ValueError(f"samples must be integers in [0, 2**63), got {v}")
            samples = np.array(self.samples, dtype=np.int64)
        # signed values can only fall below 0, unsigned ones only past int64
        worst = samples.max() if samples.dtype.kind == "u" else samples.min()
        if worst < 0 or worst > _INT64_MAX:
            raise ValueError(f"samples must be integers in [0, 2**63), got {worst}")
        self.samples = samples.astype(np.int64)  # always a copy: no caller can write into it
        self.samples.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencyTrace):
            return NotImplemented
        return (np.array_equal(self.samples, other.samples)
                and (self.interval_ms, self.device, self.label)
                == (other.interval_ms, other.device, other.label))

    def __len__(self) -> int:
        return len(self.samples)


def encode_label(label: str) -> str:
    """Percent-encode so commas, newlines and separators survive the format,
    and `.` and `..` become `%2E` and `%2E%2E`, which no directory walk follows."""
    text = quote(label, safe="")
    return text.replace(".", "%2E") if text in (".", "..") else text


def decode_label(text: str) -> str:
    return unquote(text)


@cache
def _file_mode() -> int:
    """0o666 less the umask, which can only be read by setting it."""
    umask = os.umask(0o022)
    os.umask(umask)
    return 0o666 & ~umask


@contextmanager
def atomic_writer(path: str | os.PathLike, *, overwrite: bool = True):
    """Text handle on a temp file beside `path` that becomes `path` only
    when the block completes; on any error `path` is untouched and the temp
    file is removed. With overwrite=False an existing `path` is left alone
    (FileExistsError). The file gets the mode the umask gives new files,
    not mkstemp's 0600."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fd, _file_mode())
            yield fh
        (os.replace if overwrite else os.link)(tmp, path)  # a link never replaces path
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_trace(trace: FrequencyTrace, path: str | os.PathLike, *, overwrite: bool = True) -> None:
    """Write a trace atomically; an existing file is replaced in one step,
    or, with overwrite=False, left alone (FileExistsError)."""
    lines = [MAGIC, f"#interval_ms={trace.interval_ms}", f"#device={encode_label(trace.device)}"]
    if trace.label is not None:
        lines.append(f"#label={encode_label(trace.label)}")
    # one format pass for the whole body; %s renders an int as str() does
    pairs = chain.from_iterable(enumerate(trace.samples.tolist()))
    body = "%s,%s\n" * len(trace.samples) % tuple(pairs)
    with atomic_writer(path, overwrite=overwrite) as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(body)


def read_utf8(path: str | os.PathLike) -> str:
    """A data file's text; a byte that is not UTF-8 is a TraceFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(path, data.count(b"\n", 0, exc.start) + 1,
                               f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}") from None


def load_trace(path: str | os.PathLike) -> FrequencyTrace:
    """Parse a .ftrace file; inverse of save_trace. The body must be spelled
    as save_trace writes it; an error names the file and its first bad line."""
    raw = read_utf8(path)

    body_at = 0  # the header is every '#' line at the top of the file
    while raw.startswith("#", body_at):
        end = raw.find("\n", body_at)
        body_at = len(raw) if end < 0 else end + 1
    lines = raw[:body_at].split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise TraceFormatError(path, 1, f"missing magic header {MAGIC!r}")

    header: dict[str, str] = {}
    for n, line in enumerate(lines[1:], start=2):
        key, sep, value = line[1:].partition("=")
        if not sep:
            raise TraceFormatError(path, n, f"malformed header line {line!r}")
        if key not in _HEADER_KEYS:
            raise TraceFormatError(path, n, f"unknown header key {key!r}")
        if key in header:
            raise TraceFormatError(path, n, f"duplicate header key {key!r}")
        header[key] = value

    if "interval_ms" not in header:
        raise TraceFormatError(path, 1, "header lacks interval_ms")
    interval = header["interval_ms"]
    if not (interval.isascii() and interval.isdigit()):
        raise TraceFormatError(path, 1, f"interval_ms is not an integer: {interval!r}")

    body = raw[body_at:]
    if not body:
        raise TraceFormatError(path, len(lines), "empty body")
    body_start = len(lines) + 1
    canonical = _CANONICAL_BODY.match(body)
    end = canonical.end() if canonical else 0
    if end < len(body):
        bad = body[end:].partition("\n")[0]
        raise TraceFormatError(path, body_start + body.count("\n", 0, end),
                               f"malformed sample line {bad!r} (want index,freq_khz:"
                               " 1-19 ASCII digits each, LF-terminated)")
    pairs = np.fromstring(body.replace("\n", ","), dtype=np.uint64, sep=",").reshape(-1, 2)
    out_of_sequence = np.flatnonzero(pairs[:, 0] != np.arange(len(pairs), dtype=np.uint64))
    if len(out_of_sequence):
        k = int(out_of_sequence[0])
        raise TraceFormatError(path, body_start + k,
                               f"sample index {pairs[k, 0]} out of sequence (expected {k})")

    try:
        return FrequencyTrace(
            samples=pairs[:, 1],
            interval_ms=int(interval),
            device=decode_label(header.get("device", "unknown")),
            label=decode_label(header["label"]) if "label" in header else None,
        )
    except ValueError as exc:
        raise TraceFormatError(path, body_start, str(exc)) from None
