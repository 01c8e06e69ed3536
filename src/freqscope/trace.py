"""Frequency traces and the .ftrace on-disk format.

A trace is a fixed-interval series of integer kHz readings plus metadata.
The file format is line oriented so labels are percent-encoded:

    #ftrace v1
    #interval_ms=10
    #device=comet_lake
    #label=facebook.com
    0,800000
    1,1600000

Header lines start with '#'; body lines are `index,freq_khz`. Files are
UTF-8 with LF endings and are written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from urllib.parse import quote, unquote

import numpy as np

MAGIC = "#ftrace v1"

_HEADER_KEYS = ("interval_ms", "device", "label", "start_index")

_INT64_MAX = 2**63 - 1

# `index,freq_khz` lines of ASCII digits, LF-terminated; 18 digits always fit int64
_CANONICAL_BODY = re.compile(r"(?:[0-9]{1,18},[0-9]{1,18}\n)+")


class TraceFormatError(ValueError):
    """Raised for malformed trace files; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class FrequencyTrace:
    """`samples` is a read-only 1-d int64 array that the trace owns; any
    1-d sequence of integers in [0, 2**63) may be passed in."""

    samples: np.ndarray
    interval_ms: int
    device: str = "unknown"
    label: str | None = None
    start_index: int = 0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples)
        if samples.ndim != 1:
            raise ValueError("samples must be a 1-d sequence")
        if not len(samples):
            raise ValueError("trace needs at least one sample")
        if self.interval_ms < 1:
            raise ValueError("interval_ms must be >= 1")
        if self.start_index < 0:
            raise ValueError("start_index must be >= 0")
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
                and (self.interval_ms, self.device, self.label, self.start_index)
                == (other.interval_ms, other.device, other.label, other.start_index))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_ms(self) -> int:
        return len(self.samples) * self.interval_ms


def encode_label(label: str) -> str:
    """Percent-encode so commas, newlines and separators survive the format."""
    return quote(label, safe="")


def decode_label(text: str) -> str:
    return unquote(text)


@contextmanager
def atomic_writer(path: str | os.PathLike, *, overwrite: bool = True):
    """Text handle on a temp file beside `path` that becomes `path` only
    when the block completes; on any error `path` is untouched and the temp
    file is removed. With overwrite=False an existing `path` is left alone
    (FileExistsError)."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
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
    if trace.start_index:
        lines.append(f"#start_index={trace.start_index}")
    # one format pass for the whole body; %s renders an int as str() does.
    # Indices stay Python ints: start_index is not bounded by int64
    pairs = chain.from_iterable(enumerate(trace.samples.tolist(), start=trace.start_index))
    body = "%s,%s\n" * len(trace.samples) % tuple(pairs)
    with atomic_writer(path, overwrite=overwrite) as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(body)


def load_trace(path: str | os.PathLike) -> FrequencyTrace:
    """Parse a .ftrace file; inverse of save_trace.

    A canonical body, as save_trace writes it, is parsed in bulk; any other
    body goes through the line parser, which also names the first bad line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()

    body_at = 0  # the header is every '#' line at the top of the file
    while raw.startswith("#", body_at):
        end = raw.find("\n", body_at)
        body_at = len(raw) if end < 0 else end + 1
    lines = raw[:body_at].split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise TraceFormatError(1, f"missing magic header {MAGIC!r}")

    header: dict[str, str] = {}
    for n, line in enumerate(lines[1:], start=2):
        key, sep, value = line[1:].partition("=")
        if not sep:
            raise TraceFormatError(n, f"malformed header line {line!r}")
        if key not in _HEADER_KEYS:
            raise TraceFormatError(n, f"unknown header key {key!r}")
        if key in header:
            raise TraceFormatError(n, f"duplicate header key {key!r}")
        header[key] = value

    if "interval_ms" not in header:
        raise TraceFormatError(1, "header lacks interval_ms")
    try:
        interval = int(header["interval_ms"])
    except ValueError:
        raise TraceFormatError(1, f"interval_ms is not an integer: {header['interval_ms']!r}") from None
    try:
        start_index = int(header.get("start_index", "0"))
    except ValueError:
        raise TraceFormatError(1, f"start_index is not an integer: {header['start_index']!r}") from None

    body = raw[body_at:]
    if not body:
        raise TraceFormatError(len(lines), "empty body")
    body_start = len(lines) + 1
    samples = _bulk_samples(body, start_index)
    if samples is None:
        samples = _parse_lines(body, body_start, start_index)

    try:
        return FrequencyTrace(
            samples=samples,
            interval_ms=interval,
            device=decode_label(header.get("device", "unknown")),
            label=decode_label(header["label"]) if "label" in header else None,
            start_index=start_index,
        )
    except ValueError as exc:
        raise TraceFormatError(body_start, str(exc)) from None


def _bulk_samples(body: str, start_index: int) -> np.ndarray | None:
    """The samples of a canonical body whose indices count up from
    start_index, converted in one numpy call; None for any other body."""
    if not _CANONICAL_BODY.fullmatch(body):
        return None
    pairs = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",").reshape(-1, 2)
    # the first test also keeps arange inside int64
    if pairs[0, 0] != start_index or not np.array_equal(
        pairs[:, 0], np.arange(start_index, start_index + len(pairs))
    ):
        return None
    return pairs[:, 1]


def _parse_lines(body: str, body_start: int, start_index: int) -> list[int]:
    """Line by line, for bodies the bulk path refuses: takes every spelling
    int() accepts (signs, spaces, '_', a trailing CR) and raises
    TraceFormatError naming the first bad line. Values outside [0, 2**63)
    are left for FrequencyTrace to reject."""
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    samples: list[int] = []
    expected = start_index
    for n, line in enumerate(lines, start=body_start):
        idx_text, sep, freq_text = line.partition(",")
        if not sep:
            raise TraceFormatError(n, f"body line lacks comma separator: {line!r}")
        try:
            idx = int(idx_text)
            freq = int(freq_text)
        except ValueError:
            raise TraceFormatError(n, f"non-numeric sample line: {line!r}") from None
        if idx != expected:
            raise TraceFormatError(n, f"sample index {idx} out of sequence (expected {expected})")
        samples.append(freq)
        expected += 1
    return samples
