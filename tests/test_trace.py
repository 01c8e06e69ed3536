"""Trace container and the .ftrace file format."""

import os

import numpy as np
import pytest

from freqscope.trace import (
    FrequencyTrace,
    TraceFormatError,
    decode_label,
    encode_label,
    load_trace,
    save_trace,
)


def make_trace(**kw):
    defaults = dict(samples=[1_400_000, 1_500_000, 1_600_000], interval_ms=10)
    defaults.update(kw)
    return FrequencyTrace(**defaults)


def test_trace_validation():
    with pytest.raises(ValueError):
        FrequencyTrace(samples=[], interval_ms=10)
    with pytest.raises(ValueError):
        FrequencyTrace(samples=[100, -5], interval_ms=10)
    with pytest.raises(ValueError):
        FrequencyTrace(samples=[100.5], interval_ms=10)
    with pytest.raises(ValueError):
        FrequencyTrace(samples=[100], interval_ms=0)


def test_length():
    assert len(make_trace()) == 3


def test_roundtrip(tmp_path):
    t = make_trace(device="ryzen5", label="news site/front page", start_index=7)
    path = tmp_path / "a.ftrace"
    save_trace(t, path)
    back = load_trace(path)
    assert back.samples.tolist() == t.samples.tolist()
    assert back.interval_ms == t.interval_ms
    assert back.device == t.device
    assert back.label == t.label
    assert back.start_index == t.start_index


def test_file_shape(tmp_path):
    t = make_trace(device="sim", label="a b")
    path = tmp_path / "t.ftrace"
    save_trace(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "#ftrace v1"
    assert "#interval_ms=10" in lines
    assert "#label=a%20b" in lines
    assert lines[-1] == "2,1600000"


def test_save_is_atomic(tmp_path):
    # no partial file left behind when the target dir holds the temp file
    t = make_trace()
    path = tmp_path / "out.ftrace"
    save_trace(t, path)
    save_trace(make_trace(samples=[1, 2, 3]), path)  # overwrite in place
    assert load_trace(path).samples.tolist() == [1, 2, 3]
    leftovers = [f for f in os.listdir(tmp_path) if not f.endswith(".ftrace")]
    assert leftovers == []


def test_label_encoding_roundtrip():
    for label in ("plain", "with space", "a/b", "100%", "élève", "="):
        assert decode_label(encode_label(label)) == label
    assert "/" not in encode_label("a/b")


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v2\n#interval_ms=10\n0,100\n")
    with pytest.raises(TraceFormatError, match="magic"):
        load_trace(p)


def test_load_rejects_unknown_header(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v1\n#interval_ms=10\n#color=red\n0,100\n")
    with pytest.raises(TraceFormatError, match="color"):
        load_trace(p)


def test_load_rejects_duplicate_header(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v1\n#interval_ms=10\n#interval_ms=20\n0,100\n")
    with pytest.raises(TraceFormatError, match="duplicate"):
        load_trace(p)


def test_load_requires_interval(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v1\n#device=sim\n0,100\n")
    with pytest.raises(TraceFormatError, match="interval_ms"):
        load_trace(p)


def test_load_rejects_nonsequential_index(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v1\n#interval_ms=10\n0,100\n2,200\n")
    with pytest.raises(TraceFormatError, match="index"):
        load_trace(p)


def test_load_respects_start_index(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v1\n#interval_ms=10\n#start_index=5\n5,100\n6,200\n")
    t = load_trace(p)
    assert t.start_index == 5
    assert t.samples.tolist() == [100, 200]


def test_load_rejects_garbage_row(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v1\n#interval_ms=10\n0,100\nbanana\n")
    with pytest.raises(TraceFormatError) as err:
        load_trace(p)
    assert err.value.line == 4


def test_load_rejects_empty_body(tmp_path):
    p = tmp_path / "x.ftrace"
    p.write_text("#ftrace v1\n#interval_ms=10\n")
    with pytest.raises(TraceFormatError):
        load_trace(p)


@pytest.mark.parametrize("bad", [
    [1.5], [100.0, 200.0], [True, False], [100, -5], [2**63], [0, 2**63 - 1, 2**63, 10**30],
    [None], ["100"],
])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_samples_outside_int64_or_not_integers_are_rejected(bad, as_array):
    samples = np.array(bad) if as_array else bad
    with pytest.raises(ValueError, match=r"samples must be integers in \[0, 2\*\*63\)"):
        FrequencyTrace(samples=samples, interval_ms=10)


def test_a_bool_among_integers_is_rejected():
    # as an array it would be the integers [1400000, 1]: only a list shows the bool
    with pytest.raises(ValueError, match=r"samples must be integers in \[0, 2\*\*63\), got True$"):
        FrequencyTrace(samples=[1_400_000, True], interval_ms=10)


@pytest.mark.parametrize("samples", [
    [0, 1_400_000, 2**63 - 1],
    np.array([0, 1_400_000, 2**63 - 1]),
    np.array([5, 6], dtype=np.uint64),
    np.array([5, 6], dtype=np.int32),
    range(3),
    [np.uint64(5), np.int64(3)],  # numpy alone would read these as floats
])
def test_samples_become_a_read_only_int64_array(samples):
    t = FrequencyTrace(samples=samples, interval_ms=10)
    assert t.samples.dtype == np.int64 and t.samples.ndim == 1
    assert t.samples.tolist() == [int(s) for s in samples]
    with pytest.raises(ValueError, match="read-only"):
        t.samples[0] = 1


def test_trace_owns_its_samples():
    source = np.array([1, 2, 3])
    t = FrequencyTrace(samples=source, interval_ms=10)
    source[0] = 99
    assert t.samples.tolist() == [1, 2, 3]
    assert source.flags.writeable


def test_samples_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-d"):
        FrequencyTrace(samples=[[1, 2]], interval_ms=10)
    with pytest.raises(ValueError, match="1-d"):
        FrequencyTrace(samples=5, interval_ms=10)


def test_trace_equality_compares_samples_exactly():
    t = make_trace()
    assert t == make_trace(samples=np.array(t.samples))
    assert t != make_trace(samples=[1_400_000, 1_500_000, 1_600_001])
    assert t != make_trace(samples=[1_400_000, 1_500_000])
    assert t != make_trace(label="x")
