"""Property tests for the .ftrace codec: every trace survives a save and a
load, samples of 2**63 and above never make a trace, and any body, well
formed or not, reads as the line-by-line parser (`tests/trace_oracle.py`)
reads it: a canonical body gives the same samples or the same error, and
any other body exits at the first line that fails the oracle's per-line
`CANONICAL_LINE` check."""

import os
import re
import tempfile

import pytest

import trace_oracle as oracle
from freqscope.trace import MAGIC, FrequencyTrace, TraceFormatError, load_trace, save_trace

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TEXT = st.text(st.one_of(st.sampled_from(",\n\r%#=/ é€\U0001f600"),
                         st.characters(blacklist_categories=("Cs",))), max_size=12)
SAMPLES = st.one_of(st.integers(0, 5_000_000), st.integers(0, 2**63 - 1), st.just(2**63 - 1))
PAST_INT64 = st.one_of(st.integers(2**63, 2**64 + 5), st.just(2**63), st.just(2**64))


@st.composite
def traces(draw):
    return FrequencyTrace(
        samples=draw(st.lists(SAMPLES, min_size=1, max_size=40)),
        interval_ms=draw(st.integers(1, 10**6)),
        device=draw(TEXT),
        label=draw(st.none() | TEXT),
    )


def roundtrip(text: str, load):
    fd, path = tempfile.mkstemp(suffix=".ftrace")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        t = load(path)
    except TraceFormatError as exc:
        assert str(exc).startswith(f"{path}: line {exc.line}: ")
        return ("error", exc.line, str(exc).removeprefix(f"{path}: "))
    finally:
        os.unlink(path)
    return ("trace", t.samples.tolist(), t.interval_ms, t.device, t.label)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(traces())
def test_save_then_load_is_identity(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ftrace")
        save_trace(trace, path)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == oracle.render_trace(trace)
        assert load_trace(path) == trace


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.lists(SAMPLES, max_size=20), PAST_INT64, st.lists(SAMPLES, max_size=20))
def test_samples_past_int64_are_rejected(before, big, after):
    samples = before + [big] + after
    with pytest.raises(ValueError, match=rf"\[0, 2\*\*63\), got {big}$"):
        FrequencyTrace(samples=samples, interval_ms=10)
    body = "".join(f"{i},{s}\n" for i, s in enumerate(samples))
    got = roundtrip(f"{MAGIC}\n#interval_ms=10\n{body}", load_trace)
    if big < 10**19:  # it parses, and the trace refuses it
        assert got[:2] == ("error", 3) and got[2].endswith(f"got {big}")
    else:  # 20 digits are not a spelling of a sample
        assert got[:2] == ("error", 3 + len(before))
        assert f"malformed sample line '{len(before)},{big}'" in got[2]
    assert got == roundtrip(f"{MAGIC}\n#interval_ms=10\n{body}", oracle.load_trace)


# one-line edits a hand-edited or foreign file may carry; they compose
MUTATIONS = {
    "space": lambda line: " " + line.replace(",", " , "),
    "sign": lambda line: "+" + line.replace(",", ",+"),
    "cr": lambda line: line + "\r",
    "underscore": lambda line: re.sub(r"([0-9])([0-9])", r"\1_\2", line, count=1),
    "blank_after": lambda line: line + "\n",
    "no_comma": lambda line: line.replace(",", ""),
    "extra_comma": lambda line: line + ",0",
    "index_gap": lambda line: "1" + line,
    "negative": lambda line: line.replace(",", ",-", 1),
    "overflow": lambda line: line + "9" * 20,
    "zero_pad": lambda line: "0" + line.replace(",", ",0"),
    "drop": lambda line: "",
}


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    traces(),
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(MUTATIONS))), max_size=3),
    st.booleans(),
)
def test_mutated_bodies_read_as_the_line_parser_reads_them(trace, edits, final_newline):
    lines = oracle.render_trace(trace).split("\n")[:-1]
    head = sum(1 for line in lines if line.startswith("#"))
    for at, kind in edits:
        i = head + at % (len(lines) - head)
        lines[i] = MUTATIONS[kind](lines[i])
    text = "\n".join(lines) + ("\n" if final_newline else "")
    assert roundtrip(text, load_trace) == roundtrip(text, oracle.load_trace)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.text(st.sampled_from("0123456789,\n\r +-_#é"), max_size=60))
def test_arbitrary_bodies_read_as_the_line_parser_reads_them(body):
    text = f"{MAGIC}\n#interval_ms=10\n{body}"
    assert roundtrip(text, load_trace) == roundtrip(text, oracle.load_trace)
