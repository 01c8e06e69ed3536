"""The bulk .ftrace codec and the streamed model writer and reader against
the line-by-line, json.dump and json.loads implementations they replaced
(`tests/trace_oracle.py`): bytes written, samples, documents and errors read."""

import json

import numpy as np
import pytest

import trace_oracle as oracle
from freqscope.classify import (
    TrainedModel,
    _read_model_json,
    load_model,
    save_model,
    train_forest_model,
    train_knn_model,
)
from freqscope.dataset import LabeledDataset
from freqscope.forest import ForestParams
from freqscope.knn import KnnModel
from freqscope.profiles import get_profile
from freqscope.trace import FrequencyTrace, TraceFormatError, load_trace, save_trace
from helpers import traced_peak

TRACES = {
    "plain": FrequencyTrace(samples=[800_000, 1_600_000, 3_700_000], interval_ms=10),
    "labelled": FrequencyTrace(samples=[1, 0, 2], interval_ms=20, device="ryzen5",
                               label="news, site/front\npage 100% élève"),
    "device_odd": FrequencyTrace(samples=[5], interval_ms=1, device="a,b%c\n=d é"),
    "int64_max": FrequencyTrace(samples=[0, 2**63 - 1], interval_ms=10),
    "long": FrequencyTrace(samples=list(range(0, 3_000_000, 1_000)), interval_ms=10, label=""),
}


@pytest.mark.parametrize("case", sorted(TRACES))
def test_save_trace_writes_the_oracle_bytes(tmp_path, case):
    trace = TRACES[case]
    path = tmp_path / "t.ftrace"
    save_trace(trace, path)
    assert path.read_bytes() == oracle.render_trace(trace).encode("utf-8")
    assert load_trace(path) == trace


HEAD = "#ftrace v1\n#interval_ms=10\n"

FILES = {  # case: file text; only the "canonical" cases load
    "canonical": HEAD + "0,100\n1,200\n2,300\n",
    "canonical_leading_zeros": HEAD + "00,0100\n01,0\n",
    "canonical_18_digits": HEAD + "0,999999999999999999\n",
    "canonical_19_digits": HEAD + "0,9223372036854775807\n1,1000000000000000000\n",
    # indices count from 0: `#start_index=` is an unknown key, whatever its value
    "start_index_header": HEAD + "#start_index=0\n0,1\n",
    "start_index_mismatch": HEAD + "#start_index=5\n0,1\n1,2\n",
    "start_index_negative": HEAD + "#start_index=-1\n-1,5\n0,6\n",
    "start_index_huge": HEAD + "#start_index=99999999999999999999\n99999999999999999999,1\n",
    "start_index_not_int": HEAD + "#start_index=x\n0,1\n",
    "no_final_newline": HEAD + "0,100\n1,200",
    "crlf": HEAD + "0,100\r\n1,200\r\n",
    "spaces": HEAD + " 0, 100\n1 ,200 \n",
    "signs": HEAD + "+0,+100\n-1,5\n",
    "minus_zero_index": HEAD + "-0,5\n",
    "underscore": HEAD + "0,1_000\n1,2_0\n",
    "unicode_digits": HEAD + "0,١٢٣\n",
    "19_digits": HEAD + "0,9223372036854775807\n1,9223372036854775808\n",
    "overflow": HEAD + "0,99999999999999999999999\n",
    "blank_line": HEAD + "0,100\n\n1,200\n",
    "trailing_blank_line": HEAD + "0,100\n\n",
    "only_newline": HEAD + "\n",
    "missing_comma": HEAD + "0,100\n1200\n",
    "extra_comma": HEAD + "0,100,5\n",
    "empty_fields": HEAD + "0,\n",
    "index_gap": HEAD + "0,100\n2,200\n",
    "index_repeat": HEAD + "0,100\n0,200\n",
    "wrong_first_index": HEAD + "1,100\n",
    "negative_sample": HEAD + "0,100\n1,-5\n",
    "float_sample": HEAD + "0,1e3\n",
    "hash_after_body": HEAD + "0,100\n#device=x\n",
    "empty_body": HEAD,
    "empty_body_no_newline": "#ftrace v1\n#interval_ms=10",
    "empty_file": "",
    "bad_magic": "#ftrace v2\n#interval_ms=10\n0,1\n",
    "magic_crlf": "#ftrace v1\r\n#interval_ms=10\r\n0,1\r\n",
    "no_interval": "#ftrace v1\n#device=sim\n0,1\n",
    "interval_not_int": "#ftrace v1\n#interval_ms=ten\n0,1\n",
    "interval_space": "#ftrace v1\n#interval_ms= 10\n0,1\n",
    "interval_sign": "#ftrace v1\n#interval_ms=+10\n0,1\n",
    "interval_underscore": "#ftrace v1\n#interval_ms=1_0\n0,1\n",
    "interval_unicode_digits": "#ftrace v1\n#interval_ms=١٠\n0,1\n",
    "interval_zero": "#ftrace v1\n#interval_ms=0\n0,1\n",
    "unknown_key": HEAD + "#color=red\n0,1\n",
    "duplicate_key": HEAD + "#interval_ms=20\n0,1\n",
    "malformed_header": HEAD + "#device\n0,1\n",
    "five_header_lines": HEAD + "#device=a\n#label=b\n#label=c\n0,1\n",
}


def outcome(load, path):
    try:
        t = load(path)
    except TraceFormatError as exc:
        return ("error", exc.line, str(exc))
    return ("trace", t.samples.tolist(), t.interval_ms, t.device, t.label)


@pytest.mark.parametrize("case", sorted(FILES))
def test_load_trace_matches_the_line_parser(tmp_path, case):
    path = tmp_path / "t.ftrace"
    path.write_bytes(FILES[case].encode("utf-8"))
    got = outcome(load_trace, path)
    assert got == outcome(oracle.load_trace, path)
    assert (got[0] == "trace") == case.startswith("canonical")


WANT = " (want index,freq_khz: 1-19 ASCII digits each, LF-terminated)"

ERRORS = {  # case: (line, message) of the error, after the file's path
    "19_digits": (3, "samples must be integers in [0, 2**63), got 9223372036854775808"),
    "overflow": (3, "malformed sample line '0,99999999999999999999999'" + WANT),
    "crlf": (3, "malformed sample line '0,100\\r'" + WANT),
    "no_final_newline": (4, "malformed sample line '1,200'" + WANT),
    "hash_after_body": (4, "malformed sample line '#device=x'" + WANT),
    "index_gap": (4, "sample index 2 out of sequence (expected 1)"),
    "start_index_header": (3, "unknown header key 'start_index'"),
    "interval_space": (1, "interval_ms is not an integer: ' 10'"),
    "interval_sign": (1, "interval_ms is not an integer: '+10'"),
    "interval_underscore": (1, "interval_ms is not an integer: '1_0'"),
    "interval_unicode_digits": (1, "interval_ms is not an integer: '١٠'"),
}


def assert_error(path, case):
    path.write_bytes(FILES[case].encode("utf-8"))
    line, message = ERRORS[case]
    assert outcome(load_trace, path) == ("error", line, f"{path}: line {line}: {message}")


@pytest.mark.parametrize("case", ["19_digits", "overflow"])
def test_samples_past_int64_are_a_format_error(tmp_path, case):
    # 19 digits parse and then fail the trace's range; 20 or more are no spelling
    assert_error(tmp_path / "t.ftrace", case)


@pytest.mark.parametrize("case", sorted(set(ERRORS) - {"19_digits", "overflow"}))
def test_load_trace_names_the_file_and_the_first_bad_line(tmp_path, case):
    assert_error(tmp_path / "t.ftrace", case)


def _knn_with_odd_floats():
    x = np.array([[0.1, 1e300, -0.0], [np.nan, np.inf, -np.inf], [1 / 3, 5e-324, 2.0]])
    return TrainedModel(classifier=KnnModel(k=2, train_x=x, train_labels=["a", "b", "a"]),
                        normalization="none", feature_length=3,
                        metadata={"note": 'é "q"', "ints": {2: [1, 2.5], 1: None}, "z": {"b": 1, "a": 0}})


def _trained(kind):
    pstates = get_profile("ryzen5").pstates
    rng = np.random.default_rng(3)
    ds = LabeledDataset(
        {label: np.array([rng.choice(pstates, 40).tolist() for _ in range(6)], dtype=np.int64)
         for label in ("a", "b", "c")},
        {label: ["ryzen5"] * 6 for label in ("a", "b", "c")}, 10)
    if kind == "knn":
        return train_knn_model(ds, k=3, normalization="minmax_per_profile",
                               metadata={"split": {"train": 0.8}, "seed": 4})
    return train_forest_model(ds, ForestParams(n_trees=5, seed=2), metadata={"b": 1, "a": 2})


MODELS = {"knn": lambda: _trained("knn"), "forest": lambda: _trained("forest"),
          "knn_odd_floats": _knn_with_odd_floats}


@pytest.mark.parametrize("case", sorted(MODELS))
def test_save_model_writes_the_json_dump_bytes(tmp_path, case):
    model = MODELS[case]()
    save_model(model, tmp_path / "new.json")
    oracle.save_model(model, tmp_path / "old.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def assert_same_doc(got, want):
    """got is want, with the classifier's train_x as the same float64 matrix
    and every other value of the same type, value and key order."""
    got_x, want_x = (doc["classifier"].pop("train_x", None) for doc in (got, want))
    if want_x is not None:
        got_x = np.asarray(got_x, dtype=np.float64)
        assert (got_x.shape, got_x.tobytes()) == (want_x.shape, want_x.tobytes())
    assert json.dumps(got) == json.dumps(want)


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    return [_reversed_keys(v) for v in value] if isinstance(value, list) else value


def test_read_model_json_matches_json_loads(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    models = {case: make() for case, make in MODELS.items()}
    # a train_x key outside the top-level classifier decodes as plain lists
    models["train_x_in_metadata"] = MODELS["knn"]()
    models["train_x_in_metadata"].metadata = {"train_x": [[1, 2]], "classifier": {"train_x": [3]}}
    texts = {}
    for case, model in models.items():
        save_model(model, tmp_path / "m.json")
        texts[case] = (tmp_path / "m.json").read_text()

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(case=st.sampled_from(sorted(texts)),
                      indent=st.sampled_from([None, 0, 1, "\t", " \r\n"]),
                      item_sep=st.sampled_from([",", ", ", " ,\n"]),
                      key_sep=st.sampled_from([":", ": ", "\t: "]),
                      reverse=st.booleans(), pad=st.sampled_from(["", " ", "\n\t"]))
    def check(case, indent, item_sep, key_sep, reverse, pad):
        doc = json.loads(texts[case])
        text = pad + json.dumps(_reversed_keys(doc) if reverse else doc, indent=indent,
                                separators=(item_sep, key_sep)) + pad
        got = _read_model_json(text)
        if "train_x" in got["classifier"]:
            assert type(got["classifier"]["train_x"]) is np.ndarray  # streamed, not lists
        assert_same_doc(got, oracle.load_model_doc(text))

    check()


ODD_MODEL_TEXTS = {  # case: a document json.loads accepts that freqscope never writes
    "duplicate_keys": '{"classifier": {"train_x": [[1]], "k": 1}, "classifier":'
                      ' {"train_x": [[2, 3]], "k": 2, "train_x": [[4.5, NaN]]}, "k": 1, "k": [2]}',
    "empty_containers": '{"classifier": {"train_x": [[], []], "trees": [{}]}, "metadata": {}}',
    "train_x_not_a_list": '{"classifier": {"train_x": 5, "x": {"train_x": [[1]]}}}',
    "train_x_at_the_top": '{"train_x": [[1, 2]], "classifier": {"k": {"train_x": [[3]]}}}',
    "escaped_keys": '{"classifier": {"train\\u005fx": [[1e400, -0.0]]}, "\\u00e9": "\\ud83d\\ude00"}',
}


@pytest.mark.parametrize("case", sorted(ODD_MODEL_TEXTS))
def test_read_model_json_reads_odd_documents_as_json_loads(case):
    text = ODD_MODEL_TEXTS[case]
    assert_same_doc(_read_model_json(text), oracle.load_model_doc(text))


def test_load_model_peak_stays_near_the_text_and_the_matrix(tmp_path):
    """A KNN model of the bench's fingerprint shape, 480 x 1000 P-states in
    kHz (a 4.8 MB file). The rows are read into one buffer that becomes the
    matrix, so the peak is the file's bytes and its text while it is read
    (9.6 MB), or the text and the matrix, plus 1 MiB: a 10.7 MB bound. A
    reader that stacks row arrays holds the matrix twice (12.7 MB), and a
    json.loads reader first builds the 480k values as Python floats in nested
    lists (24.5 MB)."""
    x = np.random.default_rng(0).choice(get_profile("ryzen5").pstates, (480, 1000)).astype(float)
    model = TrainedModel(normalization="none", feature_length=1000,
                         classifier=KnnModel(k=4, train_x=x,
                                             train_labels=[f"site{i % 20:02d}" for i in range(480)]))
    path = tmp_path / "knn.json"
    save_model(model, path)
    loaded, peak = traced_peak(lambda: load_model(path))
    assert loaded.classifier.train_x.tobytes() == x.tobytes()
    size = path.stat().st_size
    assert peak < max(2 * size, size + x.nbytes) + (1 << 20)
