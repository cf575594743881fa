"""The drivers' JSON writer against json.dumps.

``experiments._write_json`` renders its text itself; it must be
``json.dumps(payload, indent=2, sort_keys=True, default=_json_default)``
plus a newline, byte for byte, for any payload json.dumps accepts.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from specnash import experiments
from specnash.experiments import _json_default, _write_json

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, -1e16, 1e-5,
                  1.5e-7, 123456789012345678.0, math.nan, math.inf, -math.inf]
CHARS = st.sampled_from(list('ab"\\/\n\t\r\x00\x1f\x7f é€ 😀'))

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
text = st.text(CHARS, max_size=6) | st.text(max_size=4)
scalars = st.none() | st.booleans() | st.integers() | floats | text
numpy_values = (
    st.builds(np.float64, floats) | st.builds(np.float32, st.floats(width=32))
    | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
    | st.builds(np.bool_, st.booleans())
    | arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
             elements=floats)
    | arrays(np.int64, array_shapes(max_dims=2, max_side=3))
    | arrays(np.bool_, array_shapes(max_dims=2, max_side=3))
)


@st.composite
def float_blocks(draw):
    """Rectangular nested lists of Python floats (the bulk path) or ints."""
    shape = draw(array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4))
    if draw(st.booleans()):
        return draw(arrays(np.float64, shape, elements=floats)).tolist()
    return draw(arrays(np.int64, shape)).tolist()


def containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(text, children, max_size=4)
            | st.dictionaries(st.integers(), children, max_size=3))


values = st.recursive(scalars | numpy_values | float_blocks(), containers, max_leaves=24)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "payload.json"


def expected(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payload=st.dictionaries(text, values, max_size=6) | values)
def test_text_equals_json_dumps(payload, out):
    _write_json(str(out), payload)
    assert out.read_text() == expected(payload)


@pytest.mark.parametrize("payload", [
    {}, [], [[]], [[], []], [[1.0], []], [[1.0, 2.0], [3.0]], [[1.0, 2], [3.0, 4.0]],
    [[True, False]], [1.0, None], [[[1.0]], [2.0]], (1.0, 2.0), {"a": ()},
    {"k": [[math.nan, math.inf], [-math.inf, -0.0]]}, {"é\"\\\n": {"": [5e-324]}},
    {"a": np.arange(6.0).reshape(2, 3), "b": np.float64(0.1), "c": np.int64(-3)},
    {1: "int key", 2: [1.5]}, [1, 2.5, "x"],
])
def test_edge_payloads(payload, out):
    _write_json(str(out), payload)
    assert out.read_text() == expected(payload)


def test_driver_payloads(monkeypatch, tmp_path):
    """Every payload the drivers write, with its numpy values and tuples."""
    seen = []
    write = experiments._write_json

    def checked(path, payload):
        write(path, payload)
        assert Path(path).read_text() == expected(payload)
        seen.append(payload)

    monkeypatch.setattr(experiments, "_write_json", checked)
    ratio = {"Q": 2, "N": 4, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0, "channel_order": 2,
             "d_ratio": 2.0}
    taps = [[[[1.0, 0.0], [0.9, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
            [[[0.5, 0.0], [0.0, 0.0]], [[1.0, 0.0], [-0.9, 0.0]]]]
    raw = {"taps": taps, "d": [[1.0, 1.0], [1.0, 1.0]], "gamma": 2.5, "P": [10.0, 10.0],
           "sigma2": [1.0, 1.0], "Gamma": [1.0, 1.0], "N": 2,
           "pmax_bar": [[None, 30.0], [5.0, None]]}
    out = str(tmp_path / "out")
    experiments.run_psd({"scenario": raw, "check_rule": True}, out)
    experiments.run_psd({"seed": 1, "scenario": dict(ratio, Q=3, N=16)}, out)
    experiments.run_uniqueness_mc({"seed": 2, "trials": 2, "scenario": ratio,
                                   "d_ratio_sweep": [1.0, 4.0]}, out)
    for mode in ("virtual_interferer", "all"):
        experiments.run_check_uniqueness({"seed": 3, "Dq_mode": mode, "scenario": raw}, out)
    experiments.run_rate_region({"seed": 4, "resolution": 5, "splits": 2,
                                 "scenario": dict(ratio, N=2, channel_order=1)}, out)
    experiments.run_verify_theorem1({"seed": 5, "instances": 1, "samples": 50,
                                     "scenario": ratio}, out)
    assert len(seen) == 7
