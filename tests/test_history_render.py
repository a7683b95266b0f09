"""The history writer's column renderer against `json.dumps`.

`harness._float_texts` renders each distinct float64 bit pattern of a run's
columns once, and the writer assembles the client list, the budget objects
and the plan and parameter arrays from those texts. Every text below must
equal what `json.dumps` gives for the same values.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dpflsim.harness as harness


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# -0.0 beside 0.0, subnormals, the values where repr switches between fixed
# and exponent notation (1e16, 1e-5) and their neighbours, NaNs with either
# sign and another payload, both infinities, and long runs of one value
EDGE = np.concatenate([
    [0.0, -0.0, 0.0, -0.0],
    _bits(1, 2, 0x000FFFFFFFFFFFFF, 0x8000000000000001),
    [5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0)],
    _neighbours(1e16), _neighbours(-1e16), _neighbours(1e-5), _neighbours(-1e-5),
    _neighbours(1e15), _neighbours(1e-4), _neighbours(1.0),
    [np.nan, -np.nan, np.inf, -np.inf],
    _bits(0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001),
    [0.1, 0.2, 0.30000000000000004, 1 / 3, 2.0 ** 52, 2.0 ** 53 + 2, 1.7976931348623157e308],
    np.full(500, 0.05), np.full(300, -0.0), np.full(200, np.nan),
])


def _dumps(values) -> str:
    return json.dumps(np.asarray(values, dtype=float).tolist())


def test_edge_values_render_as_json_dumps_spells_them():
    shuffled = np.random.default_rng(0).permutation(EDGE)
    texts = harness._float_texts(edge=EDGE, shuffled=shuffled, empty=np.zeros(0),
                                 single=EDGE[:1])
    assert harness._array(texts["edge"]) == _dumps(EDGE)
    assert harness._array(texts["shuffled"]) == _dumps(shuffled)
    assert harness._array(texts["empty"]) == "[]"
    assert harness._array(texts["single"]) == "[0.0]"
    assert texts["edge"][1] == "-0.0" and texts["edge"][0] == "0.0"
    assert {texts["edge"][i] for i in np.flatnonzero(np.isnan(EDGE))} == {"NaN"}


def test_a_column_renders_alone_as_among_others():
    columns = dict(a=EDGE[::3], b=EDGE[1::3], c=EDGE)
    together = harness._float_texts(**columns)
    for name, values in columns.items():
        assert together[name] == harness._float_texts(**{name: values})[name]


def _clients_json(epsilon, delta, num_samples) -> str:
    return json.dumps([{"client_id": i, "epsilon": e, "delta": d, "num_samples": s}
                       for i, (e, d, s) in enumerate(zip(epsilon.tolist(), delta.tolist(),
                                                         num_samples.tolist()))],
                      sort_keys=True)


def _budget_json(values) -> str:
    return json.dumps({str(i): v for i, v in enumerate(values.tolist())}, sort_keys=True)


def test_client_list_and_budget_objects_match_json_dumps_across_id_widths():
    rng = np.random.default_rng(1)
    for n in (1, 2, 9, 10, 11, 100, 101, 1001):
        epsilon = rng.choice(EDGE, n)
        delta = rng.choice(EDGE, n)
        num_samples = rng.integers(1, 10_000, n)
        texts = harness._float_texts(epsilon=epsilon, delta=delta)
        assert (harness._client_list(texts["epsilon"], texts["delta"], num_samples)
                == _clients_json(epsilon, delta, num_samples))
        assert harness._budget_object(texts["epsilon"]) == _budget_json(epsilon)


def test_render_puts_each_text_in_its_hole():
    obj = {"kind": "summary", "L_smooth": 2.5, "gamma": -0.0, "none": None,
           "counts": [3, 1], "Lambda": math.inf, "zz": "end",
           "M": harness._hole("M"), "nested": {"b": harness._hole("budget"), "a": 1},
           "zzz": harness._hole("zzz")}
    texts = {"M": "[1.0, NaN]", "budget": '{"0": 0.5, "10": -0.0}', "zzz": "null"}
    expected = {**obj, "M": [1.0, math.nan], "nested": {"b": {"0": 0.5, "10": -0.0}, "a": 1},
                "zzz": None}
    assert harness._render(obj, texts) == json.dumps(expected, sort_keys=True)
    assert harness._render({"a": [1, 2]}, {}) == '{"a": [1, 2]}'


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=60),
       st.lists(st.sampled_from(EDGE.tolist()), max_size=60))
def test_any_float_column_renders_as_json_dumps(drawn, repeated):
    values = np.array(drawn + repeated + drawn, dtype=float)
    texts = harness._float_texts(values=values)
    assert harness._array(texts["values"]) == _dumps(values)
    assert harness._budget_object(texts["values"]) == _budget_json(values)
