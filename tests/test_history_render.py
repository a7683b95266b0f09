"""The history writer's chunked renderer against `json.dumps`.

`harness._float_texts` renders each distinct float64 bit pattern of a chunk
of a run's columns once, and the writer assembles the client list, the
budget objects and the plan and parameter arrays from those texts,
`harness.CHUNK` clients at a time. Every text below must equal what
`json.dumps` gives for the same values, at every width and across chunk
edges.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpflsim.harness as harness
from dpflsim.config import ExperimentConfig

CHUNK = harness.CHUNK


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


def _arrays(**columns) -> dict:
    """Each column written as an array by the chunked renderer."""
    kept = harness._kept_texts(columns)
    return {name: "".join(harness._array(kept[name])) for name in columns}


def _budgets(**columns) -> dict:
    """Each column, named consumed or remaining, written as a budget object
    by the chunked renderer."""
    kept = harness._kept_texts({f"epsilon_{name}": column for name, column in columns.items()})
    return {name: "".join(harness._budget_object(kept[f"epsilon_{name}"]))
            for name in columns}


def _client_list(epsilon, delta, num_samples) -> str:
    chunks = harness._chunk_texts(dict(epsilon=epsilon, delta=delta), {})
    return "".join(harness._client_list(chunks, num_samples))


def test_edge_values_render_as_json_dumps_spells_them():
    # EDGE holds more than CHUNK values, so its array spans two chunks
    shuffled = np.random.default_rng(0).permutation(EDGE)
    assert len(EDGE) > CHUNK
    arrays = _arrays(edge=EDGE, shuffled=shuffled)
    assert arrays["edge"] == _dumps(EDGE)
    assert arrays["shuffled"] == _dumps(shuffled)
    assert _arrays(empty=np.zeros(0))["empty"] == "[]"
    assert _arrays(single=EDGE[:1])["single"] == "[0.0]"
    texts = harness._float_texts(edge=EDGE, empty=np.zeros(0))
    assert texts["edge"][1] == "-0.0" and texts["edge"][0] == "0.0"
    assert texts["empty"] == []
    assert {texts["edge"][i] for i in np.flatnonzero(np.isnan(EDGE))} == {"NaN"}


def test_a_column_renders_alone_as_among_others():
    columns = dict(a=EDGE[::3], b=EDGE[1::3], c=EDGE)
    together = harness._float_texts(**columns)
    for name, values in columns.items():
        assert together[name] == harness._float_texts(**{name: values})[name]
    # in chunks, beside other columns or alone
    columns = dict(a=EDGE, b=EDGE[::-1], epsilon_consumed=-EDGE)
    kept = harness._kept_texts(columns)
    for name, values in columns.items():
        assert kept[name] == harness._kept_texts({name: values})[name]


def _clients_json(epsilon, delta, num_samples) -> str:
    return json.dumps([{"client_id": i, "epsilon": e, "delta": d, "num_samples": s}
                       for i, (e, d, s) in enumerate(zip(epsilon.tolist(), delta.tolist(),
                                                         num_samples.tolist()))],
                      sort_keys=True)


def _budget_json(values) -> str:
    return json.dumps({str(i): v for i, v in enumerate(values.tolist())}, sort_keys=True)


# id widths from one to four digits, and each side of one and two chunk edges
WIDTHS = (1, 2, 9, 10, 11, 100, 101, 1001, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)


def test_client_list_and_budget_objects_match_json_dumps_across_id_widths():
    rng = np.random.default_rng(1)
    for n in WIDTHS:
        epsilon = rng.choice(EDGE, n)
        delta = rng.choice(EDGE, n)
        num_samples = rng.integers(1, 10_000, n)
        assert (_client_list(epsilon, delta, num_samples)
                == _clients_json(epsilon, delta, num_samples)), n
        budgets = _budgets(consumed=epsilon, remaining=delta)
        assert budgets == {"consumed": _budget_json(epsilon),
                           "remaining": _budget_json(delta)}, n
        assert _arrays(a=epsilon, b=delta) == {"a": _dumps(epsilon), "b": _dumps(delta)}, n


def test_render_puts_each_text_in_its_hole():
    obj = {"kind": "summary", "L_smooth": 2.5, "gamma": -0.0, "none": None,
           "counts": [3, 1], "Lambda": math.inf, "zz": "end",
           "M": harness._hole("M"), "nested": {"b": harness._hole("budget"), "a": 1},
           "zzz": harness._hole("zzz")}
    pieces = {"M": ["[1.0", ", NaN]"], "budget": ['{"0": 0.5', ", ", '"10": -0.0}'],
              "zzz": ["null"]}
    expected = {**obj, "M": [1.0, math.nan], "nested": {"b": {"0": 0.5, "10": -0.0}, "a": 1},
                "zzz": None}

    def written(obj, pieces):
        fh = io.StringIO()
        harness._write_line(fh, obj, pieces)
        return fh.getvalue()

    assert written(obj, pieces) == json.dumps(expected, sort_keys=True) + "\n"
    assert written({"a": [1, 2]}, {}) == '{"a": [1, 2]}\n'


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=60),
       st.lists(st.sampled_from(EDGE.tolist()), max_size=60))
def test_any_float_column_renders_as_json_dumps(drawn, repeated):
    values = np.array(drawn + repeated + drawn, dtype=float)
    assert _arrays(values=values)["values"] == _dumps(values)
    assert _budgets(remaining=values)["remaining"] == _budget_json(values)


# a dpfl_bcs run of about three chunks of clients that plans a stage two, so
# every per-client column of the summary is written
WIDE = ExperimentConfig(algorithm="dpfl_bcs", mechanism="gaussian",
                        dataset="synthetic_regression", num_clients=3 * CHUNK + 5,
                        clients_per_round=20, total_rounds=6, estimation_rounds=3,
                        num_samples=60_000, test_samples=100, feature_dim=2, seed=3)


@pytest.fixture(scope="module")
def wide_run():
    problem = harness.build_problem(WIDE)
    return problem, harness.run_single(WIDE, problem=problem)


def test_streamed_history_equals_write_history_across_chunks(tmp_path, wide_run):
    # `dpflsim run` renders the header before the run and the summary's
    # columns after it, while `write_history` renders both in the header's
    # chunks; the bytes must agree
    problem, result = wide_run
    assert result.plan_stage2 is not None and result.estimated_params is not None
    writer = harness.HistoryWriter(tmp_path / "streamed.jsonl", WIDE.algorithm,
                                   harness.settings_from_config(WIDE), problem, WIDE.seed)
    try:
        streamed = harness.run_single(WIDE, problem, on_round=writer.write_round)
        writer.write_summary(streamed)
    finally:
        writer.close()
    harness.write_history(tmp_path / "written.jsonl", result)
    assert ((tmp_path / "streamed.jsonl").read_bytes()
            == (tmp_path / "written.jsonl").read_bytes())


def test_write_history_writes_no_line_whole(tmp_path, monkeypatch, wide_run):
    _, result = wide_run
    longest = []

    class Recording:
        def __init__(self, fh):
            self._fh = fh

        def write(self, text):
            longest.append(len(text))
            return self._fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    monkeypatch.setattr(harness, "open", lambda *args: Recording(open(*args)), raising=False)
    path = tmp_path / "history.jsonl"
    harness.write_history(path, result)
    header, *_, summary = path.read_text().splitlines()
    assert max(longest) <= min(len(header), len(summary)) / 2
