"""Fuzz the spec parser: any JSON file gets exit 0, 1 or 2, never a traceback."""

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fililoop.cli import main  # noqa: E402

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=12)

COEFFS = st.from_regex(r"[+-]?\d{1,3}(/\d{1,2})?", fullmatch=True) | JSON_VALUES

# Mostly well-formed specs, so the fuzzing reaches the deeper parse paths.
SPEC_LIKE = st.fixed_dictionaries(
    {"n": st.integers(-1, 4) | JSON_VALUES,
     "v": st.lists(st.lists(COEFFS, max_size=4) | JSON_VALUES, max_size=4) | JSON_VALUES})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES | SPEC_LIKE)
def test_validate_any_json_exits_cleanly(data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert json.loads(out.getvalue())["result"]["proper"] is (code == 0)
