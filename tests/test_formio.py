import json
import os

import numpy as np
import pytest

import quadboson as qb
from quadboson import formio
from quadboson.errors import BadRange, ParseError

from conftest import bcs, random_form


def test_roundtrip(tmp_path, rng):
    form = random_form(rng, 3)
    path = tmp_path / "form.json"
    qb.save_form(form, path)
    loaded = qb.load_form(path)
    assert loaded.n_modes == 3
    assert np.abs(loaded.A - form.A).max() == 0.0
    assert np.abs(loaded.B - form.B).max() == 0.0


def test_digest_is_stable(tmp_path, rng):
    form = random_form(rng, 2)
    path = tmp_path / "form.json"
    qb.save_form(form, path)
    assert qb.form_digest(path) == qb.form_digest(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ParseError):
        qb.load_form(path)


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        qb.load_form(path)


def test_rejects_nan_entries():
    doc = '{"n_modes": 1, "A": [[[NaN, 0.0]]], "B": [[[0.0, 0.0]]]}'
    with pytest.raises(ParseError):
        qb.loads_form(doc)


def test_rejects_infinity_entries():
    doc = '{"n_modes": 1, "A": [[[Infinity, 0.0]]], "B": [[[0.0, 0.0]]]}'
    with pytest.raises(ParseError):
        qb.loads_form(doc)


@pytest.mark.parametrize("doc", [
    '{"A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]}',          # missing n_modes
    '{"n_modes": 0, "A": [], "B": []}',                     # zero modes
    '{"n_modes": 2, "A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]}',  # wrong row count
    '{"n_modes": 1, "A": [[[1.0]]], "B": [[[0.0, 0.0]]]}',  # entry not a pair
    '{"n_modes": 1, "A": [[["x", 0.0]]], "B": [[[0.0, 0.0]]]}',  # non-numeric
    '[1, 2, 3]',                                            # not an object
])
def test_schema_violations(doc):
    with pytest.raises(ParseError):
        qb.loads_form(doc)


def test_parse_error_carries_field_context():
    doc = '{"n_modes": 1, "A": [[[1.0, 0.0]]], "B": [[["y", 0.0]]]}'
    with pytest.raises(ParseError, match=r"B\[0\]\[0\]"):
        qb.loads_form(doc)


@pytest.mark.parametrize("entry", ["[1e999, 0.0]", '["1.0", 0.0]',
                                   pytest.param("[1%s, 0]" % ("0" * 400), id="1e400-int")])
def test_rejects_overflow_and_string_entries_with_context(entry):
    doc = '{"n_modes": 1, "A": [[%s]], "B": [[[0.0, 0.0]]]}' % entry
    with pytest.raises(ParseError, match=r"A\[0\]\[0\]"):
        qb.loads_form(doc)


def test_integer_entries_load_like_their_float_twins():
    a = [[[2, 0], [1, -1]], [[1, 1], [3, 0]]]
    b = [[[0, 0], [1, 2]], [[1, 2], [0, 0]]]

    def doc(cast):
        return json.dumps({"n_modes": 2,
                           "A": [[[cast(x) for x in e] for e in row] for row in a],
                           "B": [[[cast(x) for x in e] for e in row] for row in b]})

    ints, floats = qb.loads_form(doc(int)), qb.loads_form(doc(float))
    assert ints.A.tobytes() == floats.A.tobytes()
    assert ints.B.tobytes() == floats.B.tobytes()


def _read_through_pipe(data: bytes):
    """read_form of ``data`` fed through a pipe, as ``cat form.json |`` feeds ``/dev/stdin``."""
    read_end, write_end = os.pipe()
    os.write(write_end, data)  # far below the pipe's capacity
    os.close(write_end)
    try:
        return formio.read_form(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def test_a_piped_form_is_bounded_by_the_bytes_read(tmp_path, monkeypatch):
    path = tmp_path / "form.json"
    qb.save_form(qb.bcs_form(bcs(0.5)), path)
    data = path.read_bytes()
    # a pipe has no size to check up front; it reads like the file it carries
    form, digest = _read_through_pipe(data)
    want_form, want_digest = formio.read_form(path)
    assert digest == want_digest
    assert form.A.tobytes() == want_form.A.tobytes() and form.B.tobytes() == want_form.B.tobytes()
    # a budget below the parse of those bytes refuses them by path and through a pipe
    monkeypatch.setattr(formio, "MEMORY_BUDGET", len(data) * formio.PARSE_BYTES_PER_FILE_BYTE - 1)
    with pytest.raises(BadRange, match="budget"):
        formio.read_form(path)
    with pytest.raises(BadRange, match="budget"):
        _read_through_pipe(data)
