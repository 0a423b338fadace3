"""Form-file serialization.

A form file is a single JSON document:

    {
      "n_modes": 2,
      "A": [[[re, im], ...], ...],   # n x n, entries as [re, im] pairs
      "B": [[[re, im], ...], ...]
    }

NaN/Inf entries are rejected at parse time.  ``form_digest`` hashes the raw
bytes so reports can pin the exact input they were computed from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat

import numpy as np

from .core import DEFAULT_TOL_STRUCT, MEMORY_BUDGET, QuadraticForm, build_form
from .errors import BadRange, ParseError

# Peak bytes of reading and parsing a form file per byte of the file (the
# bytes, the decoded text, the JSON lists and the arrays): tracemalloc
# measures 5.0-5.1 for files of 0.5 to 4.4 MB; rounded up.
PARSE_BYTES_PER_FILE_BYTE = 6


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed in a form file")


def _entry_to_complex(entry, field: str, i: int, j: int) -> complex:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)):
        raise ParseError(f"{field}[{i}][{j}] must be a [re, im] pair, got {entry!r}")
    try:
        re, im = float(entry[0]), float(entry[1])
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(f"{field}[{i}][{j}] is too large for a float") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"{field}[{i}][{j}] contains a non-finite value")
    return complex(re, im)


def _parse_matrix(doc: dict, field: str, n: int, boolean_free: bool) -> np.ndarray:
    """The n x n complex matrix of ``doc[field]``.  One ``np.array`` call reads
    well-formed numeric rows; it would read a JSON boolean as 0 or 1, so it
    is taken only for a ``boolean_free`` document."""
    rows = doc.get(field)
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"field {field!r} must be a list of {n} rows")
    try:
        pairs = np.array(rows) if boolean_free else None
    except ValueError:  # ragged rows
        pairs = None
    if (pairs is not None and pairs.shape == (n, n, 2) and pairs.dtype.kind in "iuf"
            and np.isfinite(pairs).all()):
        mat = np.empty((n, n), dtype=complex)
        mat.real, mat.imag = pairs[..., 0], pairs[..., 1]
        return mat
    # anything else (booleans, huge integers, malformed entries) takes the
    # per-entry walk, which also words the error
    mat = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{field}[{i}] must be a list of {n} [re, im] pairs")
        for j, entry in enumerate(row):
            mat[i, j] = _entry_to_complex(entry, field, i, j)
    return mat


def loads_form(text: str, tol_struct: float = DEFAULT_TOL_STRUCT) -> QuadraticForm:
    """Parse a form document from a string.  See module docstring for schema."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    n = doc.get("n_modes")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"field 'n_modes' must be a positive integer, got {n!r}")
    # neither letter occurs in the keys or numbers of a valid document, and
    # scanning for them costs far less than for "true" and "false"
    boolean_free = "t" not in text and "f" not in text
    a = _parse_matrix(doc, "A", n, boolean_free)
    b = _parse_matrix(doc, "B", n, boolean_free)
    return build_form(a, b, tol_struct=tol_struct)


def _check_parse_budget(size: int, path):
    need = size * PARSE_BYTES_PER_FILE_BYTE
    if need > MEMORY_BUDGET:
        raise BadRange(f"parsing form file {path} needs about {need:.3g} B, "
                       f"above the {MEMORY_BUDGET} B budget")


def read_form(path, tol_struct: float = DEFAULT_TOL_STRUCT) -> tuple[QuadraticForm, str]:
    """Read and validate a form file: the form and the :func:`form_digest` of the bytes parsed.

    Raises
    ------
    BadRange
        Parsing the file would need more than ``MEMORY_BUDGET`` bytes,
        checked from its size before it is read, or for a pipe from the
        bytes read before more are.
    """
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                _check_parse_budget(info.st_size, path)
                raw = fh.read()
            else:  # a pipe has no size up front: count its bytes as they come
                raw = bytearray()
                while chunk := fh.read(1 << 16):
                    raw += chunk
                    _check_parse_budget(len(raw), path)
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # as text mode reads
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read form file: {exc}") from None
    if not text.strip():
        raise ParseError(f"{path}: file is empty")
    try:
        return loads_form(text, tol_struct=tol_struct), hashlib.sha256(raw).hexdigest()
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_form(path, tol_struct: float = DEFAULT_TOL_STRUCT) -> QuadraticForm:
    """Read and validate a form file."""
    return read_form(path, tol_struct)[0]


def dumps_form(form: QuadraticForm) -> str:
    """Serialize a form to the canonical JSON document."""
    def pairs(mat):
        return [[[float(v.real), float(v.imag)] for v in row] for row in mat]

    doc = {"n_modes": form.n_modes, "A": pairs(form.A), "B": pairs(form.B)}
    return json.dumps(doc, indent=1, sort_keys=True)


def save_form(form: QuadraticForm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_form(form) + "\n")


def form_digest(path) -> str:
    """sha256 hex digest of the raw file bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
