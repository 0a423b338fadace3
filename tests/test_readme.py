"""The README's Python examples run against the package as it is."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert blocks, "README has no python block"
    for code in blocks:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(code, str(README), "exec"), {})
        assert out.getvalue()
