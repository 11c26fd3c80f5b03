"""The README's library quickstart runs and prints what the README says.

The ``python`` blocks under "Library quickstart" run in order in one
namespace.  Their stdout must be the lines of the plain block that
follows the first of them, then each line a later block gives as a
``# `` comment of what it prints.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_blocks() -> list[tuple[str, str]]:
    """(language, body) of each fenced block under "Library quickstart"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```(\w*)\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_quickstart_prints_what_it_shows():
    blocks = quickstart_blocks()
    code = [body for lang, body in blocks if lang == "python"]
    shown = next(body for lang, body in blocks if not lang).splitlines()
    for body in code[1:]:
        shown += [line[2:] for line in body.splitlines() if line.startswith("# ")]
    assert len(code) == 2 and len(shown) == 4
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for body in code:
            exec(compile(body, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == shown
