"""The README's library tour runs against the current API, and its limit
table shows the values of the limits in the code."""

import re
from pathlib import Path

from lissakit import cli, gnh

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_tour"})
    relative_error = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= relative_error < 1.0


def test_limit_table_shows_each_limit_value():
    rows = re.findall(r"^\| `(MAX_\w+)` = ([\d,]+) \|", README.read_text(), flags=re.M)
    limits = {name: getattr(gnh if name == "MAX_DENSE_PARAMS" else cli, name) for name, _ in rows}
    names = {"MAX_T_STEPS", "MAX_PROBES", "MAX_DRAW_WORDS", "MAX_KEPT_FLOATS", "MAX_DENSE_PARAMS"}
    assert set(limits) == names
    for name, shown in rows:
        assert int(shown.replace(",", "")) == limits[name], name
