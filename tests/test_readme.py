"""The README's library example runs as written against the package."""

import re
from fractions import Fraction as F
from pathlib import Path

from reseqkit.metrics import trace_to_csv
from reseqkit.scenarios import gen_lossless_backlog_burst

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    trace = gen_lossless_backlog_burst(F("7e-6"), [F(64), F(200), F(64)], F(64))
    (tmp_path / "trace.csv").write_text(trace_to_csv(trace), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["lam"] == F("7e-6")
    assert namespace["pi"] == 328
    assert namespace["outcome"].max_occupancy == 328
