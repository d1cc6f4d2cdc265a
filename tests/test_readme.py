"""The README's library example runs as written against the package, and
its command lines parse."""

import re
import shlex
from fractions import Fraction as F
from pathlib import Path

from reseqkit import cli
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


def test_command_lines_parse():
    """Every ``reseqkit ...`` line of the README's ``sh`` blocks parses: a
    documented flag that a parser no longer accepts fails here."""
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines() if line.startswith("reseqkit ")]
    assert lines
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
