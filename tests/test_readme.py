"""The README's python examples run as written, in one namespace, and its command-line
block matches the parser."""

import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.nearest_integer == 1
    assert report.correspondence_residual < 1e-13


def _command_line_block() -> dict[str, list[str]]:
    """Subcommand -> the words after it, from the README's "Command line" block."""
    section = README.read_text().split("## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, flags=re.S | re.M).group(1)
    listed = {}
    for line in block.splitlines():
        prog, command, *words = line.split()
        assert prog == "chiralchain"
        listed[command] = words
    return listed


def test_readme_command_line_matches_the_parser():
    from chiralchain.cli import _FIGURES, _build_parser

    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    listed = _command_line_block()
    assert set(listed) == set(sub.choices)
    for command, words in listed.items():
        accepted = {o for a in sub.choices[command]._actions for o in a.option_strings}
        flags = set(re.findall(r"--[a-z-]+", " ".join(words)))
        assert flags <= accepted, command
        if command in ("index", "reproduce"):
            assert flags == accepted - {"-h", "--help"}, command
    assert listed["reproduce"][0] == "|".join(_FIGURES)
