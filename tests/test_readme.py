"""The README's python examples run as written, and its options exist."""

import argparse
import re
from pathlib import Path

from groupiso.cli import make_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _accepted_options() -> set[str]:
    parser = make_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {opt for sub in commands.choices.values() for opt in sub._option_string_actions}


def test_readme_names_only_real_options():
    # the options of the groupiso command lines anywhere, and every option
    # the Command line section names; pip's install options are in neither
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start : text.index("\n## ", start)]
    commands = "\n".join(re.findall(r"^groupiso .*$", text, re.M))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", commands + section))
    assert named, "README.md names no option"
    assert named <= _accepted_options(), sorted(named - _accepted_options())
