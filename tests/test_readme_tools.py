"""The README's tool command lines name only flags the tools define."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A `python3 tools/<name>.py ...` span; it may wrap onto the next line.
_COMMAND = re.compile(r"`python3 tools/(\w+)\.py([^`]*)`")


def test_every_readme_tool_flag_is_defined_by_its_tool():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = _COMMAND.findall(readme)
    assert {name for name, _ in commands} >= {
        "fingerprint", "pairs", "paired_calls", "oracle_error"}
    for name, args in commands:
        source = (ROOT / "tools" / f"{name}.py").read_text(encoding="utf-8")
        for flag in re.findall(r"--[\w-]+", args):
            assert f'"{flag}"' in source, (name, flag)
