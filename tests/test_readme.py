"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ```python block of the README's "Library example" section."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), f"{README}:Library example", "exec"), {})
    height, frequencies = capsys.readouterr().out.splitlines()
    assert height.endswith(" um above the chip")
    assert 140.0 < float(height.split()[0]) < 165.0  # the builtin trap, 158 um up
    assert frequencies.startswith("[") and frequencies.endswith("] Hz")
