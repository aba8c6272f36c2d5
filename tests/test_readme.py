"""The README's library example runs as written."""
import pathlib
import re

from conftest import SRC

README = pathlib.Path(SRC).parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
