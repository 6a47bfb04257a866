import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    # the "From Python" example runs as written
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["grid_run"].traces[0].final.n == 512
