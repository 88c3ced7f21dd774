import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md quick tour", "exec"), {})
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
