"""The README's code runs as printed."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_tour_runs():
    text = README.read_text()
    tour = text.partition("\n## API tour\n")[2].partition("\n## ")[0]
    code = tour.partition("```python\n")[2].partition("```")[0]
    assert "build_case_a" in code  # the block was found, to its end
    exec(compile(code, str(README), "exec"), {})
