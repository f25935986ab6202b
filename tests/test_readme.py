from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_unchanged(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "(1.0,) 0.5\n"
