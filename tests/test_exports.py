"""The package's export list agrees with the README's quick start."""

import inspect
import re
from pathlib import Path

import polybohr
from polybohr import errors

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def test_all_is_the_quick_start_imports_plus_the_exceptions():
    (imports,) = re.findall(r"from polybohr import \((.*?)\)", quick_start_block(), re.S)
    quick_start = {name.strip() for name in imports.split(",") if name.strip()}
    exceptions = {name for name, obj in vars(errors).items() if inspect.isclass(obj) and issubclass(obj, Exception)}
    assert len(polybohr.__all__) == len(set(polybohr.__all__))
    assert set(polybohr.__all__) == quick_start | exceptions
    for name in polybohr.__all__:
        assert getattr(polybohr, name) is not None


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert printed[0].startswith("True ")
