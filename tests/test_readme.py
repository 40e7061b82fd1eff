"""The README's library example runs as written and plans what ``check`` plans."""
from __future__ import annotations

from pathlib import Path

from blockplan.cli import EXIT_OK, main
from blockplan.shapes import write_demo_meshes

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs_on_the_demo_meshes(tmp_path, monkeypatch):
    write_demo_meshes(tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_example(), "README.md library example", "exec"), namespace)
    assert main(["check", "--mesh", "demo/table.stl", "--out-dir", "out"]) == EXIT_OK
    assert namespace["grid"].to_json() == (tmp_path / "out" / "grid.json").read_bytes()
