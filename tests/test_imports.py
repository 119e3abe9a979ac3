"""Every import is read: a name listed in a module's `__all__` counts as read,
and `from __future__` imports are compiler switches, not names."""

import ast
import pathlib
import subprocess
import sys

import caviar

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(source, filename)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").glob("**/*.py")) + sorted((ROOT / "tests").glob("**/*.py"))
    assert len(paths) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in paths
              for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path))]
    assert not unused, "\n".join(unused)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as p\n"
              "import sys\nfrom x import y, z as w\n__all__ = ['y']\nprint(sys.argv)\n")
    assert unused_imports(source, "mod.py") == [(2, "os"), (3, "p"), (5, "w")]


def test_every_exported_name_resolves():
    # `from caviar import *` fails on a name in `__all__` that the package
    # does not define, though the scan above counts it as read
    missing = [name for name in caviar.__all__ if not hasattr(caviar, name)]
    assert not missing


def test_cli_start_up_imports_no_heavy_modules():
    # what the `caviar` command loads before its first proof: `dataclasses`
    # alone pulls in `inspect`, `ast`, `dis` and `tokenize`, and the pool and
    # report modules are imported where a pool or a report is made. `-S`
    # leaves out site's start-up imports, so only caviar's are counted
    heavy = ["dataclasses", "inspect", "concurrent.futures", "statistics", "csv"]
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import caviar.cli; "
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
