"""The package declares Python >= 3.10 and no dependencies: its syntax and
its regular expressions must use nothing newer, though the suite may run on
3.11.  numpy is a benchmark extra: no module of the package, the tests or
the demos may load it."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import satcover

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def test_sources_parse_as_python_3_10():
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_only_the_benchmark_imports_numpy():
    # an import inside a function counts too: ast.walk reaches every node
    imported = set()
    for folder in ("src/satcover", "tests", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            name = f"{folder}/{path.name}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Import):
                    imported.update((name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.add((name, node.module))
    # the scan saw the imports of every folder
    assert {("src/satcover/cli.py", "json"), ("tests/conftest.py", "satcover")} <= imported
    assert ("demos/04_complexity_probe.py", "satcover.harness") in imported
    assert [(f, name) for f, name in imported if name.split(".")[0] == "numpy"] == []


def test_patterns_use_no_3_11_regex_syntax(capsys):
    # possessive quantifiers and atomic groups came in 3.11; re.DEBUG
    # prints the parsed pattern, naming both
    patterns = [
        value
        for info in pkgutil.iter_modules(satcover.__path__)
        for value in vars(importlib.import_module(f"satcover.{info.name}")).values()
        if isinstance(value, re.Pattern)
    ]
    assert patterns
    for pattern in patterns:
        re.compile(pattern.pattern, pattern.flags | re.DEBUG)
    dump = capsys.readouterr().out
    assert "POSSESSIVE_REPEAT" not in dump and "ATOMIC_GROUP" not in dump
