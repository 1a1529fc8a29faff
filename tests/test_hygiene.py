"""Source checks that need no linter: the README's imports, exports, unused imports and the settings rows."""

import ast
import importlib
import json
import operator
import re
from dataclasses import fields
from pathlib import Path

import pytest

import lextopic
from lextopic import cli, lda, preprocess

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "lextopic").glob("*.py") if path.name != "__init__.py")


def test_readme_library_imports_resolve():
    blocks = re.findall(r"^from lextopic import \(([^)]*)\)", (ROOT / "README.md").read_text(encoding="utf-8"), re.M)
    assert blocks, "README.md has no `from lextopic import (...)` block"
    for block in blocks:
        names = [name.strip() for name in block.split(",") if name.strip()]
        exec(f"from lextopic import ({', '.join(names)})", {})
        assert set(names) <= set(lextopic.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_exported_name_is_defined(path):
    module = importlib.import_module(f"lextopic.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_package_exports_import():
    exec(f"from lextopic import {', '.join(lextopic.__all__)}", {})


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that are neither used nor listed in __all__.

    An import whose lines carry a `# noqa` comment is skipped, as are
    `from __future__` imports.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value))
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_catches_and_spares():
    source = (
        "from __future__ import annotations\n"
        "import os  # noqa: F401\n"
        "import json\n"
        "from .errors import (\n    MissingYear,\n    UnknownTopicId,\n)\n"
        "from .trends import TrendTable\n"
        "__all__ = ['TrendTable']\n"
        "def f(): raise UnknownTopicId(json.dumps(1))\n"
    )
    assert unused_imports(source) == ["MissingYear (line 4)"]


def test_lda_settings_are_one_row_per_ldaconfig_field():
    assert [(row.key, row.default) for row in lda.SETTINGS] == [
        (f"lda.{field.name}", field.default) for field in fields(lda.LdaConfig)
    ]
    cli_rows = tuple(row for row in cli.SETTINGS if row.key.startswith("lda."))
    assert cli_rows == lda.SETTINGS and all(map(operator.is_, cli_rows, lda.SETTINGS))


def test_every_preprocess_config_field_has_a_setting(tmp_path):
    (tmp_path / "stopwords.txt").write_text("budget\n", encoding="utf-8")
    (tmp_path / "rules.txt").write_text("s\t\n", encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps({"preprocess": {
        "stopwords": str(tmp_path / "stopwords.txt"), "lemma_rules": str(tmp_path / "rules.txt"), "min_token_length": 3,
    }}), encoding="utf-8")
    config = cli._merge_config(cli.build_parser().parse_args(["--config", str(tmp_path / "run.json"), "ingest"]))
    result, default = cli._preprocess_config(config), preprocess.default_config()
    assert [field.name for field in fields(result) if getattr(result, field.name) == getattr(default, field.name)] == []
