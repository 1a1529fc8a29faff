"""Source checks that need no linter: README imports, exports, unused imports and definitions, settings, kernels."""

import ast
import importlib
import json
import operator
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import lextopic
from lextopic import _gibbs, cli, lda, preprocess

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


def unquoted_messages(source: str) -> list[int]:
    """Lines of a `!r` conversion or a json.dumps call inside a raise or a super().__init__ call.

    An input value enters a message only through errors._quoted, so neither
    has a place in an error message.
    """
    messages = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            messages.append(node.exc)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__init__"
              and isinstance(node.func.value, ast.Call) and getattr(node.func.value.func, "id", None) == "super"):
            messages += node.args + [keyword.value for keyword in node.keywords]
    return sorted({
        node.lineno for message in messages for node in ast.walk(message)
        if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
        or isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
    })


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_error_message_quotes_a_value_by_hand(path):
    assert unquoted_messages(path.read_text(encoding="utf-8")) == []


def test_unquoted_message_check_catches_and_spares():
    source = (
        "import json\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(f'bad {x!r}')\n"
        "    raise E(detail=json.dumps(x)) from None\n"
        "class E(Exception):\n"
        "    def __init__(self, x):\n"
        "        super().__init__(f'got {x!r}')\n"
        "def g(x):\n"
        "    print(f'{x!r}', json.dumps(x))\n"
        "    raise ValueError(f'bad {_quoted(x)}, {x!s}')\n"
        "    raise\n"
    )
    assert unquoted_messages(source) == [4, 5, 8]


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _references(tree: ast.Module) -> set[str]:
    """Names that the tree's Name and Attribute nodes spell, less each top-level definition's own name within it."""
    names = set()
    for node in tree.body:
        own = node.name if isinstance(node, DEFINITIONS) else None
        for child in ast.walk(node):
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name is not None and name != own:
                names.add(name)
    return names


def _attributes(node: ast.AST) -> Counter:
    """How many times each name is spelled by an Attribute node within node."""
    return Counter(child.attr for child in ast.walk(node) if isinstance(child, ast.Attribute))


def unused_definitions(package: dict[str, str], users: list[str]) -> list[str]:
    """Public top-level functions and classes, and public methods, of the package's modules that no source references.

    package maps each module's name to its source, __init__.py left out;
    users are the other sources searched. A definition is referenced where
    a Name or an Attribute node spells its name outside the definition
    itself. An import, or a string of __all__, is not a reference. A method
    is a function defined directly in a class body; it is referenced only
    where an Attribute node spells its name outside its own body. Enum
    members and cached_property assignments are not methods.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    every = [*trees.values(), *map(ast.parse, users)]
    used = set().union(*map(_references, every))
    attributes = sum(map(_attributes, every), Counter())
    return [
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_") and node.name not in used
    ] + [
        f"{module}.{cls.name}.{node.name}" for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and attributes[node.name] == _attributes(node)[node.name]
    ]


def test_every_public_definition_is_used():
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    users = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    assert unused_definitions(package, [path.read_text(encoding="utf-8") for path in users]) == []


def test_unused_definition_check_catches_and_spares():
    package = {
        "errors": (
            "class StageError(Exception): pass\n"
            "class Raised(StageError): pass\n"
            "class NeverRaised(StageError): pass\n"
        ),
        "stage": (
            "from .errors import NeverRaised, Raised\n"
            "__all__ = ['uncalled', 'exported', 'by_attribute', 'run']\n"
            "def uncalled(n): return uncalled(n - 1) if n else 0\n"
            "def exported(): pass\n"
            "def by_attribute(): pass\n"
            "def run(x):\n"
            "    if not x:\n"
            "        raise Raised()\n"
            "    return _helper(x)\n"
            "def _helper(x): return x\n"
            "class Table:\n"
            "    total = cached_property(lambda self: 0)\n"
            "    def __len__(self): return 0\n"
            "    def cell(self, n): return self.cell(n - 1) if n else 0\n"
            "    def percent(self): return 1\n"
            "    def _private(self): pass\n"
        ),
    }
    users = [
        "from .stage import exported\n__all__ = ['exported']\n",
        "from lextopic import stage\nstage.by_attribute()\nstage.run(1)\nstage.Table().percent()\n",
    ]
    assert unused_definitions(package, users) == [
        "errors.NeverRaised", "stage.uncalled", "stage.exported", "stage.Table.cell",
    ]


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


EXPORTED = {"_gibbs": {"gibbs_sweep", "token_probs", "scan_chunks", "term_entries"}, "_jsonl": {"read_block"}}


@pytest.mark.parametrize("source", sorted((ROOT / "src" / "lextopic").glob("*.c")), ids=lambda path: path.name)
def test_every_compiled_kernel_is_bound_and_no_other_is_defined(source):
    # The non-static top-level function definitions of a C source, and the library functions its module binds.
    defined = re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(", source.read_text(encoding="utf-8"), re.M)
    bound = re.findall(r"\blibrary\.(\w+)", source.with_suffix(".py").read_text(encoding="utf-8"))
    assert (sorted(defined), sorted(bound)) == (sorted(EXPORTED[source.stem]),) * 2
    if source.stem == "_gibbs":
        assert len(_gibbs.Kernels._fields) == len(EXPORTED["_gibbs"])


def test_every_c_source_is_package_data():
    # The package-data list of pyproject.toml, as it is written there: one line of quoted names.
    listed = re.search(r"^\[tool\.setuptools\.package-data\]\nlextopic = \[(.*)\]$",
                       (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    sources = {path.name for path in (ROOT / "src" / "lextopic").glob("*.c")}
    assert listed and sources <= set(re.findall(r'"([^"]+)"', listed[1]))
