"""Public-API consistency: every exported name exists and imports cleanly."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.control",
    "repro.core",
    "repro.dsms",
    "repro.dsms.operators",
    "repro.experiments",
    "repro.metrics",
    "repro.obs",
    "repro.serve",
    "repro.service",
    "repro.shedding",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert exported, f"{name} must declare __all__"
    for symbol in exported:
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_sorted_and_unique(name):
    mod = importlib.import_module(name)
    exported = list(getattr(mod, "__all__", []))
    assert len(exported) == len(set(exported)), f"duplicates in {name}.__all__"


def test_errors_hierarchy():
    import repro
    from repro import errors

    for exc_name in errors.__dict__:
        exc = getattr(errors, exc_name)
        if isinstance(exc, type) and issubclass(exc, Exception):
            assert issubclass(exc, errors.ReproError) or exc is Exception


def test_version_exposed():
    import repro
    assert repro.__version__ == "1.0.0"


def test_every_public_callable_has_a_docstring():
    missing = []
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", []):
            obj = getattr(mod, symbol)
            if not isinstance(obj, type) and getattr(obj, "__module__", "") \
                    == "typing":
                continue  # type aliases carry typing's docstring machinery
            if callable(obj) and not getattr(obj, "__doc__", None):
                missing.append(f"{name}.{symbol}")
    assert not missing, f"public callables without docstrings: {missing}"


def test_every_third_party_import_is_a_declared_dependency():
    """Whatever ``src/`` imports beyond the stdlib, pyproject declares."""
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    declared = re.search(r"^dependencies = \[(.*?)\]",
                         (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    names = {re.split(r"[<>=!~ \[;]", spec, maxsplit=1)[0]
             for spec in re.findall(r'"([^"]+)"', declared.group(1))}
    assert third_party <= names, f"undeclared: {sorted(third_party - names)}"


def test_design_md_tree_matches_the_source_tree():
    """DESIGN.md §3's module map names every module under src/repro/, and
    every ``*.py`` it names exists."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 3. System inventory"):text.index("\n## 4.")]
    named = set()
    for block in section.split("```")[1::2]:
        # (indent, path) of the directory entries the current line sits
        # under; the extensions block has none and names core/x.py
        dirs = [(-1, ROOT / "src" / "repro")]
        for line in block.splitlines():
            indent = len(line) - len(line.lstrip())
            if line.strip() and indent < 20:  # an entry, not wrapped text
                dirs = [d for d in dirs if d[0] < indent]
                entry = line.split()[0]
                if entry.endswith("/"):
                    base = ROOT if entry.startswith("src/") else dirs[-1][1]
                    dirs.append((indent, base / entry))
            named.update(dirs[-1][1] / name
                         for name in re.findall(r"[\w/]+\.py\b", line))
    actual = {path for path in (ROOT / "src" / "repro").rglob("*.py")
              if path.name != "__init__.py"}

    def rel(paths):
        return sorted(str(path.relative_to(ROOT)) for path in paths)

    assert named == actual, (f"not under src/: {rel(named - actual)}; "
                             f"not in DESIGN.md: {rel(actual - named)}")


#: config fields no caller needs to set, each with the reason it stays a
#: field; asserted to still be unset so an exemption cannot go stale
UNSET_FIELD_EXEMPTIONS = {
    "serve_port": "an address: a deployment setting, like host and paths",
}


def test_every_config_field_is_set_by_some_caller():
    """A config field nobody passes is a constant: every field of the two
    config dataclasses is a keyword of some call outside its own module."""
    from dataclasses import fields

    from repro.obs import ObsConfig
    from repro.service import ServiceConfig

    declared = {}
    for config in (ObsConfig, ServiceConfig):
        module = Path(sys.modules[config.__module__].__file__)
        for f in fields(config):
            declared.setdefault(f.name, module)  # first = the declaring class
    passed = {}
    for root in ("src", "examples", "benchmarks", ".github", "tests"):
        for path in (ROOT / root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    for kw in node.keywords:
                        passed.setdefault(kw.arg, set()).add(path)
    unset = {name for name, module in declared.items()
             if not passed.get(name, set()) - {module}}
    assert unset == set(UNSET_FIELD_EXEMPTIONS), (
        f"never set: {sorted(unset - set(UNSET_FIELD_EXEMPTIONS))}; "
        f"stale exemption: {sorted(set(UNSET_FIELD_EXEMPTIONS) - unset)}")


def _census():
    spec = importlib.util.spec_from_file_location(
        "knob_census", ROOT / "benchmarks" / "perf" / "knob_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_every_public_definition_is_reached_outside_tests():
    """A public function or class only tests reach is dead code: every one
    under src/ is reached from src/, examples/, benchmarks/ or .github/,
    except the census script's named exemptions (asserted to still be
    unreached, so an exemption cannot go stale)."""
    census = _census()
    unreached = set(census.unreached_definitions(ROOT))
    exempt = set(census.DEFINITION_EXEMPTIONS)
    assert unreached == exempt, (
        f"only tests reach: {sorted(unreached - exempt)}; "
        f"stale exemption: {sorted(exempt - unreached)}")


def test_every_public_method_is_reached_outside_tests():
    """The same for every public method of a public class under src/: a
    method only tests call is dead code, except the census script's named
    exemptions (asserted to still be unreached)."""
    census = _census()
    unreached = set(census.unreached_methods(ROOT))
    exempt = set(census.METHOD_EXEMPTIONS)
    assert unreached == exempt, (
        f"only tests call: {sorted(unreached - exempt)}; "
        f"stale exemption: {sorted(exempt - unreached)}")
