"""Public-API consistency: every exported name exists and imports cleanly."""

import importlib

import pytest

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
