"""``mycielski/__init__.py`` is the one list of public names; the layer
modules keep no ``__all__``. This test keeps the package's exports and the
modules' own definitions from drifting apart."""

import importlib
import inspect

import mycielski

LAYERS = ("errors", "generators", "graph", "indices", "transform", "verify")


def test_package_exports_exactly_the_public_definitions_of_the_layers():
    modules = [importlib.import_module(f"mycielski.{layer}") for layer in LAYERS]
    # every public function or class that a layer module defines itself
    defined = {
        name: obj
        for module in modules
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert len(defined) == 40
    public = defined | {
        "FAMILIES": mycielski.generators.FAMILIES,
        "CLAIM_IDS": mycielski.verify.CLAIM_IDS,
    }
    exported = {
        name: obj
        for name, obj in vars(mycielski).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(n for n, obj in public.items() if exported.get(n) is not obj) == []
    assert sorted(exported.keys() - public.keys()) == []
