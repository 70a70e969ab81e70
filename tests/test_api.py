"""Guards on the package's public surface."""

import importlib
import pkgutil

import sumsetlab


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted fails only
    # when some caller runs `from sumsetlab.<module> import *`
    exported = {}
    for info in pkgutil.iter_modules(sumsetlab.__path__):
        module = importlib.import_module(f"sumsetlab.{info.name}")
        names = getattr(module, "__all__", None)
        if names is not None:
            exported[info.name] = names
    assert {"nullstellensatz", "poly", "sets"} <= set(exported)
    missing = [
        f"sumsetlab.{name}.{attr}"
        for name, names in exported.items()
        for attr in names
        if not hasattr(importlib.import_module(f"sumsetlab.{name}"), attr)
    ]
    assert not missing
