"""Every ``repro`` module imports, and every name it exports exists."""
import importlib
import pkgutil

import repro


def test_every_exported_name_exists():
    modules = [repro] + [importlib.import_module(m.name)
                         for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 30
    assert missing == []
