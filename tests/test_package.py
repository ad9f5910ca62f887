"""The package's public names: ``__all__`` and ``from greedylsq import *``."""
import types

import greedylsq


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from greedylsq import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == greedylsq.__all__


def test_all_is_the_sorted_public_non_module_attributes():
    public = [name for name in dir(greedylsq) if not name.startswith("_")
              and not isinstance(getattr(greedylsq, name), types.ModuleType)]
    assert greedylsq.__all__ == sorted(public)
    assert len(set(greedylsq.__all__)) == len(greedylsq.__all__)


def test_every_exported_name_resolves_to_a_package_object():
    # No submodule, and nothing imported from outside the package (a
    # stray stdlib import would otherwise join __all__).
    for name in greedylsq.__all__:
        value = getattr(greedylsq, name)
        assert not isinstance(value, types.ModuleType), name
        assert value.__module__.startswith("greedylsq."), name
