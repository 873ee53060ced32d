"""The package surface: each public name is listed once, in the module that defines it."""

import twoatom

MODULES = (twoatom.entanglement, twoatom.model, twoatom.propagator, twoatom.qmat, twoatom.states)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from twoatom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(twoatom.__all__)
    assert all(namespace[name] is getattr(twoatom, name) for name in namespace)


def test_all_is_the_sorted_union_of_the_module_lists():
    assert twoatom.__all__ == sorted(name for module in MODULES for name in module.__all__)


def test_no_name_is_exported_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_every_exported_name_is_defined_in_its_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
