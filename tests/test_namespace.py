"""The package namespace imports each layer on first use (PEP 562)."""

import importlib

import pytest

import phaselab

SUBMODULES = ("field", "integrand", "minimize", "heteroclinic", "orbit", "foliation", "cli")


def test_every_name_is_its_module_object():
    for module, names in phaselab._EXPORTS.items():
        home = importlib.import_module(f"phaselab.{module}")
        for name in names:
            assert getattr(phaselab, name) is getattr(home, name), name


def test_all_is_the_export_table_and_dir_lists_it():
    table = [name for names in phaselab._EXPORTS.values() for name in names]
    assert phaselab.__all__ == table
    assert len(set(table)) == len(table)
    assert set(table) | set(SUBMODULES) <= set(dir(phaselab))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from phaselab import *", namespace)
    for name in phaselab.__all__:
        assert namespace[name] is getattr(phaselab, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'phaselab' has no attribute 'no_such_name'$"):
        phaselab.no_such_name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_attribute_is_the_module(module):
    assert getattr(phaselab, module) is importlib.import_module(f"phaselab.{module}")


def test_resolved_name_is_stored_in_the_package():
    # a lookup in a hot loop is then a plain attribute read
    assert phaselab.relax is vars(phaselab)["relax"]
