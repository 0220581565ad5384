"""The package namespace: every public name loads its module on first access."""

import importlib

import pytest

import twinfringes


@pytest.mark.parametrize("name", twinfringes.__all__)
def test_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"twinfringes.{twinfringes._MODULE_OF[name]}")
    value = getattr(twinfringes, name)
    assert value is getattr(module, name)
    assert value.__module__ == module.__name__


def test_dir_lists_every_public_name():
    assert set(twinfringes.__all__) <= set(dir(twinfringes))
    assert "__version__" in dir(twinfringes)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from twinfringes import *", namespace)
    assert set(twinfringes.__all__) <= set(namespace)
    assert namespace["parse_config"] is twinfringes.fileio.parse_config


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twinfringes.no_such_name
    assert not hasattr(twinfringes, "no_such_name")
