"""Every name the package exports resolves: `from treepatch import *` reads
each name in `treepatch.__all__`, so a deleted function whose import is gone
but whose name is still listed would break only that import."""

import pytest

import treepatch


@pytest.mark.parametrize("name", treepatch.__all__)
def test_exported_name_resolves(name):
    assert hasattr(treepatch, name), f"treepatch.__all__ lists {name!r}, which is gone"

