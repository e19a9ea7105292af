"""The package's public surface: ``nclmoments.__all__``."""

import types

import nclmoments


def test_all_names_resolve_sorted_and_complete():
    """``__all__`` is sorted, every name resolves, and it lists exactly the
    package's public names other than its submodules."""
    names = nclmoments.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(nclmoments, name) is not None, name
    public = {
        name
        for name, value in vars(nclmoments).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
