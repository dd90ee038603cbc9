"""The package namespace and `__all__` name the same public API."""

import types

import recurlab as rl


def test_every_export_resolves():
    assert [name for name in rl.__all__ if not hasattr(rl, name)] == []
    assert len(set(rl.__all__)) == len(rl.__all__)


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(rl).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(rl.__all__) == set()
