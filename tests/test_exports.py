"""The package's exported surface: every name in `__all__` resolves."""

import diffgal


def test_all_names_resolve_once():
    assert [name for name in diffgal.__all__ if not hasattr(diffgal, name)] == []
    assert len(diffgal.__all__) == len(set(diffgal.__all__))
    namespace: dict = {}
    exec("from diffgal import *", namespace)
    assert set(diffgal.__all__) <= namespace.keys()
