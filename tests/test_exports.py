"""The package's public names."""

import sgk


def test_every_exported_name_resolves():
    # a stale name breaks only `from sgk import *`, which nothing else runs
    missing = [name for name in sgk.__all__ if not hasattr(sgk, name)]
    assert missing == []
    assert len(set(sgk.__all__)) == len(sgk.__all__)
    namespace = {}
    exec("from sgk import *", namespace)
    assert set(sgk.__all__) <= set(namespace)
