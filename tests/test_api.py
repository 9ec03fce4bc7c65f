"""The package's public names."""

import pmcode


def test_every_exported_name_resolves():
    assert len(set(pmcode.__all__)) == len(pmcode.__all__)
    missing = [name for name in pmcode.__all__ if not hasattr(pmcode, name)]
    assert missing == []
    namespace = {}
    exec("from pmcode import *", namespace)
    assert set(pmcode.__all__) <= set(namespace)
