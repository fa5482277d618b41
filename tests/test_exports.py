"""The package's public names all resolve."""

import fiberband


def test_every_exported_name_resolves():
    missing = [name for name in fiberband.__all__ if not hasattr(fiberband, name)]
    assert missing == []
    assert len(set(fiberband.__all__)) == len(fiberband.__all__)
