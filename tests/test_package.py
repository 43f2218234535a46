"""The package's public names."""

from __future__ import annotations

import teshape


def test_all_names_resolve_and_are_sorted():
    missing = [name for name in teshape.__all__ if not hasattr(teshape, name)]
    assert not missing
    assert teshape.__all__ == sorted(teshape.__all__)
    assert len(set(teshape.__all__)) == len(teshape.__all__)
