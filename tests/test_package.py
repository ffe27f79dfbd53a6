"""Package surface: the public names resolve."""

from __future__ import annotations

import ncfield


def test_every_exported_name_resolves():
    missing = [name for name in ncfield.__all__ if not hasattr(ncfield, name)]
    assert missing == []
    assert len(set(ncfield.__all__)) == len(ncfield.__all__)
