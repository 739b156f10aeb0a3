"""Package surface: every exported name resolves."""

import prodsketch


def test_all_exports_resolve():
    missing = [name for name in prodsketch.__all__ if not hasattr(prodsketch, name)]
    assert missing == []
