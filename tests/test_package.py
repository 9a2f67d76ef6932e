import primetime


def test_every_export_resolves():
    assert [name for name in primetime.__all__ if not hasattr(primetime, name)] == []
