import ssein


def test_every_public_name_resolves():
    # a type removed from the package must leave `__all__` with it
    missing = [name for name in ssein.__all__ if not hasattr(ssein, name)]
    assert missing == []
