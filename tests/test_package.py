import rumorlab


def test_every_public_name_resolves():
    missing = [name for name in rumorlab.__all__ if not hasattr(rumorlab, name)]
    assert missing == []
    assert len(set(rumorlab.__all__)) == len(rumorlab.__all__)
