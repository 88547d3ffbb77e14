import distinf


def test_every_export_resolves():
    missing = [name for name in distinf.__all__ if not hasattr(distinf, name)]
    assert not missing
    assert len(set(distinf.__all__)) == len(distinf.__all__)
