import fires


def test_every_exported_name_resolves():
    assert len(set(fires.__all__)) == len(fires.__all__)
    assert [name for name in fires.__all__ if not hasattr(fires, name)] == []


def test_star_import():
    namespace = {}
    exec("from fires import *", namespace)
    assert set(fires.__all__) <= set(namespace)
