import warmsum


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from warmsum import *", namespace)  # a stale __all__ entry raises AttributeError
    assert set(warmsum.__all__) <= namespace.keys()
