"""The package's public names."""

import mtfuse


def test_every_export_resolves_and_star_import_works():
    assert [name for name in mtfuse.__all__ if not hasattr(mtfuse, name)] == []
    assert len(set(mtfuse.__all__)) == len(mtfuse.__all__)
    namespace = {}
    exec("from mtfuse import *", namespace)
    assert set(mtfuse.__all__) <= set(namespace)
