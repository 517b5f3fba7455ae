"""The package's public names."""

import qkforge


def test_every_public_name_resolves():
    assert len(set(qkforge.__all__)) == len(qkforge.__all__)
    for name in qkforge.__all__:
        assert getattr(qkforge, name) is not None, name


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from qkforge import *", namespace)
    assert set(qkforge.__all__) <= set(namespace)
