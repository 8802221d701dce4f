"""The package's export list."""

import dynspgemm


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dynspgemm import *", namespace)
    assert len(set(dynspgemm.__all__)) == len(dynspgemm.__all__)
    assert set(dynspgemm.__all__) <= namespace.keys()
