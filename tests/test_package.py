import fracsew
from fracsew import errors, fbm, fsde, integrals, local_time, numerics, sewing


def test_package_exports_every_layer_name():
    exported = set(fracsew.__all__)
    for layer in (errors, fbm, fsde, integrals, local_time, numerics, sewing):
        missing = set(layer.__all__) - exported
        assert not missing, (layer.__name__, missing)
        for name in layer.__all__:
            assert getattr(fracsew, name) is getattr(layer, name)

