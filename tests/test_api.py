"""The public surface: ``frogkit.__all__``, ``frogkit.io`` and the ``frogkit``
command."""

import frogkit


def test_every_public_name_resolves_and_star_import_works():
    namespace = {}
    exec("from frogkit import *", namespace)
    assert len(set(frogkit.__all__)) == len(frogkit.__all__)
    for name in frogkit.__all__:
        assert namespace[name] is getattr(frogkit, name)


def test_removed_helpers_are_not_public():
    gone = {
        "product_signal", "pyramid_centers", "select_equations", "EquationSelectionError",
        "CircleSystem",
    }
    assert not gone & set(frogkit.__all__)
    assert not any(hasattr(frogkit, name) for name in gone)
