"""The package's export list."""

import collatsim


def test_export_list_resolves_without_repeats():
    names = collatsim.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(collatsim, n)] == []
