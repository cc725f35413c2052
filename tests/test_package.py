"""The package's public names."""

import nullity


def test_every_public_name_resolves_once():
    assert len(set(nullity.__all__)) == len(nullity.__all__)
    assert [n for n in nullity.__all__ if not hasattr(nullity, n)] == []
