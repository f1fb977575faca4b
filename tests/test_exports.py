"""The package's public names: each listed once in ``klproj.__all__``, each defined."""

import collections

import klproj


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in collections.Counter(klproj.__all__).items() if count > 1]
    missing = [name for name in klproj.__all__ if not hasattr(klproj, name)]
    assert (repeated, missing) == ([], [])
