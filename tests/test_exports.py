"""The package's public names: every entry of multiell.__all__ resolves and
is listed once, so an edit to the exports cannot leave a dangling or
duplicated name."""

from collections import Counter

import multiell


def test_every_exported_name_resolves_and_is_listed_once():
    assert [name for name in multiell.__all__ if not hasattr(multiell, name)] == []
    assert [name for name, n in Counter(multiell.__all__).items() if n > 1] == []
