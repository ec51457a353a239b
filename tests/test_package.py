import rangefuse as rf


class TestPublicNames:
    """rangefuse.__all__ is the package's public surface; keep it exact."""

    def test_sorted_without_duplicates(self):
        assert rf.__all__ == sorted(rf.__all__)
        assert len(set(rf.__all__)) == len(rf.__all__)

    def test_every_name_resolves(self):
        assert [name for name in rf.__all__ if not hasattr(rf, name)] == []

    def test_star_import(self):
        namespace = {}
        exec("from rangefuse import *", namespace)
        assert set(rf.__all__) <= set(namespace)
