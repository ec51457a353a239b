import os
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_integrate_unloaded():
    # the package computes the neighborhood mass in closed form and counts
    # neighbors with plain arrays; a stray quadrature or sparse-matrix
    # import would add its start-up time to every CLI run
    code = ("import sys, rangefuse, rangefuse.cli; "
            "print(sorted({'scipy.integrate', 'scipy.sparse'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(rf.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
