import sys

import numpy as np
import pytest

from delrips import PointCloud


def random_cloud(rng, n, dim=2, width=1.0):
    return PointCloud(rng.uniform(-width, width, (n, dim)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def count_facet_incidence(monkeypatch):
    """Patch ``facet_incidence`` in every loaded ``delrips`` module that
    looks it up, and return the list that records the simplex dimension of
    the rows of each call."""
    real = sys.modules["delrips.delaunay"].facet_incidence
    calls = []

    def counted(rows):
        calls.append(np.shape(rows)[1] - 1)
        return real(rows)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "delrips" and hasattr(module, "facet_incidence"):
            monkeypatch.setattr(module, "facet_incidence", counted)
    return calls
