import numpy as np
import pytest

from mvtrack.affinity import AffinityFitHyper, fit_affinity_head


def _head7_pairs():
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(150):
        base = rng.standard_normal((7, 7, 16))
        a = base + 0.1 * rng.standard_normal((7, 7, 16))
        b = base + 0.1 * rng.standard_normal((7, 7, 16))
        d = rng.standard_normal((7, 7, 16)) + 0.1 * rng.standard_normal((7, 7, 16))
        pairs.append((a, b, 1))
        pairs.append((a, d, 0))
    return pairs


@pytest.fixture(scope="session")
def head7():
    """Affinity head fitted on generic identity-correlated 7x7x16 patches.

    The statistic only depends on the patch distribution, so one head serves
    every scenario with the default feature shape.
    """
    params, _ = fit_affinity_head(_head7_pairs(), AffinityFitHyper(lr=1.0, epochs=600))
    return params


@pytest.fixture(scope="session")
def head7_nops():
    """head7's training pairs fitted on the aligned-bin ("nops") statistic."""
    params, _ = fit_affinity_head(_head7_pairs(), AffinityFitHyper(lr=1.0, epochs=600), mode="nops")
    return params
