"""Test helpers: the generic loss oracle the tests use as the reference
with no structure, and a dataset's Hamming-1 neighbors."""

import numpy as np

from dpgrowth.core import Dataset, LossOracle


def replaced(data: Dataset, index: int, value) -> Dataset:
    """Copy of ``data`` with sample ``index`` replaced (a Hamming-1 neighbor)."""
    out = data.samples.copy()
    out[index] = np.asarray(value, dtype=float).reshape(data.sample_dim)
    return Dataset(out)


class CallableLoss(LossOracle):
    """Per-sample value/subgrad callables, averaged one sample at a time."""

    def __init__(self, value_fn, subgrad_fn, lipschitz, point_dim=1, structure=None):
        self._value_fn = value_fn
        self._subgrad_fn = subgrad_fn
        self.lipschitz = float(lipschitz)
        self.point_dim = int(point_dim)
        self.structure = structure

    def batch_value(self, x, samples):
        x = np.asarray(x, float)
        return float(np.mean([float(self._value_fn(x, np.asarray(s, float))) for s in samples]))

    def batch_subgrad(self, x, samples):
        x = np.asarray(x, float)
        acc = np.zeros(self.point_dim)
        for s in samples:
            acc += np.atleast_1d(np.asarray(self._subgrad_fn(x, np.asarray(s, float)), float))
        return acc / len(samples)

    def mean_grads(self, points, samples):
        return np.stack([self.batch_subgrad(p, samples) for p in points])
