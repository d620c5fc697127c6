"""RL006 fixture: the one module allowed to call numpy.linalg (never flagged)."""

import numpy as np


def inverse(matrix):
    return np.linalg.inv(matrix)
