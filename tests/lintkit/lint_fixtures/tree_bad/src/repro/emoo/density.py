"""RL006 fixture (broken): numpy.linalg imported under other names."""

from numpy import linalg
from numpy.linalg import norm


def pairwise_distances(points):
    return linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)


def lengths(points):
    return norm(points, axis=1)
