"""RL006 fixture (fixed): distances without numpy.linalg."""

from scipy.spatial.distance import pdist, squareform


def pairwise_distances(points):
    return squareform(pdist(points))
