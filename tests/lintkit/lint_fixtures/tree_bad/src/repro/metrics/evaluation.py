"""RL006 fixture (broken): a private inversion that skips the condition rule."""

import numpy as np


def evaluate_stack(stack, prior, n_records):
    signs, _ = np.linalg.slogdet(stack)
    inverses = np.linalg.inv(stack[signs != 0])
    disguised = stack @ prior[None, :, None]
    linear = (inverses @ disguised[signs != 0])[..., 0]
    return linear / float(n_records)
