"""RL006 fixture (fixed): inversion goes through repro.utils.linalg."""

from repro.utils.linalg import DEFAULT_CONDITION_LIMIT, batched_safe_inverses


def evaluate_stack(stack, prior, n_records):
    inverses, invertible = batched_safe_inverses(
        stack, condition_limit=DEFAULT_CONDITION_LIMIT
    )
    disguised = stack @ prior[None, :, None]
    linear = (inverses @ disguised)[..., 0]
    return linear / float(n_records), invertible
