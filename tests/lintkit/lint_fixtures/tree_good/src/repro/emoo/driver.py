"""RL002 allowlist fixture: this path IS the sanctioned optimizer timing site."""

import time


class OptimizationDriver:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self._started = time.perf_counter()

    def past_deadline(self) -> bool:
        return time.perf_counter() - self._started >= self.deadline
