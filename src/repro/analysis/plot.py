"""ASCII scatter plots of Pareto fronts.

The environment has no plotting backend, so the experiment runners render the
paper's figures as terminal scatter plots: privacy on the x-axis, utility
(MSE) on the y-axis, one marker character per front.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.result import ParetoFront
from repro.exceptions import ValidationError

#: Markers assigned to fronts in the order they are passed.
_MARKERS = "ox+*#@%&"


def ascii_scatter(
    fronts: Sequence[ParetoFront],
    *,
    width: int = 72,
    height: int = 20,
    x_label: str = "privacy",
    y_label: str = "utility (MSE)",
) -> str:
    """Render one or more fronts as an ASCII scatter plot.

    Parameters
    ----------
    fronts:
        Fronts to overlay; each gets its own marker character.
    width, height:
        Plot area size in characters.
    x_label, y_label:
        Axis labels printed below / beside the plot.
    """
    fronts = [front for front in fronts if not front.is_empty]
    if not fronts:
        raise ValidationError("at least one non-empty front is required")
    if width < 10 or height < 5:
        raise ValidationError("plot area must be at least 10x5 characters")

    xs = np.concatenate([front.privacy for front in fronts])
    ys = np.concatenate([front.utility for front in fronts])
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min, y_max = float(ys.min()), float(ys.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for front_index, front in enumerate(fronts):
        marker = _MARKERS[front_index % len(_MARKERS)]
        for privacy, utility in zip(front.privacy.tolist(), front.utility.tolist()):
            column = int(round((privacy - x_min) / x_span * (width - 1)))
            row = int(round((utility - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][column] = marker

    lines = []
    lines.append(f"{y_label}  [{y_min:.3e} .. {y_max:.3e}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}  [{x_min:.4f} .. {x_max:.4f}]")
    legend = "  ".join(
        f"{_MARKERS[index % len(_MARKERS)]} = {front.name}" for index, front in enumerate(fronts)
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)
