"""Experiment harness: one runner per table/figure in the paper's evaluation,
plus campaign orchestration for multi-seed grids."""
