"""Pareto-front analysis, comparison, aggregation, plotting and reporting."""
