"""Data substrate: categorical distributions, datasets and generators.

The OptRR evaluation only needs single categorical attributes, but the data
layer is written to support multi-attribute datasets so the downstream
privacy-preserving mining applications (``repro.mining``) can consume the same
objects.
"""
