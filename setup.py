"""Setuptools shim.

All project metadata lives in ``pyproject.toml``.  ``pip install -e .``
builds an editable wheel, which needs the ``wheel`` package; where it is
missing and cannot be fetched, ``python setup.py develop`` performs the same
editable install (package plus the ``optrr`` command) through this file.
"""

from setuptools import setup

setup()
