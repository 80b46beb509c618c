"""Setuptools shim.

The offline environment lacks the ``wheel`` package that PEP 660 editable
installs require, so ``pip install -e .`` falls back to this file via
``python setup.py develop``.  There is no pyproject.toml: nothing needs
installing (everything runs with ``PYTHONPATH=src``), and the one piece
of tool configuration, the pytest ``integration`` marker, is in
pytest.ini.
"""

from setuptools import setup

setup()
