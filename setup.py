"""Packaging metadata for the REVMAX reproduction.

A plain ``setup.py`` (rather than ``pyproject.toml``) so that environments
without the ``wheel`` package (e.g. offline machines where PEP 517 editable
builds cannot fetch build dependencies) can still install the package with::

    pip install -e . --no-build-isolation --no-use-pep517
"""

import os

from setuptools import find_packages, setup

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "README.md"),
          encoding="utf-8") as readme:
    _LONG_DESCRIPTION = readme.read()

setup(
    name="repro-revmax",
    version="1.0.0",
    description=(
        "Reproduction of 'Show Me the Money: Dynamic Recommendations for "
        "Revenue Maximization' (Lu, Chen, Li, Lakshmanan; PVLDB 2014)"
    ),
    long_description=_LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "test": [
            "pytest>=7",
            "pytest-benchmark>=4",
            "pytest-cov>=4",
            "pytest-xdist>=3",
            "hypothesis>=6",
        ],
    },
)
