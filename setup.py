"""Package metadata and build for ``repro``.

All metadata lives here; there is deliberately no ``pyproject.toml``
``[build-system]`` table, so pip takes the legacy ``setup.py`` path
(``pip install -e .`` works without the ``wheel`` package or an
isolated build environment). The version is read from
``src/repro/__init__.py`` without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Distributed inference and query processing for RFID tracking "
        "and monitoring (Cao et al., PVLDB 2011), reproduced"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The interpreter version CI tests against.
    python_requires=">=3.11",
    install_requires=["numpy"],
)
