"""Package metadata and install script.

All project metadata lives here; there is no ``pyproject.toml``.  The
package needs only NumPy at run time.  Installing it needs only setuptools:

    python setup.py develop

installs it in editable mode without network access, reusing an installed
NumPy (create the virtual environment with ``--system-site-packages``).
``pip install -e .`` needs the ``wheel`` package for its PEP 660 editable
build and, without ``--no-build-isolation``, network access to fetch
setuptools into an isolated build environment.
"""

from setuptools import find_packages, setup

setup(
    name="repro-clock-modulation-watermark",
    version="1.1.0",
    description=(
        "Clock-modulation based watermark for protection of embedded "
        "processors: SoC power model, CPA detection and scenario pipeline"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.analysis": ["*.json"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
)
