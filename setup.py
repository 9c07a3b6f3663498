"""Legacy shim so `pip install -e . --no-use-pep517` works in offline
environments without the `wheel` package.

The package itself is dependency-free.  The ``[numpy]`` extra opts in
to the vectorised kernel backend (see ``src/repro/kernels``): when
numpy is importable it is the backend, and without it the pure
backend gives bit-identical results.
"""

from setuptools import setup

setup(
    extras_require={
        "numpy": ["numpy>=1.24"],
    },
)
