"""Majorisation, Schur-Horn synthesis, and projections with prescribed diagonal.

The package decides majorisation constructively (explicit mixing steps),
synthesises Hermitian matrices with a prescribed diagonal and spectrum,
builds finite projections with a prescribed diagonal, and truncates the
infinite-dimensional construction for finitely described sequences --
including the integer-gap obstruction that rules some sequences out.

Each module owns its exports in its ``__all__``; the package re-exports
their union.
"""

from . import carpenter, io, linalg, majorization, schur, sequences
from .carpenter import *
from .io import *
from .linalg import *
from .majorization import *
from .schur import *
from .sequences import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *linalg.__all__,
    *majorization.__all__,
    *schur.__all__,
    *sequences.__all__,
    *io.__all__,
    *carpenter.__all__,
]
