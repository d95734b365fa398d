"""sglap: signed-graph Laplacian spectra, eigenvalue bounds, and verification.

The package exports each module's ``__all__``; the lists are disjoint.
"""

from .balance import *
from .bounds import *
from .harness import *
from .sgraph import *
from .spectra import *

__version__ = "0.1.0"
