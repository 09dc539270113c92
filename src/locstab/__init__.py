"""Orthogonal state-set construction and local-stability certification.

A set of mutually orthogonal multipartite states is locally stable when
every orthogonality-preserving measurement available to a single party is
trivial (proportional to the identity).  The certificate computed here
checks, party by party, whether the span of the induced operators reaches
the full traceless dimension d**2 - 1.
"""

from . import constructions, numerics, stability, states
from .constructions import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = numerics.__all__ + states.__all__ + stability.__all__ + constructions.__all__
