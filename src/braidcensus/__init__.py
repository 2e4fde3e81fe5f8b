"""Verification and enumeration of braid-group homomorphisms into
symmetric groups: exhaustive censuses, commutator-subgroup censuses,
block-lift cohomology, and an exact braid word oracle."""

from .perm import Permutation, GeneratedGroup
from .homs import BraidHom
from .census import census, CensusRecord
from .commutator import CommutatorHom, commutator_census

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "GeneratedGroup",
    "BraidHom",
    "census",
    "CensusRecord",
    "CommutatorHom",
    "commutator_census",
    "__version__",
]
