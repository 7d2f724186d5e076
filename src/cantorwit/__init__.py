"""Exact computation in groups of prefix-exchange homeomorphisms of the
Cantor space: canonical clopen sets, prefix-map arithmetic, compression
witnesses, and commutator/normal-word certificates."""

from .clopen import ClopenSet, canonicalize, cylinder, empty_set, whole_space
from .compression import (TriCover, join_compression, min_cover_3, transporter,
                          wandering_base, wandering_witness, wanders)
from .errors import (ArityMismatchError, ParseError, PreconditionError,
                     ToolkitError, VerificationError)
from .literals import parse_clopen, parse_element
from .prefixmap import PrefixMap, identity, onto_transporter, patch, sigma_swap
from .witnesses import (Certified, Claim2Result, Claim3Result, CommutatorWord, Decomposition,
                        NormalWord, SimpleWitness, claim1_transporter,
                        claim2_factorization, claim3_witness, commutator,
                        commuting_chain, decompose2, derived_conjugator, monolith_witness,
                        shift_identity_check, simple_witness, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "ClopenSet", "canonicalize", "cylinder", "empty_set", "whole_space",
    "PrefixMap", "identity", "onto_transporter", "patch", "sigma_swap",
    "TriCover", "join_compression", "min_cover_3", "transporter",
    "wandering_base", "wandering_witness", "wanders",
    "NormalWord", "CommutatorWord", "Certified", "SimpleWitness", "Decomposition", "Claim2Result",
    "Claim3Result",
    "commutator", "decompose2", "derived_conjugator", "shift_identity_check",
    "monolith_witness",
    "simple_witness", "claim1_transporter", "claim2_factorization",
    "claim3_witness", "commuting_chain", "verify_certificate",
    "parse_clopen", "parse_element",
    "ToolkitError", "ArityMismatchError", "ParseError", "PreconditionError",
    "VerificationError",
    "__version__",
]
