"""Minimum-dimension unit-vector models of tournaments.

The library analyzes the Seidel spectrum of a tournament, computes the
least dimension in which the tournament embeds as equiangular unit
vectors with one complex angle along every arc, constructs and verifies
explicit embeddings, and certifies the tight configurations.

The names in _LAZY live in modules that analyze and embed never use; the
first access to one of them loads its module (PEP 562).
"""

from .codes import (BlockFormCert, DrtParams, TightnessReport, block_form_check,
                    classify_code, drt_minus_vertex_check, is_doubly_regular,
                    skew_hadamard_check)
from .errors import InputError, InternalConsistencyError
from .representation import (Embedding, EmbeddingVerdict, RepReport, TypeClass,
                             TypeVariant, analyze, classify_type, embed,
                             gram_matrix, verify_embedding)
from .spectral import (DEFAULT_TOLERANCES, MainSpectrum, SpectralLine, Spectrum,
                       Tolerances, eigensystem, exact_integer_eigenvalue,
                       exact_ones_resolvent, group_spectrum, seidel_matrix, spectrum_of)
from .tournament import (Tournament, add_vertex, adjacency, build, parse_catalog,
                         parse_line, seidel_squared)

__version__ = "0.1.0"

# name -> the private module that defines it
_LAZY = {
    **dict.fromkeys(("CanonicalForm", "canonical_form", "canonical_representative",
                     "d_optimal_block", "delete_vertex", "dominated_extension",
                     "enumerate_tournaments", "from_adjacency", "paley_tournament",
                     "random_tournament", "relabel", "switch", "switching_class"),
                    "_constructions"),
    **dict.fromkeys(("DrtCatalog", "TightCodeCount", "count_tight_codes", "drt_catalog",
                     "verify_no_double_zero_spectrum"), "_catalog"),
    **dict.fromkeys(("CharIdentityResult", "InterlacingVerdict", "char_identity_residual",
                     "multiplicity_profile", "shifted_main_spectrum", "witness_shift"),
                    "_shifts"),
}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
