"""Minimum-dimension unit-vector models of tournaments.

The library analyzes the Seidel spectrum of a tournament, computes the
least dimension in which the tournament embeds as equiangular unit
vectors with one complex angle along every arc, constructs and verifies
explicit embeddings, and certifies the tight configurations.
"""

from .codes import (BlockFormCert, DrtCatalog, DrtParams, TightCodeCount,
                    TightnessReport, block_form_check, classify_code,
                    count_tight_codes, drt_catalog, drt_minus_vertex_check,
                    is_doubly_regular, skew_hadamard_check,
                    verify_no_double_zero_spectrum)
from .errors import InputError, InternalConsistencyError
from .representation import (Embedding, EmbeddingVerdict, RepReport, TypeClass,
                             TypeVariant, analyze, classify_type, embed,
                             gram_matrix, multiplicity_profile, optimal_alpha,
                             rep_dimension, verify_embedding, witness_shift)
from .spectral import (DEFAULT_TOLERANCES, CharIdentityResult, InterlacingVerdict,
                       MainSpectrum, SpectralLine, Spectrum, Tolerances,
                       char_identity_residual, eigensystem, exact_integer_eigenvalue,
                       exact_ones_resolvent, group_spectrum, seidel_matrix,
                       shifted_main_spectrum, spectrum_of)
from .tournament import (CanonicalForm, Tournament, add_vertex, adjacency, build,
                         canonical_form, canonical_representative, d_optimal_block,
                         delete_vertex, dominated_extension, enumerate_tournaments,
                         from_adjacency, parse_catalog, parse_line, paley_tournament,
                         random_tournament, relabel, seidel_squared, switch,
                         switching_class)

__version__ = "0.1.0"
