"""Exact growth analysis for filtered and graded algebras and their modules.

The library computes dimension sequences of monomial-presented algebras and
modules, fits eventual (quasi-)polynomials by exact finite differences,
extracts growth dimension and multiplicity, turns coefficient sequences into
rational generating functions with certified root-location analysis, and
verifies exactness and additivity of multiplicities on short exact
sequences. All arithmetic is exact over the rationals, and no result holds
a float.
"""

from .exactnum import (BinomialForm, HilbertSamuelPolynomial, Polynomial,
                       detect_polynomial, falling_binom, finite_difference,
                       from_binomial_basis, to_binomial_basis)
from .presentations import (AdmissibilityReport, AdmissibleOrder, AlgebraSpec,
                            ModuleSpec, RefilterError, Relation, SpecError,
                            Summand, check_admissibility,
                            check_semicommutative_leading,
                            count_monomials_by_weight, defining_relations,
                            divide_by_weights, filtration_layer_dim,
                            normal_order_weyl, refilter, validate_algebra,
                            validate_module, zero_module)
from .hilbert import (DimensionSequence, algebra_dim_sequence,
                      hilbert_series_monomial_quotient,
                      minimalize_ideal, module_dim_sequence,
                      module_hilbert_series, standard_monomial_counts)
from .poincare import (DenominatorAnalysis, QuasiPolynomial, RationalAnalysis,
                       RationalSeries, Recurrence, denominator_analysis,
                       fit_quasi_polynomial, minimal_recurrence,
                       quasi_polynomial, rational_analysis,
                       series_from_recurrence)
from .samuel import GrowthReport, classify_growth, gk_dimension, multiplicity
from .axioms import (AxiomReport, ChainReport, HolonomyCatalog,
                     HolonomyReport, SESSpec, TorsionReport,
                     chain_bound_check, check_multiplicity_axioms,
                     holonomic_defect, ses_dimension_triple,
                     torsion_check_cyclic, validate_ses)
from .catalog import (CatalogEntry, catalog_entry, catalog_ids,
                      cumulative_sequence, graded_values)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "AdmissibleOrder", "AlgebraSpec", "AxiomReport",
    "BinomialForm", "CatalogEntry", "ChainReport", "DenominatorAnalysis",
    "DimensionSequence", "GrowthReport", "HilbertSamuelPolynomial",
    "HolonomyCatalog", "HolonomyReport", "ModuleSpec", "Polynomial",
    "QuasiPolynomial", "RationalAnalysis", "RationalSeries",
    "Recurrence", "RefilterError", "Relation", "SESSpec", "SpecError",
    "Summand", "TorsionReport", "algebra_dim_sequence", "catalog_entry",
    "catalog_ids", "chain_bound_check", "check_admissibility",
    "check_multiplicity_axioms", "check_semicommutative_leading",
    "classify_growth", "count_monomials_by_weight", "cumulative_sequence",
    "defining_relations", "denominator_analysis", "detect_polynomial",
    "divide_by_weights", "falling_binom", "filtration_layer_dim",
    "finite_difference", "fit_quasi_polynomial", "from_binomial_basis",
    "gk_dimension", "graded_values", "hilbert_series_monomial_quotient",
    "holonomic_defect", "minimal_recurrence", "minimalize_ideal",
    "module_dim_sequence", "module_hilbert_series", "multiplicity",
    "normal_order_weyl", "quasi_polynomial", "rational_analysis", "refilter",
    "series_from_recurrence", "ses_dimension_triple",
    "standard_monomial_counts", "to_binomial_basis", "torsion_check_cyclic",
    "validate_algebra", "validate_module", "validate_ses", "zero_module",
]
