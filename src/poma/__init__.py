"""poma: a workbench for computing with finite positive modal algebras."""

from .algebras import (FiniteAlgebra, ModalAlgebra, ValidationReport, bottom,
                       is_pk4, is_pma, is_ps4, join, meet, top, validate)
from .congruences import (CepResult, Partition, cg, cg_dl, cg_k4, con_lattice,
                          has_cep, is_congruence, is_fsi, is_si, is_simple,
                          is_simple_lemma45, is_well_connected, monolith,
                          principal_congruences)
from .corpus import CORPUS_NAMES, FIG2_NAMES, FIG3_NAMES, corpus, corpus_by_spec
from .duality import (DualSpace, Envelope, boolean_envelope, complex_algebra,
                      dual_of_hom, dual_space, is_p_morphism, join_irreducibles,
                      kappa, kripke_eval, open_filter_congruence_iso_check,
                      open_filters, prime_filters, upset_algebra)
from .enumeration import (EnumerationTask, default_cache_dir, enum_algebras,
                          enum_bdl, enum_posets)
from .errors import (BudgetError, ConsistencyError, ParseError, PomaError,
                     PreconditionError, StructuralError)
from .free import (FreeAlgebraResult, Figure1Report, GrowthReport, build_phi,
                   fact52_check, figure1_algebra, free_over, free_zero,
                   lemma53_growth, same_one_var_theory, sigma_terms,
                   verify_figure1)
from .morphisms import (Hom, automorphisms, canonical_algebra, canonical_form,
                        embeddings, extend_hom, generating_set, homs, hs_si,
                        identity_hom, is_iso, is_retract, product, quotient,
                        si_quotients, subalgebra_generated, subuniverses)
from .terms import (Box, Diamond, Equation, Join, Leq, Meet, ONE,
                    PosExistSentence, QuasiEquation, Sequent, Term, Var, ZERO,
                    eval_term, holds_eq, holds_pos_exist, holds_quasi,
                    parse_equation, parse_pos_exist, parse_quasi,
                    parse_sequent, parse_term, pos_exist_to_str, quasi_to_str,
                    rho, tau, term_to_str)
from .varieties import (BatteryReport, SplittingVerdict, VarietyHandle,
                        covers_poset, equals, equation_separation,
                        figure4_handles, includes, lemma64_66_properties,
                        lemma92_battery, member_si, splitting_c3a,
                        splitting_c3b, splitting_d3, theorem610_battery,
                        variety_of)
from .completeness import (OpenProblemRow, QuasiClassification, Verdict,
                           asc_necessary, classify_quasi, is_hsc_pk4, is_psc,
                           is_sc_pk4, lemma22_check, open_problem_scan,
                           theorem93_battery)

__all__ = [name for name in dir() if not name.startswith("_")]
