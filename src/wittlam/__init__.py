"""Exact arithmetic for truncated big Witt vectors, universal lambda-rings,
and filtered lambda-ring structures."""

from .errors import (BoundExceededError, ExactDivisionError, InputError,
                     IntegralityError, LubinHypothesisError, MembershipError,
                     PrimeWindowError, RelationViolationError,
                     RingMismatchError, UnsupportedIdealError,
                     UnsupportedRingError, WilkersonError, WittlamError)
from .ground import (EpsIdeal, GroundRing, PrimeIdeal, PrimeSet, RingElement,
                     XAdicIdeal, binomial, is_p_divisible, parse_ring)
from .lambda_witt import (LambdaElem, WittVec, coalgebra_check, exp_iso,
                          exp_iso_inv, filtration_member, ghost, ghosts,
                          lambda_adams, lambda_add, lambda_mul, lambda_neg,
                          lambda_one, lambda_op, lambda_zero, witt_add,
                          witt_mul, witt_zero)
from .lubin import (CommutingProblem, conjugate_structure, hasse_check,
                    lubin_solve, random_unit_series)
from .report import Report
from .series import (SeriesRing, TruncSeries, compose, congruent_mod, revert,
                     xadic_valuation)
from .structures import (Carrier, LambdaStructure, adams_apply, axiom_check,
                         dual_iso_test, make_binomial_structure,
                         make_dual_structure, make_family_structure,
                         make_series_structure, standard_structure, validate)
from .sympoly import MPoly, universal_P, universal_Pcomp
from .universal import (GeneratorIndex, HomAssignment, hom_from_structure,
                        relation_V, relation_w, roundtrip_check,
                        structure_from_hom, universal_adams)

__version__ = "0.1.0"
