"""hopla: exact computer algebra for homotopy associative, pre-Lie and Lie
structures, their cofree coderivations, and the commutator functors between
them.  All arithmetic is exact rational; every identity is checked to zero,
never to a tolerance."""

from .graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                     OperationFamily, check_homogeneous, compose_insert,
                     family_degree, space, word_degree)
from .permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2, Folded,
                           failing_symmetry_generator, koszul_sign,
                           precompose_symmetrized, sign, unshuffles)
from .equations import (ASSOC, LIE, PRELIE, EquationFlavor,
                        check_prelie_n_two_ways, circle_bracket, circle_product,
                        nary_family, nary_residual, residual)
from .coalgebra import (PERM, TENSOR, WEDGE, Coderivation, check_coderivation,
                        coalgebra_map, comultiply,
                        extend_coderivation, project_pi,
                        square_cogenerator_component, square_cogenerator_fold,
                        wedge_normalize)
from .functors import (commutator, desuspend_family, nary_embed, suspend_family,
                       suspend_operation)
from .docio import AlgebraDocument, parse_document, serialize_document
from .drivers import (Report, generate_random, run_check, run_coderive,
                      run_derive, run_selftest)

__version__ = "0.1.0"
