"""rlk: exact kernel for restricted Leibniz, diassociative, Zinbiel and
pre-Lie structures over prime fields."""

__version__ = "0.1.0"

from .errors import DomainError, UsageError
from .scalars import LambdaPoly, is_prime, lambda_poly_bracket
from .algebra_core import (
    Algebra,
    BasisJacobsonPMap,
    MatrixPowerPMap,
    RightPowerPMap,
    TablePMap,
    ZeroPMap,
    enumeration_cap,
)
from .identities import (
    CheckReport,
    Coverage,
    Witness,
    check_dias,
    check_dleib_jacobson_bracket,
    check_leibniz,
    check_prelie,
    check_restricted_leibniz,
    check_restricted_lie,
    check_restricted_prelie,
    check_zinbiel,
    jacobson_si,
    sweep_dleib_jacobson,
)
from .dialgebra import (
    Dialgebra,
    as_dialgebra,
    check_commutative_diagram,
    check_lemdias,
    dialgebra_from_operator,
    dleib,
    matrix_dialgebra,
    sweep_lemdias,
)
from .free_structures import (
    GradedBasisAlgebra,
    QuotientPresentation,
    check_dias_free,
    check_zinbiel_factorial,
    check_zinbiel_free,
    das_quotient,
    free_dias,
    free_zinbiel,
    truncated_ideal_quotient,
    ud_p,
    word_ambient,
)
from .envelope import (
    LeibnizModule,
    adjoint_module,
    check_module_axioms,
    check_restricted_module,
    module_roundtrip,
    ulp_relations_check,
    ulp_truncated,
    zero_module,
)
from .prelie_tensor import (
    TensorAlgebraHandle,
    TensorFormulaPMap,
    check_corollary,
    check_tensor_restricted,
    prelie_to_lie,
    tensor_pmap,
    tensor_pmap_factors,
    tensor_prelie,
)
from .algfile import format_algebra, parse_algebra, parse_algebra_file, read_algebra_file
from .cli import ReportDocument, build_parser, main
