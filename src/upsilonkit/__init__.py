"""Exact computation of the upsilon and secondary upsilon concordance
invariants of torus knots, their mirrors and connected sums."""

from .plfun import (
    ExtRational,
    Infinity,
    NEG_INF,
    POS_INF,
    PLFunction,
    format_ext,
    is_finite,
    pl_add,
    pl_constant,
    pl_equal,
    pl_from_samples,
    pl_lower_envelope,
    pl_neg,
)
from .staircase import (
    alexander_oracle,
    alexander_torus,
    build_staircase,
    semigroup_runs,
    staircase_steps,
    upsilon_staircase,
)
from .cfk import (
    BifilteredComplex,
    Generator,
    complex_from_json,
    complex_to_json,
    dual,
    from_staircase,
    shift_filtration,
    tensor,
    unknot_complex,
    validate,
)
from .upsilon import (
    InvalidComplexError,
    JumpReport,
    candidate_parameters,
    gamma2,
    gamma_at,
    is_jump_value,
    jump_values,
    upsilon2,
    upsilon_pl,
)
from .expr import (
    ComplexTooLargeError,
    ExprSyntaxError,
    KnotExpr,
    Term,
    Torus,
    Unknot,
    expected_generators,
    expr_to_str,
    parse_expr,
    realize,
)

__version__ = "0.1.0"
