"""Biquaternion algebra and the square roots of -1.

The library constructs and classifies the roots of -1 among the
biquaternions (quaternions with complex components): the nontrivial
family cosh(t) mu + sinh(t) nu I with perpendicular unit pure directions,
plus the degenerate roots q = mu and q = +/-I. The oracle module adds
seeded sampling, an exhaustive coefficient-lattice census and Newton
refinement as numerical evidence that no further families exist.

The oracle module and its names are imported on first access, so
``import biquat`` does not load numpy.
"""

import importlib

from .algebra import (
    DEFAULT_TOL,
    Biquaternion,
    PureUnit,
    Quaternion,
    biquat_mul,
    dot_cross,
    quat_mul,
    scalar_vector_split,
)
from .roots import (
    DecomposedForm,
    ImaginaryUnit,
    Nontrivial,
    NotRoot,
    PerpendicularityError,
    Residuals,
    RootClassification,
    TheoremViolationError,
    UnitPure,
    classify_coefficients,
    classify_root,
    constraint_residuals,
    decompose,
    make_nontrivial_root,
    recover_parameter,
)

__version__ = "0.1.0"

def __getattr__(name: str):
    # PEP 562: the oracle module, which needs numpy, loads on first use.
    # Only unbound names reach here; those of __all__ are the oracle's.
    if name == "oracle" or name in __all__:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Biquaternion",
    "DEFAULT_TOL",
    "DecomposedForm",
    "ImaginaryUnit",
    "LatticeHit",
    "LatticeSpec",
    "NonConvergenceError",
    "Nontrivial",
    "NotRoot",
    "PerpendicularityError",
    "PureUnit",
    "Quaternion",
    "Residuals",
    "RootClassification",
    "SearchReport",
    "TermTable",
    "TheoremViolationError",
    "UnitPure",
    "biquat_mul",
    "classify_coefficients",
    "classify_root",
    "constraint_residuals",
    "decompose",
    "dot_cross",
    "format_terms",
    "lattice_search",
    "make_nontrivial_root",
    "quat_mul",
    "recover_parameter",
    "refine_root",
    "sample_perpendicular",
    "sample_root",
    "sample_unit_pure",
    "scalar_vector_split",
    "term_table",
]
