"""resverify: exact sparse polynomial arithmetic, fraction-free
resultant elimination, and a verification harness for the curvature
classification's polynomial identities."""

from .catalog import (CoreCatalog, DegreeTooLow, InvalidParameters,
                      build_core, manifest, reduce_to_z)
from .checks import CHECK_NAMES, CheckOutcome, UnknownCheck, run_check
from .kernels import BACKEND as KERNEL_BACKEND
from .parser import (DuplicateName, ExprSyntaxError, ForwardReference,
                     Manifest, NegativeExponent, UnknownName, format_poly,
                     load_manifest, parse)
from .poly import (MAX_EXPONENT, VAR_NAMES, ExponentOverflow, InexactDivision,
                   MissingAssignment, MultiPoly, ZeroDivisor, gcd,
                   horner, pseudo_division, variables)
from .ratio import RAT_BACKEND, Rat
from .resultant import (BothConstant, ComputationTimeout, ZeroInput,
                        bareiss_det, gcd_subresultant, resultant,
                        resultant_interp, sylvester)
from .sweep import (CaseResult, SweepConfig, SweepReport, UsageError,
                    expected_exceptions, run_case, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "BothConstant", "CHECK_NAMES", "CaseResult", "CheckOutcome",
    "ComputationTimeout", "CoreCatalog", "DegreeTooLow", "DuplicateName",
    "ExponentOverflow", "ExprSyntaxError", "ForwardReference",
    "InexactDivision", "InvalidParameters", "KERNEL_BACKEND", "MAX_EXPONENT",
    "Manifest", "MissingAssignment", "MultiPoly", "NegativeExponent",
    "RAT_BACKEND", "Rat", "SweepConfig", "SweepReport",
    "UnknownCheck", "UnknownName", "UsageError", "VAR_NAMES", "ZeroDivisor",
    "ZeroInput", "bareiss_det", "build_core", "expected_exceptions",
    "format_poly", "gcd", "gcd_subresultant", "horner", "load_manifest",
    "manifest", "parse", "pseudo_division", "reduce_to_z",
    "resultant", "resultant_interp", "run_case", "run_check", "run_sweep",
    "sylvester", "variables",
]
