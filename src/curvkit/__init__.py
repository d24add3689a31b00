"""curvkit: exact symbolic curvature for coordinate metrics.

Parse a chart/metric file, build the curvature tensors and the derived
operators over an exact expression kernel, decide tensor identities with
witnesses, and classify the curvature-restricted structures a metric admits.

The public names below are bound on the first access of any of them, so
`import curvkit.cli` loads only the modules the command it runs needs.
"""

__version__ = "0.1.0"

__all__ = [
    "Atom", "Expression", "ExprError", "ZERO", "ONE", "format_expression",
    "Chart", "ChartError",
    "MetricSpec", "ParseError", "DegenerateMetricError", "parse_metric_file",
    "parse_identity",
    "Tensor", "Metric", "Connection", "TensorError", "christoffel",
    "covariant_derivative", "kulkarni_nomizu", "endo_square", "format_dump",
    "CurvatureBundle",
    "check_identity", "evaluate_tensor_ast", "dot_action", "tachibana",
    "two_form_recurrence", "one_form_recurrence", "recurrent_tensor",
    "ricci_decompose", "pure_radiation", "compatibility_check",
    "compatible_space", "weakly_ricci_symmetric",
    "classify", "compare_reports", "StructureReport", "ConditionResult",
    "CONDITION_NAMES",
    "__version__",
]


def __getattr__(name):
    """Import every module and bind every public name, once (PEP 562).

    Binding them all rebinds `classify` to the function even where the
    submodule curvkit.classify was imported first and bound its name."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .expr import (
        Atom, Expression, ExprError, ZERO, ONE, format_expression)
    from .chart import Chart, ChartError
    from .parsing import (
        MetricSpec, ParseError, DegenerateMetricError, parse_metric_file,
        parse_identity)
    from .tensor import (
        Tensor, Metric, Connection, TensorError, covariant_derivative,
        kulkarni_nomizu, endo_square, format_dump, dot_action, tachibana)
    from .curvature import CurvatureBundle, christoffel, evaluate_tensor_ast
    from .operators import (
        check_identity, two_form_recurrence, one_form_recurrence,
        recurrent_tensor, ricci_decompose, pure_radiation,
        compatibility_check, compatible_space, weakly_ricci_symmetric)
    from .classify import (
        classify, compare_reports, StructureReport, ConditionResult,
        CONDITION_NAMES)
    public = locals()
    globals().update((k, public[k]) for k in __all__ if k in public)
    return globals()[name]
