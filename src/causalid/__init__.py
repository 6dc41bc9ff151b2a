"""Causal effect identification engine.

Decides whether an interventional distribution P_t(s) is identifiable from
observational data given a causal DAG with latent variables, emits a
symbolic estimand when it is, compiles a machine-checkable do-calculus
derivation (rules 2 and 3 plus standard probability manipulations) for the
estimand, and validates everything against a brute-force numerical oracle
on small discrete models.
"""

from .ccomp import CComponentPartition, c_components, observable_blocks
from .docalc import (
    Derivation,
    DerivationStep,
    DoSentence,
    Verdict,
    derivation_from_json,
    derivation_to_json,
    derivation_to_text,
    derive_effect,
    expand_rule1,
    verify_derivation,
)
from .expr import (
    JointMarginal,
    One,
    PositivityError,
    ProbExpr,
    Product,
    Quotient,
    Sum,
    canonicalize,
    evaluate_grid,
    expr_from_json,
    expr_to_json,
    expr_to_text,
    free_vars,
    pretty,
    simplify,
)
from .graph import CausalGraph, CycleError, GraphError, GraphParseError, parse_graph_text
from .ident import (
    IdentResult,
    QFactor,
    causal_effect,
    compute_q,
    factorize_components,
    identify,
    sum_to_ancestral,
)
from .oracle import (
    CheckReport,
    DiscreteModel,
    DoEvaluator,
    JointTable,
    WitnessReport,
    check_estimand,
    ci_check,
    interventional_truth,
    observational_joint,
    random_model,
    witness_search,
)
from .sep import RuleEvidence, RuleInstance, SeparationQuery, d_separated, rule_applicable, z_w

__version__ = "0.1.0"

__all__ = [
    "CausalGraph",
    "CycleError",
    "GraphError",
    "GraphParseError",
    "parse_graph_text",
    "SeparationQuery",
    "RuleInstance",
    "RuleEvidence",
    "d_separated",
    "rule_applicable",
    "z_w",
    "CComponentPartition",
    "c_components",
    "observable_blocks",
    "One",
    "JointMarginal",
    "Sum",
    "Product",
    "Quotient",
    "ProbExpr",
    "PositivityError",
    "free_vars",
    "evaluate_grid",
    "canonicalize",
    "simplify",
    "pretty",
    "expr_to_text",
    "expr_to_json",
    "expr_from_json",
    "QFactor",
    "IdentResult",
    "sum_to_ancestral",
    "factorize_components",
    "identify",
    "compute_q",
    "causal_effect",
    "DoSentence",
    "Derivation",
    "DerivationStep",
    "Verdict",
    "derive_effect",
    "expand_rule1",
    "verify_derivation",
    "derivation_to_text",
    "derivation_to_json",
    "derivation_from_json",
    "DiscreteModel",
    "JointTable",
    "DoEvaluator",
    "CheckReport",
    "WitnessReport",
    "random_model",
    "observational_joint",
    "interventional_truth",
    "check_estimand",
    "ci_check",
    "witness_search",
    "__version__",
]
