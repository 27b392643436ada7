"""Chase-based reasoning for existential rules with equality.

The library runs the non-oblivious renaming chase, answers Boolean
conjunctive queries, computes the standard and singularisation equality
axiomatisations, and decides acyclicity (chase-termination) membership
directly on rule sets with equality as well as on their equality-free
axiomatisations.

The function `chase` shadows the submodule `eqchase.chase` as an
attribute of the package; `from eqchase.chase import ...` and
`sys.modules["eqchase.chase"]` reach the module.
"""

from .model import (
    EQ,
    EGD,
    STAR,
    TGD,
    Atom,
    AtomSet,
    BCQ,
    Constant,
    Functional,
    Ontology,
    Predicate,
    Rule,
    RuleSet,
    SkolemSymbol,
    SkolemisedTGD,
    Variable,
    Violation,
    apply_syntactic,
    skolemise,
    validate,
    validate_query,
    validate_ruleset,
)
from .chase import (
    ChaseEngine,
    ChaseLimits,
    ChaseOutcome,
    Entailed,
    InvalidInputError,
    LimitExceeded,
    NotEntailed,
    Terminated,
    Unknown,
    apply,
    chase,
    entails,
    find_applicable,
    homomorphism,
    is_applicable,
    match_conjunction,
    satisfies,
)
from .axiomatisation import (
    AxiomatisedRuleSet,
    canonical_query_singularisation,
    canonical_singularisation,
    singularisations,
    singularise_conjunction,
    singularise_query,
    standard_axiomatisation,
)
from .acyclicity import (
    CheckReport,
    SaturationOutcome,
    check_pipeline,
    critical_instance,
    emfa_set,
    is_emfa,
    is_mfa,
)
from .parser import Diagnostic, ParseError, Program, parse, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
