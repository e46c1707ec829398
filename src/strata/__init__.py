"""Stratified-ontology instance checking via nested path automata.

Pipeline: parse a KB, normalize the TBox, decide stratifiability, compile a
query concept into a nested two-way automaton, and evaluate it over the ABox
by product reachability; a saturation oracle and a QBF-derived benchmark
generator keep the evaluators honest.
"""

from .kb import (
    AboxGraph,
    And,
    BOT,
    ConjSub,
    ExLeft,
    ExRight,
    Exists,
    Gci,
    KbError,
    ParseError,
    Role,
    Sub,
    TBox,
    TOP,
    format_axiom,
    format_concept,
    format_kb,
    kb_from_normal,
    normalize,
    normalize_kb,
    parse_kb,
    validate_normal_form,
)
from .stratify import (
    LevelMap,
    NotStratifiedError,
    StratResult,
    Violation,
    check_stratification,
    heights_for,
    verify_preorder,
)
from .saturate import (
    DerivationStep,
    SatResult,
    TypeCloser,
    oracle_entails,
    replay_derivation,
    saturate_abox,
)
from .rewrite import (
    AutoTest,
    AutState,
    ConceptTest,
    NestedNfa,
    RoleStep,
    TOP_TEST,
    build_automaton,
    export_automaton,
)
from .evaluate import (
    Evaluator,
    IqResult,
    RunStep,
    compile_kb,
    entails_iq,
    validate_witness,
)
from .qbf import Qbf3Dnf, QbfKb, qbf_to_kb, qbf_valid_bruteforce, random_qbf
from .fuzz import FuzzReport, random_stratified_kb, run_case, run_fuzz
