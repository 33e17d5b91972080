"""Separating words: exact solvers, language constructions, and witnesses."""

from .atlas import AtlasRow, AtlasTable, SeparationLevels, compute_atlas
from .cache import (CertificateCache, cached_certificate, sep_key, solve_cached,
                    store_certificate)
from .construct import (
    CanonicalTriple,
    CnResult,
    WitnessReport,
    ZkResult,
    canonical_triple,
    encode,
    farmand_dfa,
    free_word,
    lower_claim_value,
    search_C_n,
    search_z_k,
    state_limit_for_pairs,
    upper_claim_value,
    verify_witness,
    witness_pair,
)
from .dfa import (
    BudgetError,
    Dfa,
    accepts,
    combine,
    complement,
    dfa_from_text,
    dfa_to_text,
    enumerate_canonical,
    equivalent,
    includes,
    minimize,
    reverse,
    run,
)
from .lang import (
    build_G_k,
    build_H_k,
    build_L_k,
    finite_language,
    iter_words,
    segmented_closure,
    state_complexity,
    words_of_L_k,
)
from .lemmas import (
    DEFAULT_SEED,
    LemmaCheck,
    SuiteReport,
    known_ids,
    run_check,
    run_lemma_suite,
)
from .solver import (
    ENGINE_VERSION,
    DEFAULT_BUDGET,
    SearchBudget,
    SepCertificate,
    check_separates,
    exact_sep,
    lsep_lower_check,
    no_separator_up_to,
    separating_structure,
)

__version__ = "1.0.0"
