"""Separating words: exact solvers, language constructions, and witnesses.

The package exports the library twin of each command; every other name is
imported from its module.  Importing the package binds every submodule but
`cli` (`sepwords.atlas`, `.cache`, `.construct`, `.dfa`, `.lang`,
`.lemmas`, `.solver`).
"""

from .atlas import compute_atlas
from .cache import CertificateCache
from .construct import verify_witness, witness_pair
from .dfa import BudgetError, Dfa, accepts, dfa_from_text, dfa_to_text
from .lang import build_G_k, build_H_k, build_L_k
from .lemmas import run_lemma_suite
from .solver import SearchBudget, SepCertificate, exact_sep

__all__ = [
    "exact_sep", "SepCertificate", "SearchBudget", "CertificateCache",
    "build_L_k", "build_G_k", "build_H_k",
    "witness_pair", "verify_witness", "run_lemma_suite",
    "compute_atlas", "Dfa", "accepts", "dfa_from_text", "dfa_to_text",
    "BudgetError",
]

__version__ = "1.0.0"
