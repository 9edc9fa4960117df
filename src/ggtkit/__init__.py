"""Toolkit for ordering-principle CNF families and their short refutations.

The package generates the GT / GGT / GT_pi clause families over ordered-pair
variables x[i,j] (with x[i,j] and -x[j,i] identified), constructs explicit
resolution proof objects for them (the O(n^3) GT refutations, the bipartite
partial order derivations, polynomial pool refutations of GGT, and tree-like
regular refutations with input lemmas), checks proofs against several
structural profiles, and runs a restart-free DPLL clause-learning solver on
the same formulas.
"""

from ggtkit.literals import encode_lit, decode_lit, num_vars
from ggtkit.formulas import FormulaInstance, gen_gt, gen_ggt, gen_gt_pi, guards
from ggtkit.bpo import Bpo, associated_bpo, bpo_clause
from ggtkit.proofs import Derivation, ProofNode, apply_rule
from ggtkit.checker import check_proof
from ggtkit.gtproofs import build_pn, build_ppi

__all__ = [
    "encode_lit", "decode_lit", "num_vars",
    "FormulaInstance", "gen_gt", "gen_ggt", "gen_gt_pi", "guards",
    "Bpo", "associated_bpo", "bpo_clause",
    "Derivation", "ProofNode", "apply_rule",
    "check_proof",
    "build_pn", "build_ppi",
]
