"""The benchmark's seeded mutants are well-formed proofs that the profile
each names rejects.

The benchmark's `verify` op checks every mutant and counts an exception
there as a failed op, so a mutant must get past `validate_structure`.
"""

from ggtkit.checker import check_proof
from ggtkit.formulas import gen_ggt
from ggtkit.lr_engine import build_pool_with_stats, build_regrti_with_stats
from perfbench.workloads import Artifact, mutants


def test_mutants_are_well_formed_and_rejected_by_their_profile():
    count = 0
    for seed in range(3):
        inst = gen_ggt(6, seed)
        for kind, build in (("pool", build_pool_with_stats), ("regrti", build_regrti_with_stats)):
            proof = build(inst)[0]
            art = Artifact(f"ggt6-g{seed}-{kind}", kind, inst)
            for mutant_seed in range(4):
                for mutant, profile in mutants(art, proof, mutant_seed):
                    mutant.validate_structure()
                    report = check_proof(mutant, inst, (profile,))
                    assert any(v.profile == profile for v in report.violations), (art.key, profile)
                    count += 1
    assert count == 3 * 2 * 4 * 4  # two pivot and two lemma mutants each
