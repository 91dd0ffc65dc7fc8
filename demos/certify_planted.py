"""Certify a planted resilient instance and watch four solvers agree.

Generates a symmetric planted instance, certifies it through the LP, and
cross-checks the result against the brute-force oracle and both
2-approximation recoveries. On a resilient instance all four must coincide.
"""

from resilient_cluster import (
    GONZALEZ,
    HOCHBAUM_SHMOYS,
    KCENTER,
    GeneratorConfig,
    brute_force,
    certify,
    cost,
    generate,
    recover_via_2approx,
    verify_planted,
)

cfg = GeneratorConfig(n=12, k=3, sigma=4, seed=7)
inst, planted = generate(cfg)
print(f"instance: n={inst.n}, k={inst.k}, exact={inst.exact}")
print(f"planted clusters: {planted.clusters()}")

oracle = brute_force(inst, KCENTER)
print(f"\noracle optimum: radius={oracle.cost}, unique={oracle.unique}")
assert oracle.best.partition_key() == planted.partition_key()

verdict = certify(inst)
print(f"certifier: {verdict.kind} at LP radius {verdict.lp_radius}")
assert verdict.kind == "OPTIMAL"
assert verdict.lp_radius == oracle.cost
assert verdict.clustering.partition_key() == oracle.best.partition_key()
print("LP radius equals the brute-force optimum and the partitions match.")

for algorithm in (GONZALEZ, HOCHBAUM_SHMOYS):
    clus = recover_via_2approx(inst, algorithm)
    radius = cost(inst, clus, KCENTER)
    same = clus.partition_key() == oracle.best.partition_key()
    print(f"{algorithm}: radius={radius}, equals optimum: {same}")
    assert same

violations = verify_planted(inst, oracle.best, KCENTER)
print(f"\nseparation checks on the optimum: {violations or 'all hold'}")
print("four-way agreement: oracle == LP == gonzalez == hochbaum-shmoys")
