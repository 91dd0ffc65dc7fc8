"""Outlier clustering through the spanning-tree dynamic program.

On a resilient outlier instance the optimal clusters are subtrees of the MST,
so the pipeline MST -> binary tree -> partition DP recovers the exact optimum
for every center-based objective: k-median, k-means, k-center, and summed
p-th powers. This script walks the pipeline and checks each objective against
the brute-force oracle and the outlier LP certifier.
"""

from resilient_cluster import (
    KCENTER,
    KMEANS,
    KMEDIAN,
    GeneratorConfig,
    binarize,
    brute_force,
    build_mst,
    certify,
    cost,
    generate,
    lp_norm,
    solve_outlier_clustering,
)

cfg = GeneratorConfig(n=12, k=2, z=2, sigma=4, seed=11, mode="outlier")
inst, planted = generate(cfg)
print(f"instance: n={inst.n}, k={inst.k}, z={inst.z}")
print(f"planted clusters: {planted.clusters()}, outliers: {sorted(planted.outliers)}")

tree = build_mst(inst)
print(f"\nMST edges: {tree}")
btree = binarize(tree, inst)
dummies = btree.size - inst.n
print(f"binary tree: {btree.size} nodes ({dummies} dummy), root {btree.root}")

for obj in (KMEDIAN, KMEANS, KCENTER, lp_norm(3)):
    clus = solve_outlier_clustering(inst, obj)
    value = cost(inst, clus, obj)
    oracle = brute_force(inst, obj)
    print(
        f"{obj.name:>8}: DP cost {value}, oracle {oracle.cost}, "
        f"outliers {sorted(clus.outliers)}, exact match: {value == oracle.cost}"
    )
    assert value == oracle.cost

verdict = certify(inst)
print(f"\noutlier LP certifier: {verdict.kind} at radius {verdict.lp_radius}")
kc = brute_force(inst, KCENTER)
assert verdict.lp_radius == kc.cost
assert verdict.clustering.outliers == kc.best.outliers
print("LP radius, clustering, and outlier set all match the oracle.")
