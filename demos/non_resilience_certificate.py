"""A certified integrality gap: two far-apart 4-cycles with k = 3.

At radius 1 the fractional cover spends 4/3 per cycle (8/3 <= 3), but an
integral solution would need four centers, so the relaxation is feasible yet
unrecoverable: the certifier reports that the instance cannot be
2-perturbation resilient. The oracle confirms the true optimum needs radius 2
and is not even unique.
"""

from resilient_cluster import (
    KCENTER,
    Instance,
    brute_force,
    brute_force_kminus1_check,
    certify,
    falsify_resilience,
)


def two_rings(size=4, cross=10):
    def d(u, v):
        if (u < size) == (v < size):
            a = abs(u - v) % size
            return min(a, size - a)
        return cross

    n = 2 * size
    return Instance(
        tuple(tuple(d(u, v) if u != v else 0 for v in range(n)) for u in range(n)),
        k=3,
    )


inst = two_rings()
print(f"instance: two 4-cycles, n={inst.n}, k={inst.k}")

verdict = certify(inst)
print(f"\ncertifier verdict: {verdict.kind} at LP radius {verdict.lp_radius}")
witness = verdict.fractional_witness
print(f"fractional cover value: {witness.bound} (y = {[str(v) for v in witness.y]})")
assert verdict.kind == "NOT_2PR"

oracle = brute_force(inst, KCENTER)
print(f"\noracle: optimal radius {oracle.cost} > LP radius {verdict.lp_radius}")
print(f"unique optimum: {oracle.unique}")
assert oracle.cost > verdict.lp_radius

report = falsify_resilience(inst, KCENTER)
print(f"falsifier: {report.verdict}")
spec, alternate = report.witness
print(f"witness perturbation edges: {spec.edges or '(identity: optimum already tied)'}")
print(f"alternate optimal clusters: {alternate.clusters()}")

print(f"\n(k-1)-center check confirms non-uniqueness: {brute_force_kminus1_check(inst, oracle)}")
print("the fractional LP outcome is a sound certificate: not 2-perturbation resilient")
