"""The report algebra: exact values, rule-based bounds, and certificates.

Every report carries its provenance; every bound names the rule that
produced it; certificates serialize, reload and re-verify.  A tampered
certificate is rejected with the offending vertex as a witness.
"""
import json

from zpindex import (
    EquivariantMapCert,
    IndexReport,
    MapEvidence,
    apply_certificate,
    apply_dimension_bound,
    coindex_join_lower,
    coindex_transport,
    exact_index_finite_free,
    index_of_join_of_finite,
    join_power,
    mismatch_shift,
    periodic_point_complex,
    standard_join_model,
    verify_certificate,
)

p = 7
base = periodic_point_complex(mismatch_shift(2), p)
print(f"period-{p} set of the m=2 mismatch shift: {base.n_vertices} points")

# exact values where they are theorems
single = exact_index_finite_free(base)
triple = index_of_join_of_finite([base] * 3)
print("\nsingle factor:", single.bounds_text())
print("three factors:", triple.bounds_text())
for line in triple.provenance:
    print("  provenance:", line)

# the same number from the join superadditivity rule, one step at a time
acc = single
for _ in range(2):
    lo = coindex_join_lower(acc, single)
    acc = IndexReport.exact_value(p, lo, f"iterated join rule -> {lo}")
print("iterated join rule gives:", acc.coind_lower)

# transport along a structural map raises a target's lower bound
target = IndexReport.nonempty_free(p)
moved = coindex_transport(MapEvidence.pair_embedding(), triple, target)
print("\nafter transport:", moved.bounds_text())

# dimension caps the index from above for free complexes
joined = join_power(base, 3)
capped = apply_dimension_bound(moved, joined)
print("after the dimension bound:", capped.bounds_text())
print("  provenance:", capped.provenance[-1])

# certificates: serialize, reload, re-verify; tampering is caught
model = standard_join_model(3, 2)
cert = EquivariantMapCert(3, 1, tuple(range(model.n_vertices)), "self")
doc = json.dumps(cert.to_json())
good = verify_certificate(EquivariantMapCert.from_json(json.loads(doc)), model)
print("\nreloaded certificate accepted:", good.accepted)
print("bound it certifies:",
      apply_certificate(good, IndexReport.nonempty_free(3)).coind_lower)

vmap = list(cert.vertex_map)
vmap[0], vmap[1] = vmap[1], vmap[0]
bad = verify_certificate(EquivariantMapCert(3, 1, tuple(vmap), "self"), model)
print("tampered certificate accepted:", bad.accepted,
      "| reason:", bad.reason, "| witness:", bad.witness)
