"""Joins of periodic-point sets and their homology over prime fields.

A join of K+1 nonempty finite free sets is free, K-dimensional and
(K-1)-connected, which pins its index and coindex at exactly K.  The
homology side is computed by exact sparse elimination over F_p and agrees
with the product formula for the top Betti number.
"""
import time

from zpindex import (
    betti_numbers,
    exact_index_finite_free,
    index_of_join_of_finite,
    is_EnZp,
    join_power,
    mismatch_shift,
    periodic_point_complex,
    standard_join_model,
)

# ---------------------------------------------------------------------------
# The reference model in each dimension: joins of the p-point free orbit.
# ---------------------------------------------------------------------------
model = standard_join_model(3, 2)
print("two joined 3-point orbits:", model.cell_counts(),
      "= the complete bipartite graph on 3+3 vertices")
print("model report:", is_EnZp(model, 1))

# ---------------------------------------------------------------------------
# Periodic points as 0-dimensional complexes with the shift action.
# ---------------------------------------------------------------------------
p = 5
base = periodic_point_complex(mismatch_shift(1), p)
print(f"\nperiod-{p} set: {base.n_vertices} points,",
      f"free = {base.is_free}, exact index report:")
print(" ", exact_index_finite_free(base).to_json())

# ---------------------------------------------------------------------------
# Join twice and look at the homology: one nonzero reduced Betti number at
# the top, of size (N-1)^(K+1).
# ---------------------------------------------------------------------------
for copies in (2, 3):
    joined = join_power(base, copies)
    t0 = time.time()
    bv = betti_numbers(joined, p)
    report = index_of_join_of_finite([base] * copies)
    n = base.n_vertices
    print(f"\n{copies} copies: cells {joined.cell_counts()}")
    print(f"  reduced Betti over F_{p}: {bv.reduced}  "
          f"(top = {(n - 1)**copies} = ({n}-1)^{copies}; {time.time()-t0:.2f}s)")
    print(f"  exact index = coindex = {report.coind_lower}")
    rep = is_EnZp(joined, copies - 1, ell=p, betti=bv)
    print(f"  certified model: {rep.certified}, connectivity {rep.connectivity}")
