"""Cubical approximations of periodic points on the discretized torus.

The period-2 set of the half-gap family is a closed annulus, and the inner
vertex-wise approximation sees exactly that at every tested resolution.
An explicit antipodal-circle certificate pins its coindex at >= 1.  For
period 3 the topology is richer; the approximation reports its profile
together with a refinement check instead of claiming more than it can.
"""
from fractions import Fraction

from zpindex import (
    IndexReport,
    apply_certificate,
    betti_numbers,
    betti_profile,
    build_approx,
    canonical_certificate_P2,
    separated_torus_spec,
    stability_check,
    verify_certificate,
    z_torus_spec,
)

# ---------------------------------------------------------------------------
# Period 2, resolution 8: the constraint dist(x0, x1) >= 1/2 keeps 40 of the
# 64 grid points; cells enter only when all their corners survive.
# ---------------------------------------------------------------------------
spec = z_torus_spec(2, 8)
approx = build_approx(spec)
print("p=2, q=8 approximation:", approx.cell_counts(), "free =", approx.is_free)
print("reduced Betti over F_2:", betti_numbers(approx, 2).reduced,
      "-> one loop: an annulus")

rep = stability_check(spec, betti_profile(spec, 2))
print("stable under refinement to q=16:", rep.agree)

# ---------------------------------------------------------------------------
# The certificate: map the q-cycle with the antipodal action by
# x -> (x, x + q/2).  Image gaps are exactly 1, the antipode becomes the
# coordinate swap, and every edge lands inside one grid square.
# ---------------------------------------------------------------------------
cert = canonical_certificate_P2(8, target=approx)
verdict = verify_certificate(cert, approx)
print("\ncertificate checks:")
for line in verdict.checks:
    print("  -", line)
bound = apply_certificate(verdict, IndexReport.nonempty_free(2))
print("coindex lower bound for the approximation:", bound.coind_lower)

# ---------------------------------------------------------------------------
# Period 3 at two resolutions: the profile is reported as evidence at a
# stated resolution, never as a homotopy-equivalence claim.
# ---------------------------------------------------------------------------
spec3 = z_torus_spec(3, 8)
rep3 = stability_check(spec3, betti_profile(spec3, 3))
print(f"\np=3 profiles: q=8 {rep3.coarse.reduced}, q=16 {rep3.fine.reduced},",
      f"agree = {rep3.agree}")

# ---------------------------------------------------------------------------
# The one-step separation family on the circle, three letters around.
# ---------------------------------------------------------------------------
xs = separated_torus_spec(3, 8, 1, Fraction(1, 2))
c = build_approx(xs)
print("\nseparated family p=3, q=8:", c.cell_counts(), "free =", c.is_free)
print("reduced Betti over F_3:", betti_numbers(c, 3).reduced)
