"""Defect, L, and K_-1 for threefolds with isolated cA_n singularities.

The exact sequence 0 -> Z^delta -> Z^L -> K_-1 -> 0 reduces everything
to two integers: L (sum of local class group ranks) and the defect
delta = rk Cl - rk Pic.  A restriction matrix pins K_-1 down integrally
and decides "enough Weil divisors" - for nodal threefolds, maximal
nonfactoriality.
"""

from kminusone import IntMatrix, VarietySpec, nodal_quadric_spec, \
    ordinary_double_point, threefold_invariants

print("The nodal quadric threefold: Pic = Z, Cl = Z^2, one node.")
rep = threefold_invariants(nodal_quadric_spec())
print(f"  L = {rep.L}, delta = {rep.delta}, K_-1 = {rep.k_minus_one}")
print(f"  enough Weil divisors: {rep.enough_weil.value} "
      f"(restriction map is an isomorphism), maximally nonfactorial")

print()
print("Kawamata's factorial cubic example: blow up one node of a 2-nodal")
print("factorial cubic; the remaining node has Pic = Cl, so delta = 0 and")
print("K_-1 = Z^L exactly:")
cubic = VarietySpec(singularities=(ordinary_double_point(),),
                    pic_rank=2, cl_rank=2)
rep = threefold_invariants(cubic)
print(f"  L = {rep.L}, delta = {rep.delta}, K_-1 = {rep.k_minus_one} "
      f"(exact: {rep.exact})")

print()
print("Nodal hypersurfaces and double solids always have delta < r")
print("(except the quadric), hence rk K_-1 = r - delta > 0:")
for r, delta in [(2, 1), (16, 6), (10, 5)]:
    spec = VarietySpec(singularities=(ordinary_double_point(),) * r,
                       pic_rank=1, cl_rank=1 + delta)
    rep = threefold_invariants(spec)
    print(f"  r = {r:2d}, delta = {delta}: rk K_-1 = "
          f"{rep.k_minus_one.free_rank}")

print()
print("Rank data alone cannot certify vanishing: delta = L only says the")
print("ranks match, not that the restriction map is onto.")
two_nodes = VarietySpec(singularities=(ordinary_double_point(),) * 2,
                        pic_rank=1, cl_rank=3)
rep = threefold_invariants(two_nodes)
print(f"  without matrix: enough Weil divisors = {rep.enough_weil.value}")
verified = VarietySpec(singularities=(ordinary_double_point(),) * 2,
                       pic_rank=1, cl_rank=3,
                       restriction_matrix=IntMatrix.from_rows([[1, 0], [0, 1]]))
rep = threefold_invariants(verified)
print(f"  with identity matrix: enough Weil divisors = {rep.enough_weil.value}")
halved = VarietySpec(singularities=(ordinary_double_point(),) * 2,
                     pic_rank=1, cl_rank=3,
                     restriction_matrix=IntMatrix.from_rows([[2, 0], [0, 1]]))
rep = threefold_invariants(halved)
print(f"  with diag(2, 1):      K_-1 = {rep.k_minus_one} "
      f"(torsion obstruction, enough = {rep.enough_weil.value})")
