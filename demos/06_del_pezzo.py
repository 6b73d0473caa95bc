"""Del Pezzo threefolds of degree 1..6 with maximal class group rank.

For 1 <= d <= 5 the variety is the half-anticanonical contraction of the
blow-up of mu = 8 - d general points of P^3: one node per contracted
line through a point pair and per twisted cubic through a six-tuple.
del_pezzo_spec carries the restriction matrix of that blow-up, the
degrees of H, E_1 .. E_(mu-1) on each contracted curve, and K_-1 is its
cokernel; nothing in the numeric columns is hard-coded.
"""

from kminusone import del_pezzo_spec, decide, threefold_invariants
from kminusone.cli import render_delpezzo_table

print("d | mu | lines + cubics = nodes | rk K_-1")
for d in range(1, 6):
    mu = 8 - d
    spec = del_pezzo_spec(d)
    degrees = [row[0] for row in spec.restriction_matrix.to_rows()]  # H.C
    r = len(spec.singularities)
    rank = threefold_invariants(spec).k_minus_one.free_rank
    print(f"{d} | {mu}  | {degrees.count(1):2d} + {degrees.count(3)} = {r:2d}"
          f"            | {rank}")

print()
print("The summary table (degree 6 is the stored P^2 x P^2-section row):")
print(" d | #sing | rk Pic | rk Cl | rk K_-1 | verdict")
for row in render_delpezzo_table().data:
    print(f" {row['d']} | {row['singular_points']:5d} | {row['pic_rank']:6d} | "
          f"{row['cl_rank']:5d} | {row['k_rank']:7d} | {row['verdict']}")

print()
print("Degrees 1..4 are obstructed outright; degree 5 has rk K_-1 = 0 but")
print("no certificate, so the tool answers Unknown and cites the open")
print("conjecture:")
verdict = decide(del_pezzo_spec(5))
print(f"  decide(d=5) = {verdict.decision.value}")
for note in verdict.notes:
    print(f"  note: {note}")
