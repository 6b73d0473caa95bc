"""Blow-ups along nodal curves, and the full decision surface.

K_-1 of the blow-up of a smooth threefold along a curve C equals K_-1(C)
(codimension 2: one extra copy).  Blowing up a disjoint union of nodal
trees of lines therefore produces arbitrarily many ordinary double
points while keeping a Kawamata type decomposition; one nodal
irreducible center already obstructs.
"""

from kminusone import BlowupPipeline, BlowupStep, DualGraph, \
    blowup_curve_verdict, classify_cAn, decide, kawamata_p2p2_spec, \
    nodal_quadric_spec, parse_polynomial

print("Center = two disjoint A2 chains (4 lines, 2 nodes):")
forest = DualGraph(4, ((0, 1), (2, 3)))
v = blowup_curve_verdict(forest)
print(f"  verdict: {v.decision.value}, certificate "
      f"{v.certificate.kind.value}")
node = parse_polynomial("z*w")
sings = BlowupStep(forest, (node,) * forest.edge_count).singularities()
print(f"  the blow-up acquires {len(sings)} ordinary double points")

print()
print("Center = irreducible rational curve with three nodes:")
three_nodes = DualGraph(1, ((0, 0), (0, 0), (0, 0)))
v = blowup_curve_verdict(three_nodes)
print(f"  verdict: {v.decision.value}, obstruction K_-1 = {v.obstruction}")

print()
print("A cuspidal center contributes no class-group rank (br = 1); the")
print("blow-up of a cuspidal curve acquires a cA_1 point xy + z^2 + w^3:")
sing = classify_cAn(parse_polynomial("z^2 + w^3"))
print(f"  cA_{sing.n}, br = {sing.br}, local Cl rank = {sing.cl_rank}")

print()
print("decide() pulls everything together:")
cases = [
    ("A2 tree of lines", DualGraph(2, ((0, 1),))),
    ("cycle of three lines", DualGraph(3, ((0, 1), (1, 2), (0, 2)))),
    ("nodal quadric threefold", nodal_quadric_spec()),
    ("P2 x P2 nodal linear section", kawamata_p2p2_spec()),
    ("blow-up along 3-node curve",
     BlowupPipeline(steps=(BlowupStep(three_nodes),))),
    ("blow-up along tree forest",
     BlowupPipeline(steps=(BlowupStep(forest),))),
]
for name, obj in cases:
    v = decide(obj)
    extra = ""
    if v.certificate is not None:
        extra = f" [{v.certificate.kind.value}]"
    if v.obstruction is not None:
        extra = f" [obstruction {v.obstruction}]"
    print(f"  {name:<32} {v.decision.value}{extra}")
