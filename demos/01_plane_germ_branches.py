"""Counting branches of plane-curve germs at the origin.

The branch number of g(z, w) drives everything else in this package: the
local class group of the threefold point xy + g(z, w) = 0 is free of
rank br(g) - 1.  This script walks through the Newton-polygon machinery
on progressively harder germs.
"""

from kminusone import ExtensionUnsupported, branch_count, \
    branch_count_factored, is_isolated, newton_polygon, parse_polynomial


def show(text):
    g = parse_polynomial(text)
    rep = branch_count(g)
    print(f"  g = {text:<34} ord = {rep.order}  branches = {rep.branch_count}")


print("Simple germs: one Newton polygon edge, only simple roots.")
print("A squarefree edge polynomial of degree d contributes d branches,")
print("no matter where its roots live (z^2 + w^2 splits over Q(i)):")
show("z^2 + w^2")
show("z^2 + w^3")
show("z*w")
show("(z - w)*(z + w)*(z - 2*w)")

print()
print("The Newton polygon of z^2*w + w^3 after stripping the common w:")
for e in newton_polygon(parse_polynomial("z^2*w + w^3")):
    print(f"  edge {e.start} -> {e.end}, lattice length {e.lattice_length}, "
          f"edge polynomial {e.edge_polynomial}")
print("The stripped w is an axis branch, the edge adds two more:")
show("z^2*w + w^3")

print()
print("A multiple edge-polynomial root forces a coordinate shift.")
print("(z - w^2)(z - w^2 - w^3) has a double root at t = 1; shifting")
print("z -> z + w^2 separates the two tangent branches:")
show("(z - w^2)*(z - w^2 - w^3)")

print()
print("Irrational multiple roots adjoin one exact extension of Q.")
print("(z^2 - 2w^2)^2 + z*w^4 recurses over Q(sqrt 2); its two branches")
print("are conjugate, so one recursion is shared:")
show("(z^2 - 2*w^2)^2 + z*w^4")

print()
print("Beyond one extension the tool refuses rather than guesses;")
print("factored input keeps it total:")
g = parse_polynomial("(z^7 - 2*w^7)^2 + z^3*w^12")
print(f"  ord = {g.order()}")
# isolatedness is decided by the same local recursion, so it refuses too
for check in (is_isolated, branch_count):
    try:
        check(g)
    except ExtensionUnsupported as exc:
        print(f"  {check.__name__} raises {type(exc).__name__}: {exc}")
rep = branch_count_factored([parse_polynomial("z^7 - 2*w^7"),
                             parse_polynomial("w")])
print(f"  branch_count_factored([z^7 - 2w^7, w]) = {rep.branch_count}")
