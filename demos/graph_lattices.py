"""The general graph construction: transvection groups from graphs.

Builds lattices from graphs (including from a text file), checks the
three vanishing-lattice conditions, applies the induced-E6 criterion,
and compares the predicted nonspecial census with exhaustive
enumeration.  Run:  python demos/graph_lattices.py
"""

from f2orbits import (F2Vector, Graph, build, check_vanishing, contains_e6,
                      delta_closure, e6_graph, enumerate_orbits,
                      hex_lattice_graph, parse_graph_file,
                      predict_census_nonspecial)
from f2orbits.lattice import NonspecialityUnknown

print("=== A triangle: the smallest interesting lattice ===")
tri = build(Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))
dc = delta_closure(tri)
members = [F2Vector(tri.state_dim, s) for s in dc.vectors.tolist()]
print(f"closure of the basis vectors: {sorted(v.to_string() for v in members)}")
print(f"single orbit: {dc.single_orbit}")
print(f"vanishing-lattice conditions: {check_vanishing(tri)}")
print(f"induced E6: {contains_e6(tri.graph)} -> no census prediction licensed")

print()
print("=== The neighbor graph of the order-4 shape ===")
spec = build(hex_lattice_graph(5))
print(f"{spec.describe()}; kernel dim {spec.qspace.kappa}")
print(f"vanishing lattice: {check_vanishing(spec).is_vanishing_lattice}")
print(f"induced E6: {contains_e6(spec.graph)}")
pred = predict_census_nonspecial(spec)
enum = enumerate_orbits(spec)
print(f"predicted orbits: {[r.cardinality for r in pred.records]}")
print(f"enumerated     : {[r.cardinality for r in enum.records]}")
print(f"representatives agree too: "
      f"{[r.representative.bits for r in pred.records] == [r.representative.bits for r in enum.records]}")

print()
print("=== The E6 tree itself (trivial kernel: three orbits) ===")
spec6 = build(e6_graph())
pred6 = predict_census_nonspecial(spec6)
print(f"census: {[(r.representative.to_string(), r.cardinality) for r in pred6.records]}")

print()
print("=== Reading a graph from the text format ===")
text = """\
# five-cycle with a chord, generators restricted to a subset
5 6
0 1
1 2
2 3
3 4
0 4
1 3
B: 0 1 2 3
"""
spec_file = parse_graph_file(text)
print(f"parsed: {spec_file.describe()}")
print(f"conditions: {check_vanishing(spec_file)}")
try:
    predict_census_nonspecial(spec_file)
except NonspecialityUnknown as exc:
    print(f"prediction refused: {exc}")
census = enumerate_orbits(spec_file)
print(f"enumerated census: {sorted(r.cardinality for r in census.records)}")
