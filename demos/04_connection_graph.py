#!/usr/bin/env python3
# Which equilibria are joined by heteroclinic orbits.
import networkx as nx

from sturm import SturmPermutation, build_model, connection_graph, dot_graph, is_z_adjacent

p = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
model = build_model(p)

print(f"{len(model.connections)} heteroclinic connections:")
for j, k in model.edges():
    print(f"  v{j} (i={model.morse[j-1]})  ->  v{k} (i={model.morse[k-1]})")

# Blocking in action: equilibrium 3 sits exactly between 2 and 5 in zero
# numbers, so no orbit runs from 2 to 5.
ok, witness = is_z_adjacent(model, 2, 5)
print(f"\n2 -> 5 blocked by equilibrium {witness}" if not ok else "\n2 -> 5 unblocked")

g = connection_graph(model)
order = list(nx.topological_sort(g))
print("a Morse-respecting topological order:", order)

print("\nDOT form (pipe into `dot -Tsvg` if graphviz is around):")
print(dot_graph(model))
