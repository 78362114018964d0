"""Maximum absolute error as a path problem.

Chains that do not overlap can co-occur in one addition; make each
chain a vertex weighted by its error, draw an edge when one chain ends
before the other starts, and the chain sets of input pairs are exactly
the paths.  The worst-case |error| is then the larger of the maximum
path weight and the negated minimum path weight.
"""

import random

import pseudoadder as pa
from pseudoadder.maxerror import iter_chain_sets

ec = pa.ChainErrorTable(
    2, {pa.CarryChain(1, 1): 2, pa.CarryChain(1, 2): -3, pa.CarryChain(2, 2): 1}
)
print("2-bit example, weights:", {tuple(c): ec.get(c.i, c.j) for c in pa.all_chains(2)})
print("all nonempty paths and their weights:")
for path in iter_chain_sets(2):
    weight = sum(ec.get(c.i, c.j) for c in path)
    print(f"  {[(c.i, c.j) for c in path]}: {weight}")

value, witness = pa.max_abs_error(ec)
print(f"max |error| = {value}, witness chains {[(c.i, c.j) for c in witness]}")
w = pa.witness_for_chain_set(witness)
print(f"witness input pair: a={w.a}, b={w.b} -> error "
      f"{pa.decompose_error(w, ec)[0]}")
print()

# compatibility facts scale to any width without materializing edges:
# an edge is exactly a pair of chains that form a valid ChainSet


def has_edge(n, c1, c2):
    try:
        pa.ChainSet(n, (c1, c2))
    except ValueError:
        return False
    return True


print("16-bit compatibility: (4,8)->(7,10)?",
      has_edge(16, pa.CarryChain(4, 8), pa.CarryChain(7, 10)),
      "| (4,8)->(9,10)?",
      has_edge(16, pa.CarryChain(4, 8), pa.CarryChain(9, 10)))
print()

# randomized cross-check against full enumeration
rng = random.Random(3)
for trial in range(3):
    table = pa.random_realizable_table(4, rng, density=0.8)
    value, witness = pa.max_abs_error(table)
    by_paths = max(abs(sum(table.get(c.i, c.j) for c in path))
                   for path in iter_chain_sets(4))
    print(f"random 4-bit table {trial}: DP {value}, enumeration {by_paths}, "
          f"witness {[(c.i, c.j) for c in witness]}")
    assert value == by_paths
