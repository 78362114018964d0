"""Event-driven simulation of delay-annotated adder netlists.

Every gate output starts at 0; operands are applied at t=0; a gate
whose inputs changed re-evaluates and commits the new value one gate
delay later.  Reading the outputs before quiescence yields the
inaccurate sums this package is about.
"""

import pseudoadder as pa

# A 4-bit ripple-carry adder, one time unit per gate.
net = pa.generate_rca(4, [1, 1, 1, 1], [1, 1, 1, 1, 1])
p = pa.InputPair(4, 3, 1)  # 0011 + 0001: the carry ripples across two stages

trace = pa.simulate(net, p)
print("carry-gate transitions for 3 + 1 (one ripple step per time unit):")
for gate in ("c1", "c2", "c3", "c4"):
    print(f"  {gate}: {trace.transitions[gate]}")
print()

print("time  s'   s-s'")
for t in range(0, int(trace.quiescence_time()) + 1):
    s_prime = pa.computed_sum(net, p, t)
    print(f"{t:>4}  {s_prime:>3}  {4 - s_prime:>4}")
print()

# Clamp the sum row to zero delay and read at t=0: the adder degrades
# to bitwise XOR (all carries truncated) - still conservative.
trunc = pa.generate_rca(4, [1, 1, 1, 1], [0, 0, 0, 0, 0])
print("zero-delay sum row read at T=0 is bitwise XOR:")
for a, b in ((3, 1), (15, 1), (9, 3)):
    s0 = pa.computed_sum(trunc, pa.InputPair(4, a, b), 0)
    print(f"  {a} + {b} -> {s0} (a^b = {a ^ b})")
print()
print("conservative at T=0:", pa.check_conservative(trunc, 0).passed)

# The same netlists round-trip through JSON, so external tools can
# feed the simulator arbitrary gate DAGs.
text = net.to_json()
again = pa.Netlist.from_json(text)
print("JSON round-trip preserves structure:", again.to_json_dict() == net.to_json_dict())
