"""An overclocked Kogge-Stone adder whose chains err in both directions.

Parallel-prefix adders compute carries through a log-depth network, so
with uneven module delays a *later* carry can land before an earlier
one.  In that regime a chain's error can be negative (the end bit rose
while inner bits still show stale propagate values), which never
happens in a ripple-carry adder with module-level delays.

The staggered 8-bit assignment below has a window around T=7 where the
pair 86 + 59 sees one chain err by +16 and another by -96 at the same
time.
"""

import pseudoadder as pa

net = pa.staggered_ksa8()
p = pa.InputPair(8, 86, 59)
s_true = p.a + p.b

trace = pa.simulate(net, p)
print(f"computing {p.a} + {p.b} = {s_true}, reading the outputs at each time:")
print("time   s'    s-s'")
for t in range(0, int(trace.quiescence_time()) + 1):
    s_prime = pa.computed_sum(net, p, t)
    print(f"{t:>4}  {s_prime:>4}  {s_true - s_prime:>5}")
print()

T = 7
ec = pa.ChainErrorTable(8, dict(pa.extract_ec_table(net, T).nonzero()))
print(f"chain errors measured from isolated probes at T={T}:")
print("  ", {tuple(c): v for c, v in ec.nonzero()})
print()

total, terms = pa.decompose_error(p, ec)
dom = pa.dominating_chain(p, ec)
print(f"the pair's chains contribute {[(tuple(c), v) for c, v in terms]}")
print(f"sum of contributions: {total} = measured error at T={T}")
print(f"dominating chain {tuple(dom)} has error {ec.get(dom.i, dom.j)}: "
      f"its sign fixes the sign of the total")
print()

# Model validity: the read is conservative (no spurious carries) from
# T=1 onward; at T=0 the sum row is stale and the chain model does not
# apply yet.
for t in (0, 1, T):
    report = pa.check_conservative(net, t)
    print(f"conservative at T={t}: {report.passed}"
          + (f"  (first counterexamples {report.counterexamples[:2]})" if not report.passed else ""))
# The verdict checks every pair's read against the chain model's
# prediction; commutativity follows from that rule, so it is no premise.
verdict = pa.validity(net, T)
print(f"at T={T} ({verdict.method}): conservative {verdict.conservative.passed}, "
      f"independent of lower bits {verdict.independent}, valid {verdict.passed}")
