"""Exact error statistics from chain errors alone, checked by brute force.

Enumerating all 2^(2n) input pairs is hopeless beyond small widths; the
fast paths get the same numbers from the n(n+1)/2 chain errors.  For
n = 64 that replaces ~3.4e38 additions with ~2e3 table entries.
"""

import random
import time
from fractions import Fraction

import pseudoadder as pa

# --- exactness, demonstrated against the exhaustive oracle ------------
net = pa.staggered_ksa8()
T = 7
ec = pa.extract_ec_table(net, T)

fast = pa.analyze_table(ec)
oracle = pa.sae_oracle_simulate(net, T)  # simulates all 65536 pairs

print(f"8-bit staggered Kogge-Stone at T={T}:")
print(f"  SAE        fast {fast.sae:>9}   oracle {oracle.sae:>9}")
print(f"  Er_avg     fast {fast.er_avg}  = {fast.er_avg_float}")
print(f"  MSE        fast {fast.mse}  oracle {oracle.mse}")
print(f"  max|error| fast {fast.max_abs_error:>9}   oracle {oracle.max_abs_error:>9}")
assert (fast.sae, fast.mse, fast.max_abs_error) == (oracle.sae, oracle.mse, oracle.max_abs_error)
print("  exact agreement.")
print()

# Per-chain signed tallies: how many generating pairs sit under a
# positive/negative dominating chain (exact probability form included).
c = pa.CarryChain(2, 4)
print(f"chain {tuple(c)}: nu+ = {fast.nu_plus[c]}, nu- = {fast.nu_minus[c]}, "
      f"p+ = {Fraction(fast.nu_plus[c], 4**8)}, p- = {Fraction(fast.nu_minus[c], 4**8)}, "
      f"nu = {pa.nu_single(8, c)}")
print()

# --- ripple-carry shortcut ---------------------------------------------
mods = [2, 1, 3, 1]
rca = pa.generate_rca(4, mods, mods + [1])
ec_rca = pa.extract_ec_table(rca, 3)
print("ripple-carry at T=3: all chain errors non-negative ->",
      all(v >= 0 for _, v in ec_rca.nonzero()))
# with no negative entry the absolute values distribute over each
# pair's chain sum, so Er_avg is just sum(e * nu) / 4^n
simple = Fraction(sum(e * pa.nu_single(4, c) for c, e in ec_rca.nonzero()), 4**4)
print("  simplified formula equals the general one:",
      simple == pa.er_avg_fast(ec_rca).er_avg)
print()

# --- scaling -------------------------------------------------------------
rng = random.Random(1)
for n in (16, 32, 64, 128):
    table = pa.random_realizable_table(n, rng, density=1.0)
    start = time.perf_counter()
    report = pa.er_avg_fast(table)
    dt = time.perf_counter() - start
    print(f"n={n:>3}: dense table of {n * (n + 1) // 2} chains, "
          f"Er_avg computed exactly in {dt * 1e3:7.1f} ms "
          f"(~{report.er_avg_float:.3g})")
