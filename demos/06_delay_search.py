"""Searching module-delay assignments for a target read-time behavior.

Given a wanted behavior (here: a read time where one chain errs
positively while another errs negatively on the same input pair), this
script scans random per-module Kogge-Stone delay assignments and
reports the ones that realize it.  The shipped ``staggered_ksa8``
assignment was found this way and then tightened by hand until the
whole read-time table of 86 + 59 hits a chosen row sequence.
"""

import random

import pseudoadder as pa

TARGET_PAIR = pa.InputPair(8, 86, 59)
WANTED = {pa.CarryChain(2, 4): 16, pa.CarryChain(5, 7): -96}


def random_delays(rng: random.Random) -> pa.KsaDelays:
    return pa.KsaDelays(
        pg=tuple(rng.randint(0, 2) for _ in range(8)),
        prefix=tuple(tuple(rng.randint(0, 4) for _ in range(8)) for _ in range(3)),
        sums=tuple(rng.randint(0, 2) for _ in range(9)),
    )


def mixed_sign_windows(net: pa.Netlist) -> list[tuple[int, int, int]]:
    """Read times where the target pair sees chains of both signs."""
    windows = []
    for t, ec in pa.ec_table_sweep(net, list(range(0, 40))):
        if not pa.check_conservative(net, t).passed:
            continue
        values = [ec.get(c.i, c.j) for c in pa.detect_chains(TARGET_PAIR)]
        if any(v > 0 for v in values) and any(v < 0 for v in values):
            windows.append((t, *values))
    return windows


rng = random.Random(7)
hits = 0
print("scanning 60 random assignments for mixed-sign read windows on 86 + 59 ...")
for trial in range(60):
    net = pa.generate_ksa(8, random_delays(rng))
    windows = mixed_sign_windows(net)
    if windows:
        hits += 1
        t, v1, v2 = windows[0]
        if hits <= 5:
            print(f"  trial {trial:>2}: T={t:>2} chain(2,4) err {v1:>5}, "
                  f"chain(5,7) err {v2:>5}")
print(f"{hits}/60 random assignments show the mixed-sign regime.")
print()

exact = [t for (t, v1, v2) in mixed_sign_windows(pa.generate_ksa(8, pa.staggered_ksa8_delays()))
         if (v1, v2) == (WANTED[pa.CarryChain(2, 4)], WANTED[pa.CarryChain(5, 7)])]
print(f"the shipped staggered assignment hits exactly (+16, -96) at T in {exact}")
