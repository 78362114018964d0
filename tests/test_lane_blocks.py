"""Lane blocks: the exhaustive checks run over 4^n pairs one block of
4^BLOCK_BITS lanes at a time.

Splitting the lanes must not move a single figure: every blocked check
equals the single-block run over all pairs, counterexample order
included.  What it saves is memory: a check holds the masks of one
block, so its peak no longer grows as 4^n.
"""

import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pseudoadder import (
    AssumptionReport,
    ChainErrorTable,
    InputPair,
    KsaDelays,
    all_chains,
    check_conservative,
    computed_sum,
    generate_ksa,
    generate_rca,
    random_realizable_table,
    sae_oracle_chains,
    sae_oracle_simulate,
    sweep,
    validity,
)
from pseudoadder.cli import main
from pseudoadder.model import word_pair
from conftest import random_netlist


def _delay(rng):
    return Fraction(rng.randint(0, 6), 2)


def _netlist(kind, rng):
    if kind == "dag":
        # adders treat a_k and b_k alike; a random gate DAG need not, so
        # it also catches a block that swaps a's and b's fixed bits
        return random_netlist(rng.randint(1, 6), rng)
    if kind == "rca":
        n = rng.randint(1, 6)
        return generate_rca(n, [_delay(rng) for _ in range(n)], [_delay(rng) for _ in range(n + 1)])
    n = rng.choice([2, 4])
    levels = (n - 1).bit_length()
    return generate_ksa(n, KsaDelays(
        pg=tuple(_delay(rng) for _ in range(n)),
        prefix=tuple(tuple(_delay(rng) for _ in range(n)) for _ in range(levels)),
        sums=tuple(_delay(rng) for _ in range(n + 1)),
    ))


def _table(n, rng, realizable):
    if realizable:
        return random_realizable_table(n, rng)
    bound = 1 << (n + 1)
    return ChainErrorTable(n, {c: rng.randrange(-bound + 1, bound) for c in all_chains(n)})


def _in_blocks(width, fn, *args, **kwargs):
    with mock.patch.object(sweep, "BLOCK_BITS", width):
        return fn(*args, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag"]),
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 3),
    realizable=st.booleans(),
    data=st.data(),
)
def test_blocked_checks_equal_the_single_block_run(kind, seed, width, realizable, data):
    rng = random.Random(seed)
    net = _netlist(kind, rng)
    n = net.n
    t = Fraction(data.draw(st.integers(0, 2 * int(net.arrival_time()) + 2), label="2T"), 2)
    # n <= 6: the default width runs all pairs as one block
    assert list(sweep.lane_blocks(n)) == [(0, n)]
    assert len(list(_in_blocks(width, sweep.lane_blocks, n))) == 4 ** max(0, n - width)

    whole = check_conservative(net, t)
    blocked = _in_blocks(width, check_conservative, net, t)
    assert blocked == whole
    assert blocked.checked == 4**n

    assert _in_blocks(width, sae_oracle_simulate, net, t) == sae_oracle_simulate(net, t)

    ec = _table(n, rng, realizable)
    whole_chains = sae_oracle_chains(ec)
    blocked_chains = _in_blocks(width, sae_oracle_chains, ec)
    assert blocked_chains == whole_chains
    assert list(blocked_chains.nu_plus) == list(whole_chains.nu_plus) == all_chains(n)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag"]),
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 3),
    data=st.data(),
)
def test_simulation_oracle_counts_each_block_into_a_conservative_report(kind, seed, width, data):
    # validity's one exhaustive pass: the oracle's blocks also feed both
    # checks, whose counterexamples keep the order of one block of all pairs
    net = _netlist(kind, random.Random(seed))
    t = Fraction(data.draw(st.integers(0, 2 * int(net.arrival_time()) + 2), label="2T"), 2)
    whole = validity(net, t, limit=net.n)
    report = AssumptionReport(net.n, t, None)
    report.table = whole.table
    shared = _in_blocks(width, sae_oracle_simulate, net, t, check=report.add)
    assert shared == sae_oracle_simulate(net, t) == whole.oracle
    assert report.conservative == check_conservative(net, t)
    assert report.conservative.checked == 4**net.n
    if whole.table is not None:
        assert report.independence_counterexamples == whole.independence_counterexamples


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag"]),
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 3),
    data=st.data(),
)
def test_block_lanes_hold_every_pair_once(kind, seed, width, data):
    # block k of width w holds a's and b's top bits as k's low and high
    # halves, and its low bits at lane a_lo + (b_lo << w)
    rng = random.Random(seed)
    net = _netlist(kind, rng)
    n = net.n
    t = Fraction(data.draw(st.integers(0, 2 * int(net.arrival_time()) + 2), label="2T"), 2)
    seen = []
    with mock.patch.object(sweep, "BLOCK_BITS", width):
        for (k, w), sw in zip(sweep.lane_blocks(n), sweep.block_sweeps(net, [t])):
            a_hi, b_hi = word_pair(k, n - w)
            for lane in range(sw.pair_count):
                a_lo, b_lo = word_pair(lane, w)
                assert sw.lane_pair(lane) == (a_lo | a_hi << w, b_lo | b_hi << w)
                seen.append(sw.lane_pair(lane))
            # a lane reads the sum the event simulator gives its pair
            lane = rng.randrange(sw.pair_count)
            assert sw.lane_sums(t)[lane] == computed_sum(net, InputPair(n, *sw.lane_pair(lane)), t)
    assert sorted(seen) == [(a, b) for a in range(1 << n) for b in range(1 << n)]


def test_simulation_oracle_refuses_a_report_at_another_read_time():
    net = generate_rca(4, [1, 2, 1, 2], [2, 1, 0, 1, 2])
    with pytest.raises(ValueError, match="not one of this sweep's read times"):
        sae_oracle_simulate(net, 3, check=AssumptionReport(4, 2, None).add)


def test_default_width_blocks_equal_one_block_at_n10():
    rng = random.Random(1012)
    net = generate_rca(10, [rng.choice((1, 2, 3)) for _ in range(10)], [rng.choice((1, 2, 3)) for _ in range(11)])
    assert len(list(sweep.lane_blocks(10))) == 16
    for t in (0, 1, 2, 3, 7):
        blocked = check_conservative(net, t)
        whole = _in_blocks(10, check_conservative, net, t)
        assert blocked == whole and blocked.checked == 4**10
        assert sae_oracle_simulate(net, t) == _in_blocks(10, sae_oracle_simulate, net, t)
    ec = random_realizable_table(10, rng)
    assert sae_oracle_chains(ec) == _in_blocks(10, sae_oracle_chains, ec)


def test_failing_rca10_read_prints_the_unblocked_lines(capsys, tmp_path):
    # recorded from the single all-pairs sweep, before lane blocks
    path = tmp_path / "rca10.json"
    path.write_text(generate_rca(10, [1] * 10, [1] * 11).to_json())
    code = main(["verify", "--netlist", str(path), "-T", "0"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  conservative (no spurious carries)  counterexamples=[(1, 0, 0), (3, 0, 0), (5, 0, 0), "
        "(7, 0, 0), (9, 0, 0), (11, 0, 0), (13, 0, 0), (15, 0, 0), (17, 0, 0), (19, 0, 0)]",
        "PASS  lower-position independence",
        "PASS  chain probes in the model",
    ]


def test_verify_builds_the_doubling_masks_once(capsys, blocks_built, tmp_path):
    # every block of one width shares its low operand masks
    path = tmp_path / "rca10.json"
    path.write_text(generate_rca(10, [1] * 10, [1] * 11).to_json())
    sweep._index_bit_masks.cache_clear()
    code = main(["verify", "--netlist", str(path), "-T", "5", "--exhaustive-n-limit", "10"])
    assert code == 0, capsys.readouterr().out
    assert blocks_built == [(k, 8) for k in range(16)]
    info = sweep._index_bit_masks.cache_info()
    assert (info.misses, info.hits) == (1, 15)


def test_a_dropped_wide_sweep_leaves_no_masks_behind():
    # all 4^10 pairs at once is wider than a lane block: its 20 doubling
    # masks of 128 KB (2.6 MB) go with the sweep, not into the cache
    net = generate_rca(10, [1] * 10, [1] * 11)
    tracemalloc.start()
    try:
        sw = sweep.PairSweep(net, times=[5])
        assert sw.pair_count == 1 << 20
        del sw
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 200_000, f"{kept / 1e6:.2f} MB stayed allocated"


def test_the_all_pairs_sweep_refuses_a_width_it_cannot_hold():
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def bounded():  # a width checked after its masks are built fails here, not on the machine
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    # all 4^16 pairs at once raised MemoryError under this limit, and 4^32 grew until killed;
    # 4^10 is verify-n10's checker, which builds them
    widths = (10, sweep.WIDEST_BLOCK_BITS + 1, 16, 32)
    script = f"""if True:
        from pseudoadder import PairSweep, generate_rca
        from pseudoadder.sweep import operand_masks
        for n in {widths}:
            net = generate_rca(n, [1] * n, [1] * (n + 1))
            for masks in (lambda: None, lambda: operand_masks(n, 0, n)):
                try:
                    print(n, PairSweep(net, masks=masks(), times=[5]).pair_count)
                except ValueError as exc:
                    print(n, exc)
    """
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=bounded)
    assert done.returncode == 0, done.stderr
    refused = [f"{n} a lane block of width {n} is wider than {sweep.WIDEST_BLOCK_BITS} bits" for n in widths[1:]]
    assert done.stdout.splitlines() == [f"10 {4**10}"] * 2 + [line for line in refused for _ in range(2)]


def _peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exhaustive_checks_peak_at_one_block(capsys, tmp_path):
    """An exhaustive check holds O(n) masks of one block, 4^BLOCK_BITS / 8
    bytes each, whatever n: its peak no longer grows as 4^n."""
    path = tmp_path / "rca11.json"
    path.write_text(generate_rca(11, [1] * 11, [1] * 12).to_json())
    code, verify_peak = _peak(main, ["verify", "--netlist", str(path), "-T", "5", "--exhaustive-n-limit", "11"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS  fast statistics equal exhaustive simulation" in out
    chains_peak = {n: _peak(sae_oracle_chains, random_realizable_table(n, random.Random(n)))[1] for n in (9, 11, 12)}
    # over all 4^11 pairs at once these peaked at 35 MB and 26 MB.  The chain
    # oracle peaks at 0.91 MB at n = 11 when it lists every chain mask of a
    # block and at 0.45 MB when it streams them.  Above n = BLOCK_BITS each
    # bit adds about three masks (a propagate, a slice of the table error and
    # one of its magnitude): 73 KB from n = 9 to 12.  The list adds 78 KB
    # there too, as the chains through the fixed high bits are mostly 0 masks
    assert verify_peak < 2_000_000, f"verify peaked at {verify_peak / 1e6:.1f} MB"
    assert chains_peak[11] < 500_000, f"sae_oracle_chains peaked at {chains_peak[11] / 1e6:.2f} MB"
    grown = chains_peak[12] - chains_peak[9]
    assert grown < 3 * 4 * 8192, f"sae_oracle_chains grew by {grown / 1e3:.0f} KB from n = 9 to 12"
