"""The bit-sliced exhaustive oracles against the NumPy per-pair reference.

Both oracles hold every pair's error as bit-slice masks; the reference in
``conftest`` keeps one array element per pair.  They must agree on every
``StatsReport`` field, the per-chain tallies included.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pseudoadder import (
    ChainErrorTable,
    KsaDelays,
    PairSweep,
    all_chains,
    generate_ksa,
    generate_rca,
    random_realizable_table,
    sae_oracle_chains,
    sae_oracle_simulate,
    staggered_ksa8,
)
from pseudoadder.cli import main
from conftest import (
    operand_arrays,
    random_netlist,
    reference_oracle_chains,
    reference_oracle_simulate,
    sums_at,
)


def _table(n, rng, mode):
    if mode == "zero":
        return ChainErrorTable(n)
    if mode == "realizable":
        return random_realizable_table(n, rng, density=rng.choice([0.3, 0.6, 1.0]))
    entries = {}
    for c in all_chains(n):
        if mode == "negative":
            # missed carries only pull propagate bits up: -m, m in bits i..j-1
            entries[c] = -(rng.getrandbits(c.j - c.i) << c.i)
        else:
            # any entry the table accepts, realizable or not: co-occurring
            # chains can then sum far beyond one entry's bound
            bound = 1 << (n + 1)
            entries[c] = rng.randrange(-bound + 1, bound)
    return ChainErrorTable(n, entries)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    mode=st.sampled_from(["realizable", "zero", "negative", "arbitrary"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_oracle_equals_per_pair_reference(n, mode, seed):
    ec = _table(n, random.Random(seed), mode)
    got = sae_oracle_chains(ec)
    assert got == reference_oracle_chains(ec)
    assert isinstance(got.sae, int) and isinstance(got.mse, Fraction)
    if mode == "zero":
        assert (got.sae, got.mse, got.max_abs_error) == (0, 0, 0)
        assert not any(got.nu_plus.values()) and not any(got.nu_minus.values())
    if mode == "negative":
        assert not any(got.nu_plus.values())


def _netlist(kind, rng):
    if kind == "rca":
        # independent sum delays read partial carries: negative errors too
        n = rng.randint(1, 6)
        return generate_rca(
            n, [rng.randint(0, 3) for _ in range(n)], [rng.randint(0, 3) for _ in range(n + 1)]
        )
    if kind == "ksa":
        n = rng.choice([2, 4, 8])
        levels = (n - 1).bit_length()
        return generate_ksa(n, KsaDelays(
            pg=tuple(rng.randint(0, 3) for _ in range(n)),
            prefix=tuple(tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(levels)),
            sums=tuple(rng.randint(0, 3) for _ in range(n + 1)),
        ))
    return random_netlist(rng.randint(1, 4), rng)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_simulation_oracle_equals_per_pair_reference(kind, seed, data):
    net = _netlist(kind, random.Random(seed))
    quiet = PairSweep(net, keep=set(net.outputs.values())).output_change_times()[-1]
    t = data.draw(st.integers(0, int(quiet) + 2), label="t")
    got = sae_oracle_simulate(net, t)
    assert got == reference_oracle_simulate(net, t)
    assert got.nu_plus is None
    if kind != "dag" and t >= quiet:
        # a quiescent adder adds correctly
        assert (got.sae, got.mse, got.max_abs_error) == (0, 0, 0)


def test_simulation_oracle_on_pinned_out_of_model_reads():
    net = staggered_ksa8()
    a, b = operand_arrays(8)
    sweep = PairSweep(net, keep=set(net.outputs.values()))
    # T=0: every output still reads 0 (a stale bit 0 wherever a0 != b0)
    zero = sae_oracle_simulate(net, 0)
    assert zero == reference_oracle_simulate(net, 0)
    assert zero.sae == int((a + b).sum()) == (1 << 16) * 255
    assert zero.max_abs_error == 510
    # T=7: some pairs read more than the true sum
    assert ((a + b) - sums_at(sweep, 7) < 0).any()
    assert sae_oracle_simulate(net, 7) == reference_oracle_simulate(net, 7)
    # T=11: quiescent, correct
    assert sae_oracle_simulate(net, 11).sae == 0


def test_verify_runs_one_exhaustive_sweep(capsys, sweeps_built, blocks_built, tmp_path):
    # with default flags every width up to the oracle limit (10) is
    # checked over all pairs
    for n in (6, 9):
        path = tmp_path / f"rca{n}.json"
        path.write_text(generate_rca(n, [1] * n, [1] * (n + 1)).to_json())
        sweeps_built.clear()
        blocks_built.clear()
        code = main(["verify", "--netlist", str(path), "-T", "4"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS  fast statistics equal exhaustive simulation" in out
        # the probe batch, then the lane blocks once each: they serve
        # every check, so no sampled batch is built; each is simulated
        # only up to the one read time it answers
        blocks = [(k, min(n, 8)) for k in range(1 << 2 * max(0, n - 8))]
        assert sweeps_built == [(n * (n + 1) // 2, [4]), *((4 ** min(n, 8), [4]) for _ in blocks)], (n, sweeps_built)
        assert blocks_built == blocks, (n, blocks_built)
