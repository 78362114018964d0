import random

from pseudoadder import CarryChain, random_realizable_table
from pseudoadder.tables import random_realizable_error
from conftest import is_realizable_error


def test_realizability_predicate():
    c = CarryChain(2, 4)
    assert is_realizable_error(0, c)
    assert is_realizable_error(16, c)  # end bit missed, nothing else
    assert is_realizable_error(16 - 4, c)  # end missed, one inner stale
    assert is_realizable_error(-4, c)
    assert is_realizable_error(-12, c)
    assert not is_realizable_error(-2, c)  # bit 1 is outside the span
    assert not is_realizable_error(17, c)
    assert not is_realizable_error(32, c)
    single = CarryChain(3, 3)
    assert is_realizable_error(8, single)
    assert not is_realizable_error(4, single)
    assert not is_realizable_error(-8, single)  # no inner positions


def test_generator_emits_realizable_values():
    rng = random.Random(77)
    for n in (1, 4, 8):
        for _ in range(10):
            table = random_realizable_table(n, rng, density=1.0)
            for c, v in table.nonzero():
                assert is_realizable_error(v, c), (c, v)


def test_every_realizable_value_reachable_small_chain():
    rng = random.Random(9)
    c = CarryChain(1, 2)
    seen = {random_realizable_error(c, rng) for _ in range(400)}
    assert seen == {4, 2, 0, -2, 4 - 2}
