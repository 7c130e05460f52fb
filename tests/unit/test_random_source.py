"""Unit tests for named random streams."""

from repro.sim import RandomSource


class TestRandomSource:
    def test_same_name_same_draws(self):
        source = RandomSource(1)
        a = source.stream("a")
        b = source.stream("a")
        assert a is not b
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_same_seed_same_sequence(self):
        a = RandomSource(42).stream("x")
        b = RandomSource(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        source = RandomSource(42)
        a = source.stream("a")
        b = source.stream("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_stable_regardless_of_creation_order(self):
        first = RandomSource(7)
        one = first.stream("one").random()
        second = RandomSource(7)
        second.stream("zzz")  # create another stream first
        assert second.stream("one").random() == one

    def test_different_master_seeds_differ(self):
        a = RandomSource(1).stream("s").random()
        b = RandomSource(2).stream("s").random()
        assert a != b

    def test_derive_seed_stable(self):
        source = RandomSource(3)
        assert source.derive_seed("n") == source.derive_seed("n")
