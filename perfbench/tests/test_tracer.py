"""Span self times, generator timing and attribute restore of tracer.py.

Run from the root of a checkout:  python3 -m unittest discover -s perfbench/tests
"""

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer  # noqa: E402


class Ticks:
    """A clock that advances by one on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_duration_minus_child_coverage(self):
        # 0 root [0, 10]; children 1 [1, 3] and 2 [2, 4] overlap, 3 [5, 6]
        # reaches past nothing, 4 [9, 12] sticks out of the root; 5 [5.2, 5.5]
        # is a grandchild under 3.
        starts = [0.0, 1.0, 2.0, 5.0, 9.0, 5.2]
        ends = [10.0, 3.0, 4.0, 6.0, 12.0, 5.5]
        parents = [-1, 0, 0, 0, 0, 3]
        got = list(tracer.self_times(starts, ends, parents))
        want = [10 - (3 + 1 + 1), 2.0, 2.0, 1 - 0.3, 3.0, 0.3]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_unsorted_spans_give_the_same_self_times(self):
        starts = [2.0, 0.0, 1.0]
        ends = [4.0, 10.0, 3.0]
        parents = [1, -1, 1]
        got = list(tracer.self_times(starts, ends, parents))
        self.assertEqual(got, [2.0, 7.0, 2.0])


class TracerTest(unittest.TestCase):
    def test_nested_calls_record_parents_and_self_time(self):
        tr = tracer.Tracer(clock=Ticks())
        inner = tr.wrap("m.inner", lambda: 1)
        outer = tr.wrap("m.outer", lambda: inner() + inner())
        self.assertEqual(outer(), 2)
        self.assertEqual(list(tr.parents), [-1, 0, 0])
        # outer spans ticks 1..6, each inner one tick (2..3, 4..5).
        self.assertEqual(tr.totals(), {"m.inner": (2, 2.0), "m.outer": (1, 3.0), tracer.OBSERVE: (0, 0.0)})

    def test_generator_is_timed_over_its_iteration(self):
        tr = tracer.Tracer(clock=Ticks())

        def gen_fn(n):
            yield from range(n)

        gen = tr.wrap("m.gen", gen_fn)
        it = gen(3)
        self.assertEqual(len(tr.starts), 0)
        self.assertEqual(list(it), [0, 1, 2])
        self.assertEqual(tr.totals()["m.gen"][0], 4)  # three items and the stop

    def test_observer_time_is_outside_the_span(self):
        tr = tracer.Tracer(clock=Ticks())
        seen = []
        f = tr.wrap("m.f", lambda x: x * 2, observe=seen.append)
        f(4)
        self.assertEqual(seen, [8])
        self.assertEqual(tr.totals()["m.f"], (1, 1.0))


class PatchedTest(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        def f():
            return "f"

        class Owner:
            @classmethod
            def make(cls):
                return cls.__name__

        home = types.ModuleType("home")
        home.f = f
        user = types.ModuleType("user")
        user.f = f
        user.alias = f
        raw_make = vars(Owner)["make"]
        targets = [("home.f", home, "f", None), ("home.make", Owner, "make", None),
                   ("home.missing", home, "missing", None)]
        tr = tracer.Tracer()
        with tracer.patched(tr, targets, [home, user]):
            self.assertIsNot(user.alias, f)
            self.assertEqual(user.alias() + home.f() + Owner.make(), "ffOwner")
        self.assertEqual(tr.totals()["home.f"][0], 2)
        self.assertEqual(tr.totals()["home.make"][0], 1)
        self.assertIs(home.f, f)
        self.assertIs(user.f, f)
        self.assertIs(user.alias, f)
        self.assertIs(vars(Owner)["make"], raw_make)

    def test_restores_after_an_exception(self):
        home = types.ModuleType("home")
        home.f = len
        with self.assertRaises(RuntimeError):
            with tracer.patched(tracer.Tracer(), [("home.f", home, "f", None)], [home]):
                raise RuntimeError
        self.assertIs(home.f, len)


if __name__ == "__main__":
    unittest.main()
