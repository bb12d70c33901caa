"""Iteration boundaries and per-layer arithmetic, without the library."""

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import instrument  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def scripted(times):
    it = iter(times)
    return lambda: next(it)


def fake_autodiff():
    class Adam:
        def __init__(self, params):
            self.params = params

        def zero_grad(self):
            pass

        def step(self):
            pass

    class Sgd:
        def step(self):
            pass

    return types.SimpleNamespace(Adam=Adam, Sgd=Sgd)


class TestIterationClock(unittest.TestCase):
    def test_cascade_iterations_run_from_zero_grad_to_step(self):
        ad = fake_autodiff()
        clock = instrument.IterationClock("cascade", NullTracer())
        patcher = instrument.Patcher()
        instrument.install_clock(patcher, ad, clock, scripted([0, 2, 5, 9]))
        opt = ad.Adam([])
        for _ in range(2):
            opt.zero_grad()
            opt.step()
        self.assertEqual(clock.durations, [2, 4])
        patcher.undo()
        self.assertNotIn("install_clock", ad.Adam.step.__qualname__)

    def test_prn_iteration_is_critic_steps_then_refiner_step(self):
        ad = fake_autodiff()
        clock = instrument.IterationClock("prn", NullTracer())
        instrument.install_clock(instrument.Patcher(), ad, clock,
                                 scripted([0, 3, 3, 7]))
        clock.reset(expect=2)
        critic, refiner = ad.Adam([]), ad.Sgd()    # creation opens iteration 1
        for _ in range(2):
            for _ in range(5):
                critic.zero_grad()
                critic.step()
            refiner.step()                          # ends it, opens the next
        self.assertEqual(clock.durations, [3, 4])
        self.assertEqual(clock.remaining, 0)
        self.assertIsNone(clock._t0)                # none left open after the last

    def test_unbalanced_hooks_raise(self):
        clock = instrument.IterationClock("cascade", NullTracer())
        with self.assertRaises(RuntimeError):
            clock.end(lambda: 0)
        clock.begin(lambda: 0)
        with self.assertRaises(RuntimeError):
            clock.begin(lambda: 1)


class TestPerLayer(unittest.TestCase):
    def spans(self):
        """One timed training call of two iterations and one reconstruct."""
        t = Tracer(clock=scripted(range(100)))
        train = t.open("bench.train")
        call = t.open("cascade.train")
        for _ in range(2):
            it = t.open("cascade.iter")
            conv = t.open("autodiff.conv2d", {"flops": 6e9, "im2col_bytes": 2 ** 20,
                                              "stride": 1})
            t.close(conv)
            bwd = t.open("autodiff.backward")
            cb = t.open("autodiff.conv2d.bwd", {"flops": 12e9})
            t.close(cb)
            t.close(bwd)
            t.close(it)
        t.close(call)
        t.close(train)
        recon = t.open("bench.recon")
        r = t.open("cascade.Reconstructor.reconstruct")
        t.count("nodes", 7)
        t.close(r)
        t.close(recon)
        return t.spans

    def test_scopes_and_self_times(self):
        m = instrument.per_layer_metrics(self.spans())
        # each conv forward span lasts 1 tick; the clock ticks in seconds
        self.assertEqual(m["autodiff.conv2d.fwd_ms"], 1e3)
        self.assertEqual(m["autodiff.conv2d.bwd_ms"], 1e3)
        self.assertEqual(m["autodiff.conv2d.calls"], 1)
        self.assertEqual(m["autodiff.conv2d.gflop_per_s"], 36e9 / 4 / 1e9)
        self.assertEqual(m["autodiff.backward.walk_ms"], 2e3)   # 3 ticks minus 1
        self.assertEqual(m["autodiff.im2col_mb"], 1.0)
        self.assertEqual(m["cascade.iter.ms"], 7e3)
        self.assertEqual(m["cascade.iter.backward_ms"], 3e3)
        self.assertEqual(m["cascade.iter.forward_ms"], 4e3)     # 7 - 3 - 0
        self.assertAlmostEqual(m["cascade.iter.traced_share"], 100 * 4 / 7)
        self.assertEqual(m["cascade.train.outside_iter_ms"], 3e3)  # 17 - 2 * 7
        self.assertEqual(m["autodiff.graph_nodes"], 7)
        self.assertEqual(m["fidelity.wab_t.ms"], 0.0)
        self.assertEqual(set(m), set(instrument.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
