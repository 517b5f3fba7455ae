"""Self-tests of the benchmark's independent checks.

Each check must accept the program's genuine output and reject a corrupted
one.  Run from the repository root:

    python3 -m unittest discover -s qkbench -p "test_*.py"
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qkforge import cli, cm_arith, dynamics, errors, ffpoly, qk  # noqa: E402
from qkforge.ffpoly import Poly  # noqa: E402
from qkforge.seqgen import generate_sequence  # noqa: E402

F0 = [51, 3, 0, 0, 0, 1]
PROGRAM = type("Program", (), {"cli": cli, "qk": qk, "ffpoly": ffpoly, "errors": errors,
                               "dynamics": dynamics, "cm_arith": cm_arith})


def _record(k: int, steps: int) -> dict:
    return generate_sequence(Poly(tuple(F0), 53), k, steps).to_json_dict()


def _predict(p: int, k: int, n: int) -> dict:
    rc, out = workloads.cli_call(PROGRAM, ["predict", "--p", str(p), "--k", str(k),
                                           "--n", str(n)])
    assert rc == 0
    return json.loads(out)


class ArithmeticTest(unittest.TestCase):
    def test_transform_matches_program(self):
        rng = random.Random(1)
        for _ in range(40):
            p = rng.choice((5, 13, 53, 113))
            f = [rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1]
            k = rng.randrange(1, p)
            want = qk.qk_transform(Poly(tuple(f), p), k).coeffs
            self.assertEqual(checks.transform(f, k, p), list(want))

    def test_trial_division_matches_rabin(self):
        rng = random.Random(2)
        for _ in range(200):
            p = rng.choice((3, 5, 7))
            f = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1]
            self.assertEqual(checks.is_irreducible_trial(f, p),
                             ffpoly.is_irreducible(Poly(tuple(f), p)), f)

    def test_two_adic_depths_match_program(self):
        for p in (29, 53, 109, 113, 137, 193):
            for name in checks.admissible_classes(p):
                for k in qk.find_k(p, name):
                    payload = _predict(p, k, 1)
                    rho0 = tuple(payload["rho0"]) if "rho0" in payload else None
                    for n in (1, 2, 3, 12, 64):
                        dp = cm_arith.depths(p, k, n)
                        self.assertEqual(checks.depth_pair(name, tuple(payload["pi"]), rho0, n),
                                         (dp.e0, dp.e1), (p, k, n))

    def test_curve_order_kills_points_only_for_the_true_order(self):
        p, rng = 1009, random.Random(3)
        order = cm_arith.count_points(cm_arith.CURVE_DISC4, p)
        points = checks.curve_points("C2", p, rng, 4)
        self.assertTrue(all(checks.ec_mul(order, P, 1, p) is None for P in points))
        self.assertTrue(any(checks.ec_mul(order + 2, P, 1, p) is not None for P in points))

    def test_big_prime_is_a_30_digit_c2_prime(self):
        self.assertTrue(checks.is_prime(workloads.BIG_PRIME))
        self.assertEqual((len(str(workloads.BIG_PRIME)), workloads.BIG_PRIME % 4), (30, 1))


class ChainCheckTest(unittest.TestCase):
    trace15 = [5, 10, 10, 10, 20, 20, 40]

    def test_genuine_chains_pass(self):
        self.assertEqual(checks.check_chain(_record(15, 6), 53, 15, F0, self.trace15), [])
        self.assertEqual(checks.check_chain(_record(7, 3), 53, 7, F0, [5, 10, 20, 40]), [])

    def test_reducible_polynomial_swapped_in_is_rejected(self):
        record = _record(15, 6)
        for i in (1, 2, 4):  # a doubled step, a split step, a doubled step
            bad = copy.deepcopy(record)
            n = bad["steps"][i]["degree"]
            half = [1] * (n // 2) + [1]  # (x^{n/2} + ... + 1)^2 is reducible
            square = [0] * (n + 1)
            for a, x in enumerate(half):
                for b, y in enumerate(half):
                    square[a + b] = (square[a + b] + x * y) % 53
            bad["steps"][i]["coeffs"] = square
            self.assertNotEqual(checks.check_chain(bad, 53, 15, F0, self.trace15), [], i)

    def test_reducible_f0_is_rejected(self):
        quadratic, cubic = [2, 0, 1], [51, 3, 0, 1]  # x^2 + 2 has no root mod 53
        f0 = [0] * 6
        for a, x in enumerate(quadratic):
            for b, y in enumerate(cubic):
                f0[a + b] = (f0[a + b] + x * y) % 53
        self.assertFalse(checks.is_irreducible_trial(f0, 53))
        record = _record(15, 1)
        record["steps"][0]["coeffs"] = f0
        self.assertNotEqual(checks.check_chain(record, 53, 15, f0), [])

    def test_wrong_trace_and_wrong_kind_are_rejected(self):
        record = _record(15, 6)
        self.assertNotEqual(checks.check_chain(record, 53, 15, F0, self.trace15[:-1] + [20]), [])
        bad = copy.deepcopy(record)
        bad["steps"][2]["kind"] = checks.DOUBLED
        self.assertNotEqual(checks.check_chain(bad, 53, 15, F0), [])
        bad = copy.deepcopy(record)
        bad["steps"][1]["kind"] = "split-took-first"
        self.assertNotEqual(checks.check_chain(bad, 53, 15, F0), [])

    def test_misreported_record_fields_are_rejected(self):
        record = _record(7, 2)
        for key, value in (("p", 59), ("k", 8), ("class", "C2")):
            bad = dict(record, **{key: value})
            self.assertNotEqual(checks.check_chain(bad, 53, 7, F0), [], key)

    def test_generate_op_checks_the_out_record(self):
        with tempfile.TemporaryDirectory() as tmp:
            op = workloads._generate_op(PROGRAM, Path(tmp), 53, 7, F0, 3, 0, [5, 10, 20, 40])
            result = op.run()
            self.assertEqual(op.check(result), [])
            path = Path(tmp) / "chain-p53-k7-s3.json"
            record = json.loads(path.read_text())
            record["steps"][3]["coeffs"][0] = (record["steps"][3]["coeffs"][0] + 1) % 53
            path.write_text(json.dumps(record))
            self.assertNotEqual(op.check(result), [])
            path.write_text("{")
            self.assertNotEqual(op.check(result), [])


class ScheduleCheckTest(unittest.TestCase):
    def _points(self, name, p):
        return checks.curve_points(name, p, random.Random(4), 4)

    def test_genuine_predictions_pass(self):
        for p, k, n in ((53, 7, 5), (53, 15, 1), (1009, qk.find_k(1009, "C2")[0], 64),
                        (1289, qk.find_k(1289, "C3-")[1], 3)):
            name = checks.class_of(k, p)
            errs, pair = checks.check_prediction(_predict(p, k, n), p, k, n,
                                                 self._points(name, p))
            self.assertEqual(errs, [], (p, k, n))
            self.assertIsNotNone(pair)

    def test_corrupted_predictions_are_rejected(self):
        good = _predict(53, 7, 5)
        points = self._points("C3", 53)
        for key, value in (("pi", [good["pi"][0] + 1, good["pi"][1]]),
                           ("a_p", good["a_p"] + 2), ("e0", good["e0"] + 1),
                           ("e1", good["e1"] + 1), ("rho0", [1, -1]),
                           ("st_bound", good["st_bound"] - 1), ("pattern", "x")):
            errs, _ = checks.check_prediction(dict(good, **{key: value}), 53, 7, 5, points)
            self.assertNotEqual(errs, [], key)

    def test_depth_laws_reject_violations(self):
        self.assertEqual(checks.depth_law_errors("C2", 1, 2, 5), [])
        self.assertNotEqual(checks.depth_law_errors("C2", 1, 1, 5), [])
        self.assertNotEqual(checks.depth_law_errors("C2", 1, 3, 3), [])
        self.assertNotEqual(checks.depth_law_errors("C3", 1, 1, 1), [])
        self.assertEqual(checks.depth_law_errors("C3", 8, 2 + 3 + 2, 1, base=(1, 2, 3)), [])
        self.assertNotEqual(checks.depth_law_errors("C3", 8, 9, 1, base=(1, 2, 3)), [])

    def test_sweep_identity_count(self):
        # The README example: sweep-lemmas --max-p 60 --max-n 3 --max-m 2 --max-i 2
        self.assertEqual(checks.sweep_identity_count(60, 3, 2, 2), 456)
        op = workloads._sweep_lemmas_op(None, 100)
        expected = checks.sweep_identity_count(100, 6, 3, 3)
        good = f"checked {expected} identities below p < 100: 0 violations\n"
        self.assertEqual(op.check((0, good)), [])
        self.assertEqual(op.check(workloads.cli_call(PROGRAM, ["sweep-lemmas", "--max-p", "100"])), [])
        self.assertNotEqual(op.check((0, good.replace(str(expected), str(expected - 24)))), [])
        self.assertNotEqual(op.check((0, good.replace("0 violations", "1 violations"))), [])


class GraphCheckTest(unittest.TestCase):
    def _graph(self, p, n, k):
        g = dynamics.build_graph(p, n, k)
        comps = [(s.cycle_length, s.tree_depth, s.node_count, s.binary_shape_ok)
                 for s in dynamics.component_stats(g)]
        dp = cm_arith.depths(p, k, n)
        return g, comps, (dp.e0, dp.e1)

    def test_genuine_graphs_pass(self):
        for p, n, k in ((13, 2, qk.find_k(13, "C2")[0]), (11, 1, 2), (29, 2, 6)):
            g, comps, pair = self._graph(p, n, k)
            everything = dict(enumerate(g.successors))
            self.assertEqual(checks.check_graph(p, n, k, list(g.modulus.coeffs), g.size,
                                                comps, pair, everything), [])

    def test_corrupted_graphs_are_rejected(self):
        p, n, k = 29, 2, 6
        g, comps, pair = self._graph(p, n, k)
        modulus, sampled = list(g.modulus.coeffs), {i: g.successors[i] for i in (0, 1, 77, 500)}
        wrong = {**sampled, 77: (sampled[77] + 1) % g.size}
        self.assertNotEqual(checks.check_graph(p, n, k, modulus, g.size, comps, pair, wrong), [])
        dropped = comps[1:]
        self.assertNotEqual(checks.check_graph(p, n, k, modulus, g.size, dropped, pair, sampled), [])
        deeper = [(c, d + 1, m, s) for c, d, m, s in comps]
        self.assertNotEqual(checks.check_graph(p, n, k, modulus, g.size, deeper, pair, sampled), [])
        misshapen = [(c, d, m, False) for c, d, m, s in comps]
        self.assertNotEqual(checks.check_graph(p, n, k, modulus, g.size, misshapen, pair, sampled), [])
        reducible = [2, 3, 1]  # (x + 1)(x + 2)
        self.assertNotEqual(checks.check_graph(p, n, k, reducible, g.size, comps, pair, sampled), [])

    def test_explore_op_checks_the_dot_text(self):
        with tempfile.TemporaryDirectory() as tmp:
            op = workloads._explore_op(PROGRAM, Path(tmp), 29, 6, [0, 1, 5, 300, 841])
            result = op.run()
            self.assertEqual(op.check(result), [])
            dot = Path(tmp) / "explore-p29-k6.dot"
            lines = dot.read_text().split("\n")
            size = 29**2 + 1
            src, _, dst = lines[1 + size + 300].partition(" -> ")
            lines[1 + size + 300] = f'{src} -> "0,0";'
            dot.write_text("\n".join(lines))
            self.assertNotEqual(op.check(result), [])


def _program():
    """The imported qkforge, shaped like run.import_program's result."""
    import importlib

    import run
    return type("Program", (), {"package": importlib.import_module("qkforge"),
                                **{short: importlib.import_module(f"qkforge.{short}")
                                   for short in run.PROGRAM_MODULES}})


def _predict_ops(m, count: int) -> list:
    p = workloads._seeded_prime(m, random.Random(1), "C2", 10**4)
    k = qk.find_k(p, "C2")[0]
    points = checks.curve_points("C2", p, random.Random(2), 4)
    return [workloads._predict_op(m, p, k, 1, points, {}) for _ in range(count)]


class RunnerTest(unittest.TestCase):
    def test_marked_rounds_recompute_count_points(self):
        """Marks wrap count_points; every round must still start with its
        cache empty, as a user's first `predict` would, so the second round's
        cache statistics equal the first's."""
        import run
        m = _program()
        count_points = m.cm_arith.count_points
        ops = _predict_ops(m, 2)
        runner = run.Runner(m, ops, marked=True)
        try:
            self.assertIsNot(m.cm_arith.count_points, count_points)  # Marks wrapped it
            self.assertIn(count_points, runner.caches)
            runner.round()
            first = count_points.cache_info()
            runner.round()
            second = count_points.cache_info()
        finally:
            runner.marks.uninstall()
        self.assertIs(m.cm_arith.count_points, count_points)
        self.assertEqual(runner.errors, [])
        self.assertEqual(first.misses, 1)
        self.assertEqual(second, first)

    @unittest.skipUnless(hasattr(os, "sched_setaffinity"), "no CPU affinity on this platform")
    def test_timed_run_rotates_over_cpus_and_restores_them(self):
        """Each round runs on one allowed CPU, the rounds visit all of them,
        and the run ends with the process allowed every CPU again."""
        import run
        m = _program()
        ops = _predict_ops(m, 1)
        cpus = set(run.allowed_cpus())
        real, calls = os.sched_setaffinity, []

        def record(pid, mask):
            calls.append(set(mask))
            real(pid, mask)

        with mock.patch.object(run, "set_up", lambda workload, seed: (m, ops, 0.0)), \
                mock.patch.object(os, "sched_setaffinity", record):
            out = run.timed_run(m, ops, "schedules", 1, 0.0, 0.3)
        self.assertTrue(out["correct"])
        self.assertEqual(os.sched_getaffinity(0), cpus)
        if len(cpus) > 1:
            self.assertEqual(calls[-1], cpus)
            self.assertTrue(all(len(mask) == 1 for mask in calls[:-1]))
            self.assertEqual(set().union(*calls[:-1]), cpus)


if __name__ == "__main__":
    unittest.main()
