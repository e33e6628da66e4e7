"""Self-tests of the benchmark's independent checks: each check passes
on correct input and fails on an injected wrong row or illegal edge.

    python3 benchmark/test_checks.py
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import ship_check  # noqa: E402
import run  # noqa: E402


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class CompareRowsTest(unittest.TestCase):
    def test_multiset_passes_in_any_order_within_tolerance(self):
        expected = [["a", 1.0], ["b", 2.0]]
        self.assertIsNone(oracle.compare_rows([["b", 2.0 + 1e-9], ["a", 1]],
                                              expected))

    def test_wrong_value_fails(self):
        self.assertIsNotNone(oracle.compare_rows([["a", 1.0], ["b", 2.1]],
                                                 [["a", 1.0], ["b", 2.0]]))

    def test_missing_and_extra_rows_fail(self):
        self.assertIsNotNone(oracle.compare_rows([["a", 1.0]],
                                                 [["a", 1.0], ["b", 2.0]]))
        self.assertIsNotNone(oracle.compare_rows(
            [["a", 1.0], ["a", 1.0]], [["a", 1.0], ["b", 2.0]]))

    def test_nulls_equal_only_nulls(self):
        self.assertIsNone(oracle.compare_rows([[None, 1]], [[None, 1]]))
        self.assertIsNotNone(oracle.compare_rows([[0, 1]], [[None, 1]]))

    def test_order_by_checks_key_sequence(self):
        expected = [[3, "x"], [2, "y"], [1, "z"]]
        order = [(0, True)]
        self.assertIsNone(oracle.compare_rows(expected, expected, order))
        self.assertIsNotNone(oracle.compare_rows(
            [[2, "y"], [3, "x"], [1, "z"]], expected, order))

    def test_ties_at_the_limit_cut_are_free(self):
        expected = [[5, "a"], [4, "b"], [4, "c"], [4, "d"], [1, "e"]]
        order = [(0, True)]
        self.assertIsNone(oracle.compare_rows([[5, "a"], [4, "d"]], expected,
                                              order, limit=2))
        self.assertIsNotNone(oracle.compare_rows([[5, "a"], [4, "x"]],
                                                 expected, order, limit=2))
        self.assertIsNotNone(oracle.compare_rows([[5, "a"], [1, "e"]],
                                                 expected, order, limit=2))


class AnswerOracleTest(unittest.TestCase):
    """End to end over a tiny dump: SQLite recomputes Q6 and a template."""

    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.dir)
        write(os.path.join(self.dir, "data", "lineitem.tsv"),
              "orderkey:INT64\tquantity:INT64\textendedprice:DOUBLE\t"
              "discount:DOUBLE\tshipdate:DATE\n"
              "1\t10\t100.5\t0.06\t1994-02-01\n"
              "2\t30\t200\t0.06\t1994-03-01\n")
        write(os.path.join(self.dir, "data", "nation.tsv"),
              "nationkey:INT64\tname:STRING\tregionkey:INT64\n"
              "0\tA\t1\n1\tB\t1\n2\tC\t2\n")
        write(os.path.join(self.dir, "appends", "lineitem.tsv"),
              "0\t3\t5\t1000\t0.05\t1994-05-05\n")

    def check(self, answers):
        result = {"answers": answers}
        return oracle.check_answers(result,
                                    oracle.expected_answers(self.dir, result))

    def test_right_answers_pass(self):
        self.assertEqual(self.check([
            {"id": "q6", "query": 6, "batches": 0, "rows": [[6.03]]},
            {"id": "q6b", "query": 6, "batches": 1, "rows": [[56.03]]},
            {"id": "t0", "template": 0, "params": [1], "rows": [[2]]},
        ]), [])

    def test_wrong_row_fails(self):
        self.assertEqual(len(self.check([
            {"id": "q6", "query": 6, "batches": 0, "rows": [[6.04]]},
            {"id": "q6b", "query": 6, "batches": 1, "rows": [[6.03]]},
            {"id": "t0", "template": 0, "params": [1], "rows": [[3]]},
        ])), 3)


class ShipCheckTest(unittest.TestCase):
    GRANTS = {
        ("l1", "customer"): [{"l3", "l4", "l5"}],
        ("l5", "nation"): [{"*"}],
        ("l4", "lineitem"): [{"l1"}],
    }

    def plan(self, to, scans):
        return [{"query": "Q", "edges": [{"from": "lx", "to": to,
                                          "scans": scans}]}]

    def test_parse_policy(self):
        self.assertEqual(
            ship_check.parse_policy(
                "ship extendedprice, discount as aggregates sum from lineitem "
                "to l1, l2 group by orderkey"),
            ("lineitem", {"l1", "l2"}))
        self.assertEqual(
            ship_check.parse_policy("ship * from nation to *"),
            ("nation", {"*"}))
        self.assertEqual(
            ship_check.parse_policy(
                "ship a from customer to l4, l5 where mktsegment = 'X'"),
            ("customer", {"l4", "l5"}))

    def test_legal_edges_pass(self):
        self.assertEqual(ship_check.check_edges(
            self.plan("l4", [["customer", "l1"], ["nation", "l5"]]),
            self.GRANTS), [])

    def test_illegal_edge_fails(self):
        self.assertEqual(len(ship_check.check_edges(
            self.plan("l2", [["customer", "l1"], ["nation", "l5"]]),
            self.GRANTS)), 1)
        self.assertEqual(len(ship_check.check_edges(
            self.plan("l1", [["lineitem", "l3"]]), self.GRANTS)), 1)


class DurabilityTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.dir)
        for table in ("orders", "lineitem"):
            write(os.path.join(self.dir, "data", table + ".tsv"),
                  "k:INT64\n1\n2\n")
            write(os.path.join(self.dir, "appends", table + ".tsv"),
                  "0\t3\n1\t4\n")
            write(os.path.join(self.dir, "recovered", table + ".tsv"),
                  "3\n4\n")
        self.result = {"durability": {"reopen": "OK", "orders_rows": 4,
                                      "lineitem_rows": 4}}

    def test_all_appends_recovered_pass(self):
        self.assertEqual(run.check_durability(self.dir, self.result), [])

    def test_lost_or_changed_append_fails(self):
        write(os.path.join(self.dir, "recovered", "orders.tsv"), "3\n5\n")
        self.result["durability"]["lineitem_rows"] = 3
        self.assertEqual(len(run.check_durability(self.dir, self.result)), 2)


if __name__ == "__main__":
    unittest.main()
