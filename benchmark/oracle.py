"""Answer oracle: recomputes every checked answer in SQLite.

The benchmark's own SQLite-dialect text of each TPC-H query and each
service template runs over the same generated rows the program loaded
(the TSV dumps cgq_bench writes), plus the rows appended before the
round that produced the answer. Nothing here uses the program's code.

Comparison rules (compare_rows):
  * Numbers compare with a relative tolerance of 1e-6 (absolute 1e-6 for
    magnitudes below 1): sums over doubles may be added in another order.
    Integers and floats compare by value.
  * NULL equals NULL and nothing else. SQLite orders NULL first when
    ascending and last when descending; no checked sort key is NULL.
  * Without ORDER BY, rows compare as multisets.
  * With ORDER BY, the program's sequence of sort keys must equal
    SQLite's, and within each run of equal keys the rows compare as
    multisets. Under LIMIT k, the run of equal keys cut by the limit may
    hold any of SQLite's rows with that key (ties at the cut are free).

Regenerate expected answers for a run directory with
    python3 benchmark/oracle.py RUN_DIR [OUT.json]
which writes SQLite's answer for every answer in RUN_DIR/result.json.
"""

import json
import os
import sqlite3
import sys

REL_TOL = 1e-6

# query -> (SQLite text without LIMIT, [(output column, descending)], limit)
TPCH = {
    2: ("""
SELECT s.acctbal, s.name, n.name AS nation, p.partkey, p.mfgr
FROM part p, supplier s, partsupp ps, nation n, region r
WHERE p.partkey = ps.partkey AND s.suppkey = ps.suppkey
  AND p.size = 15 AND p.type LIKE '%BRASS'
  AND s.nationkey = n.nationkey AND n.regionkey = r.regionkey
  AND r.name = 'EUROPE'
  AND ps.supplycost = (
    SELECT MIN(ps2.supplycost)
    FROM partsupp ps2, supplier s2, nation n2, region r2
    WHERE ps2.partkey = p.partkey AND s2.suppkey = ps2.suppkey
      AND s2.nationkey = n2.nationkey AND n2.regionkey = r2.regionkey
      AND r2.name = 'EUROPE')
ORDER BY s.acctbal DESC""", [(0, True)], 100),
    3: ("""
SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount)) AS revenue,
       o.orderdate, o.shippriority
FROM customer c, orders o, lineitem l
WHERE c.mktsegment = 'BUILDING'
  AND c.custkey = o.custkey AND l.orderkey = o.orderkey
  AND o.orderdate < '1995-03-15' AND l.shipdate > '1995-03-15'
GROUP BY l.orderkey, o.orderdate, o.shippriority
ORDER BY revenue DESC, o.orderdate""", [(1, True), (2, False)], 10),
    5: ("""
SELECT n.name, SUM(l.extendedprice * (1 - l.discount)) AS revenue
FROM customer c, orders o, lineitem l, supplier s, nation n, region r
WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey
  AND l.suppkey = s.suppkey AND c.nationkey = s.nationkey
  AND s.nationkey = n.nationkey AND n.regionkey = r.regionkey
  AND r.name = 'ASIA'
  AND o.orderdate >= '1994-01-01' AND o.orderdate < '1995-01-01'
GROUP BY n.name
ORDER BY revenue DESC""", [(1, True)], None),
    8: ("""
SELECT n2.name, SUM(l.extendedprice * (1 - l.discount)) AS volume
FROM part p, supplier s, lineitem l, orders o, customer c,
     nation n1, nation n2, region r
WHERE p.partkey = l.partkey AND s.suppkey = l.suppkey
  AND l.orderkey = o.orderkey AND o.custkey = c.custkey
  AND c.nationkey = n1.nationkey AND n1.regionkey = r.regionkey
  AND r.name = 'AMERICA' AND s.nationkey = n2.nationkey
  AND o.orderdate BETWEEN '1995-01-01' AND '1996-12-31'
  AND p.type = 'ECONOMY ANODIZED STEEL'
GROUP BY n2.name""", [], None),
    9: ("""
SELECT n.name,
       SUM(l.extendedprice * (1 - l.discount) - ps.supplycost * l.quantity)
FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n
WHERE s.suppkey = l.suppkey AND ps.suppkey = l.suppkey
  AND ps.partkey = l.partkey AND p.partkey = l.partkey
  AND o.orderkey = l.orderkey AND s.nationkey = n.nationkey
  AND p.name LIKE '%green%'
GROUP BY n.name""", [], None),
    10: ("""
SELECT c.custkey, c.name, SUM(l.extendedprice * (1 - l.discount)) AS revenue,
       c.acctbal, n.name, c.address, c.phone
FROM customer c, orders o, lineitem l, nation n
WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey
  AND o.orderdate >= '1993-10-01' AND o.orderdate < '1994-01-01'
  AND l.returnflag = 'R' AND c.nationkey = n.nationkey
GROUP BY c.custkey, c.name, c.acctbal, c.phone, n.name, c.address
ORDER BY revenue DESC""", [(2, True)], 20),
    1: ("""
SELECT returnflag, linestatus, SUM(quantity), SUM(extendedprice),
       SUM(extendedprice * (1 - discount)), AVG(quantity),
       AVG(extendedprice), AVG(discount), COUNT(orderkey)
FROM lineitem
WHERE shipdate <= '1998-09-02'
GROUP BY returnflag, linestatus
ORDER BY returnflag, linestatus""", [(0, False), (1, False)], None),
    4: ("""
SELECT o.orderpriority, COUNT(*)
FROM orders o
WHERE o.orderdate >= '1993-07-01' AND o.orderdate < '1993-10-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.orderkey = o.orderkey AND l.commitdate < l.receiptdate)
GROUP BY o.orderpriority
ORDER BY o.orderpriority""", [(0, False)], None),
    6: ("""
SELECT SUM(extendedprice * discount)
FROM lineitem
WHERE shipdate >= '1994-01-01' AND shipdate < '1995-01-01'
  AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24""", [], None),
    12: ("""
SELECT l.shipmode, COUNT(o.orderkey)
FROM orders o, lineitem l
WHERE o.orderkey = l.orderkey AND l.shipmode IN ('MAIL', 'SHIP')
  AND l.commitdate < l.receiptdate AND l.shipdate < l.commitdate
  AND l.receiptdate >= '1994-01-01' AND l.receiptdate < '1995-01-01'
GROUP BY l.shipmode
ORDER BY l.shipmode""", [(0, False)], None),
    14: ("""
SELECT SUM(l.extendedprice * (1 - l.discount))
FROM lineitem l, part p
WHERE l.partkey = p.partkey AND p.type LIKE 'PROMO%'
  AND l.shipdate >= '1995-09-01' AND l.shipdate < '1995-10-01'""", [], None),
    19: ("""
SELECT SUM(l.extendedprice * (1 - l.discount))
FROM lineitem l, part p
WHERE p.partkey = l.partkey
  AND ((p.brand = 'Brand#12' AND l.quantity BETWEEN 1 AND 11
        AND p.size BETWEEN 1 AND 5)
    OR (p.brand = 'Brand#23' AND l.quantity BETWEEN 10 AND 20
        AND p.size BETWEEN 1 AND 10)
    OR (p.brand = 'Brand#34' AND l.quantity BETWEEN 20 AND 30
        AND p.size BETWEEN 1 AND 15))
  AND l.shipmode IN ('AIR', 'REG AIR')""", [], None),
}

# template -> (SQLite text with ? placeholders, parameter builder)
TEMPLATES = {
    0: ("SELECT count(*) FROM nation WHERE regionkey = ?", lambda p: p),
    1: ("SELECT name FROM customer WHERE custkey = ?", lambda p: p),
    2: ("SELECT count(*) FROM orders WHERE totalprice > ?",
        lambda p: [p[0] + 0.25]),
    3: ("SELECT name FROM supplier WHERE nationkey IN (?, ?)", lambda p: p),
}

INDEXES = [("lineitem", ["orderkey"]), ("orders", ["orderkey"]),
           ("partsupp", ["partkey", "suppkey"]), ("customer", ["custkey"]),
           ("part", ["partkey"]), ("supplier", ["suppkey"]),
           ("nation", ["nationkey"])]

SQL_TYPES = {"int64": "INTEGER", "double": "REAL", "string": "TEXT",
             "date": "TEXT"}


def _unescape(text):
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"t": "\t", "n": "\n", "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _convert(field, kind):
    if field == "\\N":
        return None
    if kind == "int64":
        return int(field)
    if kind == "double":
        return float(field)
    return _unescape(field)


def _parse_line(line, kinds):
    fields = line.rstrip("\n").split("\t")
    if "\\" in line:
        return [_convert(v, k) for v, k in zip(fields, kinds)]
    # Plain fields load as text; the column affinity of the SQLite table
    # turns INTEGER and REAL text into numbers exactly as int()/float().
    return fields


def read_tsv(path):
    """(column names, column kinds, rows) of a cgq_bench table dump."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        names = [h.split(":")[0] for h in header]
        kinds = [h.split(":")[1].lower() for h in header]
        rows = [_parse_line(line, kinds) for line in f]
    return names, kinds, rows


def read_appends(path, kinds):
    """[(batch, row)] of an append dump (batch index, then the row)."""
    out = []
    if not os.path.exists(path):
        return out
    with open(path, encoding="utf-8") as f:
        for line in f:
            batch, _, rest = line.partition("\t")
            out.append((int(batch), _parse_line(rest, kinds)))
    return out


def load_database(run_dir):
    """An in-memory SQLite database with every dumped table."""
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    kinds_of = {}
    data = os.path.join(run_dir, "data")
    for name in sorted(os.listdir(data)):
        table = name[:-len(".tsv")]
        names, kinds, rows = read_tsv(os.path.join(data, name))
        kinds_of[table] = kinds
        cols = ", ".join(f"{n} {SQL_TYPES[k]}" for n, k in zip(names, kinds))
        conn.execute(f"CREATE TABLE {table} ({cols})")
        marks = ", ".join("?" for _ in names)
        conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
    # Indexes on the join keys only make SQLite fast; answers do not
    # depend on them.
    for table, cols in INDEXES:
        if table in kinds_of:
            conn.execute(f"CREATE INDEX {table}_{cols[0]} ON {table}"
                         f"({', '.join(cols)})")
    conn.execute("ANALYZE")
    return conn, kinds_of


def _same_value(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        scale = max(1.0, abs(a), abs(b))
        return abs(a - b) <= REL_TOL * scale
    return a == b


def _same_row(a, b):
    return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))


def _multiset_diff(actual, expected, subset=False):
    """Rows of `actual` with no partner in `expected` (and, unless
    `subset`, unmatched expected rows)."""
    pool = list(expected)
    missing = []
    for row in actual:
        for i, cand in enumerate(pool):
            if _same_row(row, cand):
                del pool[i]
                break
        else:
            missing.append(row)
    return missing + ([] if subset else pool)


def compare_rows(actual, expected, order=(), limit=None):
    """None when `actual` is a correct answer given SQLite's full ordered
    `expected` (no LIMIT applied); else a one-line reason."""
    want = len(expected) if limit is None else min(limit, len(expected))
    if len(actual) != want:
        return f"{len(actual)} rows, expected {want}"
    if not order:
        diff = _multiset_diff(actual, expected[:want] if limit else expected)
        return f"rows differ: {diff[:3]}" if diff else None

    def key(row):
        return [row[c] for c, _ in order]

    for i, row in enumerate(actual):
        if not all(_same_value(a, b) for a, b in zip(key(row), key(expected[i]))):
            return f"row {i} sort key {key(row)}, expected {key(expected[i])}"
    # Runs of equal keys in the program's answer.
    i = 0
    while i < len(actual):
        j = i
        while j < len(actual) and all(
                _same_value(a, b) for a, b in zip(key(actual[j]), key(actual[i]))):
            j += 1
        group = [r for r in expected
                 if all(_same_value(a, b) for a, b in zip(key(r), key(actual[i])))]
        cut = j == len(actual) and len(group) > j - i
        diff = _multiset_diff(actual[i:j], group, subset=cut)
        if diff:
            return f"rows differ at key {key(actual[i])}: {diff[:3]}"
        i = j
    return None


def expected_answers(run_dir, result):
    """SQLite's answer for every answer in `result`, keyed by answer id."""
    conn, kinds = load_database(run_dir)
    appends = {t: read_appends(os.path.join(run_dir, "appends", t + ".tsv"),
                               kinds.get(t, []))
               for t in ("orders", "lineitem")}
    applied = 0
    out = {}
    for answer in sorted(result["answers"], key=lambda a: a.get("batches", 0)):
        batches = answer.get("batches", 0)
        if batches > applied:
            for table, rows in appends.items():
                new = [r for b, r in rows if applied <= b < batches]
                if new:
                    marks = ", ".join("?" for _ in new[0])
                    conn.executemany(
                        f"INSERT INTO {table} VALUES ({marks})", new)
            applied = batches
        if "query" in answer:
            sql, _, _ = TPCH[answer["query"]]
            rows = conn.execute(sql).fetchall()
        else:
            sql, params = TEMPLATES[answer["template"]]
            rows = conn.execute(sql, params(answer["params"])).fetchall()
        out[answer["id"]] = [list(r) for r in rows]
    return out


def check_answers(result, expected):
    """Failure messages for every answer SQLite disagrees with."""
    failures = []
    for answer in result["answers"]:
        if "query" in answer:
            _, order, limit = TPCH[answer["query"]]
        else:
            order, limit = (), None
        reason = compare_rows(answer["rows"], expected[answer["id"]],
                              order, limit)
        if reason:
            failures.append(f"answer {answer['id']}: {reason}")
    return failures


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    run_dir = argv[1]
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as f:
        result = json.load(f)
    expected = expected_answers(run_dir, result)
    out = argv[2] if len(argv) > 2 else os.path.join(run_dir, "expected.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1)
    failures = check_answers(result, expected)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
