"""SHIP-edge policy check: a necessary condition of Definition 1.

For every executed plan, every base table scanned under a SHIP edge must
have at least one policy, installed at the location the table was read
from, whose `to` list names the edge's destination or `*`. The policies
are parsed here from the texts the benchmark installed (policies.tsv:
location, tab, policy text); nothing is shared with the program's policy
evaluator or compliance checker.
"""

import re

_POLICY = re.compile(
    r"^\s*ship\s+.+?\s+from\s+(?P<table>\w+)\s+to\s+(?P<to>.+?)"
    r"(?:\s+where\s+.*|\s+group\s+by\s+.*)?\s*$",
    re.IGNORECASE | re.DOTALL)


def parse_policy(text):
    """(table, set of destinations) of a `ship ... from T to L1, L2 ...`
    expression; '*' stands for every location."""
    m = _POLICY.match(text)
    if m is None:
        raise ValueError(f"unparsable policy: {text!r}")
    to = {d.strip().lower() for d in m.group("to").split(",")}
    return m.group("table").lower(), to


def load_policies(path):
    """{(location, table): [destination sets]} from a policies.tsv file."""
    grants = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            location, text = line.rstrip("\n").split("\t", 1)
            table, to = parse_policy(text)
            grants.setdefault((location.lower(), table), []).append(to)
    return grants


def check_edges(plans, grants):
    """Violation messages for every SHIP edge no installed policy allows.
    `plans` is the `edges` list of result.json."""
    violations = []
    for plan in plans:
        for edge in plan["edges"]:
            dest = edge["to"].lower()
            for table, location in edge["scans"]:
                allowed = grants.get((location.lower(), table.lower()), [])
                if not any(dest in to or "*" in to for to in allowed):
                    violations.append(
                        f"{plan['query']}: {table}@{location} shipped "
                        f"{edge['from']} -> {edge['to']} with no policy "
                        f"naming {edge['to']}")
    return violations
