#!/usr/bin/env python3
"""The exception budget: what the hot-path audit is told to trust.

    bcp audit --root . --json > audit-report.json
    python3 scripts/exception_budget.py audit-report.json

Reads the `exceptions` the audit reports (its `// bcp:hot-path` roots and its
well-formed `// audit: allow(<kind>, ...)` directives by kind, outside test
modules; a directive naming several kinds counts once per kind), prints each
against the committed budget below, and exits 1 if any count grew. Shrinking
is allowed; lower the budget in the same change so it cannot grow back.
"""
import json
import sys

BUDGET = {
    "hot-path roots": 39,
    "alloc": 26,
    "block": 18,
    "cast": 6,
    "index": 50,
    "panic": 10,
}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1], encoding="utf-8") as f:
        exceptions = json.load(f)["exceptions"]
    counts = {"hot-path roots": exceptions["hot_path_roots"], **exceptions["allow"]}
    grew = []
    for kind, now in counts.items():
        budget = BUDGET.get(kind, 0)
        note = "" if now == budget else (" (over budget)" if now > budget else " (lower the budget)")
        print(f"{kind:<15} {now:>4} / {budget}{note}")
        if now > budget:
            grew.append(kind)
    if grew:
        print(f"[fail] the exception budget grew: {', '.join(grew)}")
    sys.exit(1 if grew else 0)


if __name__ == "__main__":
    main()
