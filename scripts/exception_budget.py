#!/usr/bin/env python3
"""The exception budget: what the hot-path audit is told to trust.

    python3 scripts/exception_budget.py

Counts `// bcp:hot-path` roots and `// audit: allow(<kind>, ...)` directives
by kind in the Rust sources under crates/ and src/ (outside crates/bcp-check,
whose sources hold the analyzer's own fixtures), prints each against the
committed budget below, and exits 1 if any count grew. A directive naming
several kinds counts once per kind. Shrinking is allowed; lower the budget
in the same change so it cannot grow back.
"""
import os
import re
import sys

BUDGET = {
    "hot-path roots": 39,
    "alloc": 26,
    "block": 18,
    "cast": 6,
    "index": 50,
    "panic": 10,
}

DIRECTIVE = re.compile(r"audit: allow\(([^)]*)\)")

root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
counts = dict.fromkeys(BUDGET, 0)
for top in ("crates", "src"):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames[:] = [d for d in dirnames if d not in ("bcp-check", "target")]
        for name in filenames:
            if not name.endswith(".rs"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                for line in f:
                    if "bcp:hot-path" in line:
                        counts["hot-path roots"] += 1
                    for kinds in DIRECTIVE.findall(line):
                        for kind in filter(None, (k.strip() for k in kinds.split(","))):
                            counts[kind] = counts.get(kind, 0) + 1

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
