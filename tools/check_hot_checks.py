#!/usr/bin/env python3
"""Lint: `check(cond, message)` must not format its message eagerly.

`tsr::check` takes a `const char*` message, so a message concatenated with
`+`, `shape_to_string` or `std::to_string` only compiles through `.c_str()`,
and then builds a heap string on every call, pass or fail. Such sites must
test first and format only on failure. This flags every `check(` call, up to
its `;`, under src/, bench/ and examples/ that mentions `c_str()`,
`shape_to_string` or `to_string`.

    python3 tools/check_hot_checks.py

Exit status 0 = clean, 1 = findings (each printed as file:line).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CALL = re.compile(r"(?<![\w.>])check\([^;]*?(c_str\(\)|shape_to_string|to_string)[^;]*;")

findings = 0
for d in ("src", "bench", "examples"):
    for path in sorted((REPO / d).rglob("*.[ch]pp")):
        text = path.read_text()
        for m in CALL.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            print(f"{path.relative_to(REPO)}:{line}: check() formats its "
                  f"message eagerly ({m.group(1)})")
            findings += 1
sys.exit(1 if findings else 0)
