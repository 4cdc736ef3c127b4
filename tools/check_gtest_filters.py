#!/usr/bin/env python3
"""Fail when a --gtest_filter in a workflow file selects no test.

gtest exits 0 when --gtest_filter matches nothing, so a renamed suite turns a
CI step into a silent no-op. This script finds every
`./<build-dir>/tests/phigraph_tests --gtest_filter='...'` command in the
given workflow file and, for each test binary that exists in the current
checkout, lists the tests every ':'-separated positive pattern selects.
A pattern that selects zero tests is an error. Binaries that were not built
here (another job's preset) are skipped.

Usage:
    check_gtest_filters.py .github/workflows/ci.yml
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

COMMAND = re.compile(
    r"(\./build[\w-]*/tests/phigraph_tests)\s+--gtest_filter='([^']+)'"
)


def listed_tests(binary: str, pattern: str) -> int:
    out = subprocess.run(
        [binary, "--gtest_list_tests", f"--gtest_filter={pattern}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    # Test names are the indented lines under each "Suite." header.
    return sum(1 for line in out.splitlines() if line.startswith("  "))


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1], encoding="utf-8") as f:
        commands = COMMAND.findall(f.read())
    errors = checked = 0
    for binary, gtest_filter in commands:
        if not os.access(binary, os.X_OK):
            continue
        positive = gtest_filter.split("-", 1)[0]
        for pattern in filter(None, positive.split(":")):
            checked += 1
            if listed_tests(binary, pattern) == 0:
                errors += 1
                print(f"ERROR: {binary}: filter '{pattern}' selects no test")
    print(f"check_gtest_filters: {checked} pattern(s) checked, {errors} empty")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
