"""Run every case of ``test_cli.GOLDEN_CASES`` through the installed
``reseqkit`` console script.  Each exit code must equal its ``GOLDEN_EXIT``
entry (0 for the rest), and each stdout its file under ``tests/golden/``.

    python -m pip install -e .
    python tests/check_console_script.py

Prints one line per mismatch and a summary; exits 1 on any mismatch.
"""

import subprocess
import sys

from test_cli import GOLDEN, GOLDEN_CASES, GOLDEN_EXIT, OK


def main() -> int:
    mismatches = 0
    for argv, golden in GOLDEN_CASES:
        run = subprocess.run(["reseqkit", *argv], capture_output=True,
                             encoding="utf-8")
        expected = GOLDEN_EXIT.get(golden, OK)
        if run.returncode != expected:
            print(f"{golden}: exit {run.returncode}, expected {expected}")
            mismatches += 1
        if run.stdout != (GOLDEN / golden).read_text(encoding="utf-8"):
            print(f"{golden}: stdout differs from the golden file")
            mismatches += 1
    print(f"{len(GOLDEN_CASES)} cases, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
