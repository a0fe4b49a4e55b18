#!/usr/bin/env python
"""Check that two generated reproduction reports agree on every result.

``python -m repro run`` writes ``docs/REPORT.md``.  Two runs of the same
profile and seed must produce the same tables and figures whatever the number
of parallel stage workers (``--jobs``), because every stage is deterministic
in its inputs.  A few parts legitimately differ between runs and are left out
of the comparison:

* the ``code fingerprint`` provenance line (it changes with the source);
* the two Fig. 7 sections, which report wall-clock seconds;
* the ``Observability`` section, which reports stage timings.

Everything else must match line for line.  Exit code 1 and a unified diff
on a mismatch; used by the CI ``docs`` job to compare a ``--jobs 1`` run
against a ``--jobs 4`` run.

Usage::

    python tools/compare_reports.py REPORT_A REPORT_B
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path
from typing import List

#: Headings (prefix match) of the sections whose content is timing only.
TIMING_SECTIONS = ("## Figure 7(a)", "## Figure 7(b)", "## Observability")
FINGERPRINT_PREFIX = "- code fingerprint:"


def comparable_lines(text: str) -> List[str]:
    """The report's lines with the timing sections and fingerprint removed."""
    kept: List[str] = []
    skipping = False
    for line in text.splitlines():
        if line.startswith("## "):
            skipping = line.startswith(TIMING_SECTIONS)
        if skipping or line.startswith(FINGERPRINT_PREFIX):
            continue
        kept.append(line)
    return kept


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    first, second = (Path(arg) for arg in argv)
    diff = list(
        difflib.unified_diff(
            comparable_lines(first.read_text(encoding="utf-8")),
            comparable_lines(second.read_text(encoding="utf-8")),
            fromfile=str(first),
            tofile=str(second),
            lineterm="",
        )
    )
    if diff:
        print("\n".join(diff))
        print(f"reports differ outside the timing sections: {first} vs {second}")
        return 1
    print(f"reports agree outside the timing sections: {first} vs {second}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
