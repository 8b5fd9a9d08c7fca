#!/usr/bin/env python
"""Re-record the quantification-report goldens in ``tests/goldens/reports.json``.

Quantifies every registered target in-process with the settings of
``tests/core/report_goldens.py`` and rewrites the golden file. Only a
change that is meant to alter model build re-records; run from the repo
root::

    PYTHONPATH=src python scripts/record_report_goldens.py

and review the diff of the golden file before committing it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tests.core.report_goldens import (  # noqa: E402
    REPORT_GOLDEN_PATH,
    all_targets,
    quantify_summary,
)


def main() -> int:
    goldens = {target: quantify_summary(target) for target in all_targets()}
    with open(REPORT_GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("recorded %d report goldens -> %s" % (len(goldens), REPORT_GOLDEN_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
