#!/usr/bin/env python
"""Re-record the committed golden exports in ``tests/goldens/exports.json``.

Runs every registered mode x every registered target serially with the
golden config of ``tests/harness/goldens.py``, plus its
kill-and-resume leg, and rewrites the golden file. Only a change that
is meant to alter campaign output re-records; run from the repo root::

    PYTHONPATH=src python scripts/record_goldens.py

and review the diff of the golden file before committing it.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tests.harness.goldens import (  # noqa: E402
    ABORT_POINTS,
    GOLDEN_PATH,
    RESUME_CELL,
    all_cells,
    resume_export,
    serial_export,
)


def main() -> int:
    serial = {}
    for mode, target in all_cells():
        serial.setdefault(mode, {})[target] = serial_export(mode, target)
    resumed = set()
    for abort_at in ABORT_POINTS:
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            resumed.add(resume_export(checkpoint_dir, abort_at))
    if len(resumed) != 1:
        print("FAIL: kill-and-resume exports differ across abort points",
              file=sys.stderr)
        return 1
    goldens = {"serial": serial,
               "resume": {"%s/%s" % RESUME_CELL: resumed.pop()}}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("recorded %d cells + 1 resume leg -> %s"
          % (len(all_cells()), GOLDEN_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
