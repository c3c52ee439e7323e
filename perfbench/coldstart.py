"""Child process of run.py: a cold import of lissakit.cli, then the reference job.

Prints one JSON line with ``import_s``, the seconds ``import lissakit.cli``
takes in this fresh interpreter, and ``calibration_s``, the seconds of
``calibration.reference_job()`` right after it in the same process.
"""

import time

start = time.perf_counter()
import lissakit.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

import json  # noqa: E402

from calibration import reference_job  # noqa: E402

print(json.dumps({"import_s": import_s, "calibration_s": reference_job()}))
