"""Smoke test of the wall-clock benchmark (run it explicitly — tier-1's
``testpaths`` does not collect this directory)::

    python -m pytest -q benchmarks/wall/test_wall_smoke.py

``run.py --smoke`` shrinks every timed phase to about a second; the
document it prints must name exactly the workloads and metrics that
``BENCHMARK.json`` declares, each with its declared unit, and no
operation may fail.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def test_smoke_document_matches_manifest():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(document) == {w["name"] for w in manifest["workloads"]}
    for workload, report in document.items():
        assert report["ops_failed"] == 0, workload
        assert report["ops_attempted"] > 0, workload
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in manifest[section]}
            assert report[section] == declared, (workload, section)
