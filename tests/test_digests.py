"""The counter digests of scripts/counters_digest.py at seed 42: every answer,
counter, tuning cost and bound pick on the benchmark fixtures.  A change that
moves a counter on purpose (a re-priced work model) updates these."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "counters_digest.py"
DIGESTS = {
    "clustered-w10": "2e44c306cbb69c402517f777108b25ab30909e3d4905575a9dd686b0747a6b06",
    "iid-w10": "e31403f0a21c5c7ad314afc3716ec2d055bcb6064f64e921c7e2681fe9a7bcc8",
    "smooth-n100-w20": "54768c12f82840cc37e60b0e9241b4d476e262320e852d4e5f80c8a1425c344b",
}


@pytest.fixture(scope="module")
def digest_script():
    spec = importlib.util.spec_from_file_location("counters_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_counters_digest_unchanged(digest_script, workload):
    lines = digest_script.fixture_lines(workload, 42)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGESTS[workload]
