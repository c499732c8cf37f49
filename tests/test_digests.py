"""The counter digests of scripts/counters_digest.py at seeds 42 and 7: every
answer, counter, tuning cost and bound pick on the benchmark fixtures.  A
change that moves a counter on purpose (a re-priced work model) updates
these."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "counters_digest.py"
DIGESTS = {
    42: {
        "clustered-w10": "2e44c306cbb69c402517f777108b25ab30909e3d4905575a9dd686b0747a6b06",
        "iid-w10": "e31403f0a21c5c7ad314afc3716ec2d055bcb6064f64e921c7e2681fe9a7bcc8",
        "smooth-n100-w20": "54768c12f82840cc37e60b0e9241b4d476e262320e852d4e5f80c8a1425c344b",
    },
    7: {
        "clustered-w10": "ff6569ef9cd276ed7508ec30f7942451554446bda2939c8bb4b37f59a05d5262",
        "iid-w10": "e63ebdb83a342bd8a1cf8765731cbe02eefdb476cf009ae34f40727ce83dff93",
        "smooth-n100-w20": "44c9efd553a82a456aa191f847a9f92d469cb9273c9a681bd42658657dd68c1a",
    },
}


@pytest.fixture(scope="module")
def digest_script():
    spec = importlib.util.spec_from_file_location("counters_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, seed, id=workload if seed == 42 else f"{workload}-seed{seed}")
    for seed, digests in DIGESTS.items() for workload in digests
])
def test_counters_digest_unchanged(digest_script, workload, seed):
    lines = digest_script.fixture_lines(workload, seed)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGESTS[seed][workload]
