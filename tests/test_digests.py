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
        "clustered-w10": "34b5e196acff5b330fcc3c1ecb83e5b307a913a92553fa9e4c00997254cd2a46",
        "iid-w10": "f38006bc3385b20c17e67124396ece4c4e43511615c847a0eb74d2ec313a64cd",
        "smooth-n100-w20": "4880c1b4cef12bb7e9faadde28ad9de0b5f05b9d5bde60adc6ad46ff2431084a",
    },
    7: {
        "clustered-w10": "7b61efefedb557655b38c46084af489dfde3bdcc72b5579b87b2710416e1a587",
        "iid-w10": "9f33d0c65c11d6d009b5300396a3d65eea6f8e2e110e21369649ae2b2e6b7f4c",
        "smooth-n100-w20": "2fe9918172b403333e2b4093fe5df1c52f006273274736a4c29e5699709ad71b",
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
