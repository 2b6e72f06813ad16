"""tools/output_digest.py, the digest of every benchmark output: a smoke test, and the
seeded total pinned."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def test_one_workload_and_seed_give_the_same_digest_twice():
    cmd = [sys.executable, str(SCRIPT), "--workload", "catalytic-search", "--seed", "1"]
    first, second = (subprocess.run(cmd, check=True, capture_output=True, text=True,
                                    timeout=300).stdout for _ in range(2))
    assert first == second
    (name, digest, count), total = (line.split() for line in first.splitlines())
    assert name == "catalytic-search" and re.fullmatch("[0-9a-f]{64}", digest)
    assert int(count) > 0 and total == ["total", digest, count]


#: The total over the 2,772 outputs of the three workloads at seeds 1-3.
TOTAL = "a6be46f1e9ef8a504a0b384f319af7eb92ab2a5fdc3dcad355f6e0fd5905a4e1"


def test_the_seeded_total_is_pinned():
    out = subprocess.run([sys.executable, str(SCRIPT)], check=True, capture_output=True,
                         text=True, timeout=600).stdout
    total = out.splitlines()[-1].split()
    assert total == ["total", TOTAL, "2772"], (
        "a verdict, witness, work value or report changed its bytes; if that is meant, "
        "record the new total and why in CHANGES.md and update TOTAL here:\n" + out)
