"""Smoke test of tools/output_digest.py, the digest of every benchmark output."""

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
