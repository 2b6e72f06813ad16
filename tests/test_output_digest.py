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


#: Each workload's digest over its outputs at seeds 1-3, and their count, so that a change
#: shows which workload's outputs it moved.
WORKLOADS = {
    "catalytic-search": ("3c3c8c90decd41422a5e303d0838f5f654d7b65d0b65e473494ed02d550523a4", 1656),
    "large-oracles": ("6965af6fbc5c15e1518a7566c96b891cb6ff5f53bf4137d01adcf123b2378486", 600),
    "work-quantify": ("28ad50cee8b32001cc2e52ade5c2055703305778a73d8d0b062d23661ec5c23b", 516),
}
#: The total over the 2,772 outputs of the three workloads at seeds 1-3.
TOTAL = "480ecff891cd341057e0379d20f7d44bf0fe3f5e860cc2c80cbc93133c33e98e"


def test_the_seeded_total_is_pinned():
    out = subprocess.run([sys.executable, str(SCRIPT)], check=True, capture_output=True,
                         text=True, timeout=600).stdout
    pinned = [[name, digest, str(count)] for name, (digest, count) in WORKLOADS.items()]
    assert [line.split() for line in out.splitlines()] == pinned + [["total", TOTAL, "2772"]], (
        "a verdict, witness, work value or report changed its bytes; if that is meant, "
        "record the new digests and why in CHANGES.md and update WORKLOADS and TOTAL here:\n"
        + out)
