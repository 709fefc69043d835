"""raclib under the per-user limits of a shared host, each set by a child process on itself.

A child lowers its own limit with ``resource.setrlimit`` and then runs the
command through ``raclib.cli.main``; no limit of the test process or of the
machine changes.
"""

import random
import subprocess
import sys

from raclib.pack import Collection

# Reads its own VmPeak after importing the CLI, caps its address space at that plus a margin, then runs argv.
LIMITED_CLI = """
import resource, sys
import raclib.cli
with open("/proc/self/status") as f:
    peak = next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmPeak:"))
resource.setrlimit(resource.RLIMIT_AS, (peak + int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(raclib.cli.main(sys.argv[2:]))
"""
MIB = 1 << 20


def test_pack_holds_one_member_at_a_time_under_an_address_space_limit(tmp_path):
    (tmp_path / "in").mkdir()
    members = {}
    for i in range(400):  # 100 MB of input, against a 16 MiB margin
        key = f"{i + 1:04d}"
        members[key] = random.Random(i).randbytes(250_000)
        (tmp_path / "in" / f"Book_{key}.jpg").write_bytes(members[key])
    out = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, str(16 * MIB), "pack", "--in", str(tmp_path / "in"),
         "--collection", "books", "--out", str(tmp_path / "lib"), "--record-size", "4096"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    with Collection.open(tmp_path / "lib" / "books.raclib") as collection:
        for key, payload in members.items():
            assert collection.fetch("Book", key) == payload, key
