"""Time one workload set-up in a fresh interpreter; print raw and scaled seconds.

Set-up is what a user pays before the first result: importing symorbit (and
numpy), building the workload's configurations and problems, and one warm-up
miss evaluation per problem. The reference loops that give the host speed
(see ``speed.py``) run afterwards, so that numpy's import stays inside the
timing.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time

t_start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workload = workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
workloads.warm_up(workload)
raw = time.perf_counter() - t_start

import speed  # noqa: E402

probe = speed.SpeedProbe()
for _ in range(5):
    probe.tick(force=True)
print(repr(raw), repr(raw * probe.scale()))
