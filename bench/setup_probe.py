"""Set-up probe: what every `chronolab run` pays before computing.

Run in a fresh interpreter by run.py, which times the whole process:
import chronolab's CLI from <checkout>/src and validate each config.
The last line printed is the host's speed over the probe, in reference
seconds per wall second (bench/speed.py), by which run.py rescales the
process's wall time.

    python3 -I bench/setup_probe.py <checkout> <config.json>...
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402

with speed.Meter() as meter:
    sys.path.insert(0, f"{sys.argv[1]}/src")

    from chronolab import cli

    for path in sys.argv[2:]:
        cli.validate_config(cli.load_config(path))

print(meter.factor)
