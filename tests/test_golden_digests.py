"""The benchmark's golden-digest check, collected with the tier-1 suite
(about 16 s on two cores): each workload run on the golden seed gives the
set-up and operation digests committed in perfbench/golden.json, so a
change that moves a report or checkpoint byte fails here too."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from test_perfbench import test_golden_seed_reproduces_committed_digests  # noqa: E402,F401
