import hashlib
import json

import numpy as np
import pytest

# a checkpoint's header fields, the state a file holds besides its arrays
STATE_FIELDS = ("intents", "slots", "feature_dim", "fisher_steps", "step",
                "config_digest", "history")


def checkpoint_state_sha256(ckpt):
    """sha256 of what a checkpoint holds, apart from how a file lays it
    out: its header fields as sorted JSON, then θ and the Fisher sums as
    little-endian float64 in memory order, each part after its length. A
    change of file format keeps it where the loaded state keeps its bits."""
    fields = json.dumps({name: getattr(ckpt, name) for name in STATE_FIELDS},
                        sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    for part in (fields, *(np.asarray(values, dtype="<f8").tobytes()
                           for values in (ckpt.theta_values,
                                          ckpt.fisher_sum_sq))):
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


@pytest.fixture
def state_sha256():
    return checkpoint_state_sha256
