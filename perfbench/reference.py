"""A fixed reference computation: how fast this machine runs right now.

On a shared two-vCPU cloud VM (Xeon, 2.0 GHz nominal) the speed of the
same code changed by up to 1.6x within minutes, in CPU time as well as in
wall time. Runs time this computation between operations and report the
`*_ref` metrics (and setup_s, scaled by REF_SECONDS) in units of its CPU
time in the same run, so those figures follow the code rather than the
host.

Do not change this file: every `*_ref` figure is measured against it. It
mixes the three kinds of work treepatch does: string formatting, hashing and
dict updates in the interpreter (featurize, decode, path counting), small
numpy column gathers (forward), and dense passes over a vector the size of
the linear model's parameters (the SGD step: a fresh gradient, its copy,
the Fisher update and the parameter update).
"""

from __future__ import annotations

import zlib

import numpy as np

# A nominal reference() time: about the fastest the development host
# above ran it. setup_s is the set-up time this host would take.
REF_SECONDS = 0.025
_N_PARAMS = 282693
_TABLE = np.random.default_rng(0).normal(size=(69, 4096))
_COLUMNS = [np.sort(np.random.default_rng(i).choice(4096, 4, replace=False))
            for i in range(500)]
_THETA = np.zeros(_N_PARAMS)
_SUM_SQ = np.zeros(_N_PARAMS)


def reference():
    counts = {}
    acc = 0
    for i in range(15000):
        key = "w=%d" % (i % 500)
        counts[key] = counts.get(key, 0) + 1
        acc += zlib.crc32(key.encode("utf-8")) % 97
    total = 0.0
    for columns in _COLUMNS:
        total += float(_TABLE[:, columns].sum(axis=1).max())
    for _ in range(4):
        grad = np.zeros(_N_PARAMS)
        grad[::97] += 1e-3
        data_grad = grad.copy()
        _SUM_SQ[:] += data_grad * data_grad
        _THETA[:] -= 0.5 * grad.copy()
    return acc, total
