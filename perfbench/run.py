"""treepatch benchmark: scratch training, patch fine-tuning and evaluation.

    python3 perfbench/run.py --workload scratch_train --seed 1 --seconds 25 --trace 0

Run from the root of a treepatch checkout; the library is imported from its
`src/` directory. One process, one caller, no threads: each workload runs as
a closed loop. The run sets the workload up once untimed and then N_SETUPS
times timed (their median gives `setup_s`), then repeats the workload's
operation until `--seconds` have passed, and finally scores the last
operation's models again with metrics.tp_f1 / metrics.exact_match and
compares with their reports.

Every time is the process's CPU time (time.process_time), not wall time:
on a shared host the wall time also counts the time other processes hold
the CPU. NumPy's BLAS runs one thread, so the CPU time is that of the one
caller. CPU seconds still move with the host's speed, so the run also
times the frozen computation in reference.py (untimed) before each set-up,
before each operation and after each evaluator call. Set-ups are measured
against the mean of the reference calls between them, operations against
the mean of those between and inside them: the host's speed changes within
a second by more than the work does, so each is measured against many
samples. `cpu_ref` and `eval_queries_per_ref` are in units of that mean
(1 ref); `setup_s` is the set-up time in refs times
reference.REF_SECONDS, the seconds the set-up takes on a host that runs
reference() in that time. The seconds as measured follow in the note lines.

Every set-up and operation is hashed (reports as canonical JSON, plus the
checkpoint bytes). For the seed in golden.json the hashes must equal the
committed ones; for any seed all repetitions must hash alike. A mismatch, a
raised exception or a reference-check problem counts as a failed operation.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the run wraps the layer functions listed in layers.py, times
bare and traced operations in turn, writes the spans to
`.bench_build/perfbench/`, and reports the per-layer metrics. The lines
before the last are for people: environment, metrics with units, and what
each layer metric should move.

When outputs change on purpose, copy the `digests` line that every run
prints for the golden seed into golden.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

# before NumPy loads: its BLAS would otherwise start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

import layers  # noqa: E402
from reference import REF_SECONDS, reference  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
N_SETUPS = 5
SETUP_REFS = 8  # reference() calls before each set-up


def _import_treepatch():
    src = ROOT / "src"
    if not (src / "treepatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no treepatch sources at {src}")
    sys.path.insert(0, str(src))


def _environment(traced):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "traced": traced}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    above it, or the median when there are too few samples for that."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < len(xs) // 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


class Run:
    def __init__(self, workload, seed, traced, tmp, golden):
        self.wl, self.seed, self.traced, self.tmp = workload, seed, traced, tmp
        spans = layers.SPANS if traced else [layers.EVALUATOR]
        # the traced run's layer times are wall times: process_time() costs
        # about five times as much as perf_counter() on every span
        self.tracer = Tracer([span[:3] for span in spans],
                             clock=perf_counter if traced else process_time)
        if traced:
            # (steps, best step, parameters) of each train call or loaded
            # checkpoint
            self.tracer.observers = {
                "model.train": lambda r: (r.total_steps, r.best.step,
                                          r.final.theta_values.size),
                "model.load_checkpoint": lambda c: (0, 0, c.theta_values.size),
            }
        else:
            # also sample the machine's speed after every evaluator call, so
            # that long operations get samples from their middle too
            self.tracer.observers = {"harness.evaluator": self._pause_inside}
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = {"setup": [], "op": []}
        self.golden = golden
        self.refs = []  # CPU times of reference() calls
        self.body_wall = 0.0  # wall seconds of the timed body
        self._last_pause = perf_counter()
        self._paused = 0.0  # reference CPU time inside the current operation

    def _record_digest(self, kind, digest):
        self.attempted += 1
        self.digests[kind].append(digest)
        expected = self.golden[kind] if self.golden else self.digests[kind][0]
        if digest != expected:
            self.failed += 1
            self.problems.append(f"{kind} digest {digest[:16]} != {expected[:16]}")

    def _fail(self, kind):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{kind} raised: {traceback.format_exc()}")

    def setups(self):
        """Set up once to warm caches, then N_SETUPS times timed. Returns the
        timed set-ups' CPU seconds, the reference() times taken around them,
        and the last state."""
        seconds, refs, state = [], [], None
        for k in range(N_SETUPS + 1):
            refs += _reference_times(SETUP_REFS)
            state = None  # as for operations: one set-up's memory at a time
            gc.collect()
            if self.traced:
                self.tracer.install()
            t0 = process_time()
            with self.tracer.span("setup"):
                state = self.wl.setup(self.seed, self.tmp)
            spent = process_time() - t0
            self.tracer.uninstall()
            if k > 0:
                seconds.append(spent)
            self._record_digest("setup", self.wl.setup_digest(state, self.tmp))
        return seconds, refs, state

    def ops(self, state, seconds, pattern):
        """Repeat the operation for `seconds`, at least once per entry of
        `pattern`; operation k runs with the tracer installed when
        pattern[k % len(pattern)] is true. Returns (CPU times of
        instrumented operations, of bare ones, SGD steps, last outputs)."""
        times = {True: [], False: []}
        steps, out, k = 0, None, 0
        start = self._last_pause = perf_counter()
        end = start + seconds
        # start another operation only while it would end, on average,
        # before the deadline; this keeps the body close to `seconds`
        while (k < len(pattern)
               or perf_counter() + (perf_counter() - start) / k / 2 < end):
            instrumented = pattern[k % len(pattern)]
            k += 1
            # drop the previous outputs and collect them first: peak_rss_mb
            # is then that of one operation, whatever the number of operations
            out = None
            gc.collect()
            self._pause()
            self._paused = 0.0
            if instrumented:
                self.tracer.install()
            t0 = process_time()
            try:
                # bare operations get their own root name, so that
                # per-operation counts divide by instrumented ones only
                with self.tracer.span("op" if instrumented else "op-bare"):
                    out = self.wl.op(state)
            except Exception:  # noqa: BLE001 - a failed operation is counted
                self.tracer.uninstall()
                self._fail("op")
                if perf_counter() >= end:
                    break
                continue
            times[instrumented].append(process_time() - t0 - self._paused)
            self.tracer.uninstall()
            steps += self.wl.steps(out)
            self._record_digest("op", self.wl.op_digest(state, out, self.tmp))
        self.body_wall = perf_counter() - start
        if not all(times[flag] for flag in set(pattern)):
            sys.exit("perfbench: every operation failed\n" + "\n".join(self.problems))
        return times[True], times[False], steps, out

    def _pause(self):
        """Time reference() at least once and for about 5% of the wall time
        since the previous pause, so that the samples of the machine's speed
        are spread over the operations; returns the CPU seconds spent."""
        start, cpu = perf_counter(), process_time()
        end = start + 0.05 * (start - self._last_pause)
        while True:
            self.refs += _reference_times(1)
            if perf_counter() >= end:
                break
        self._last_pause = perf_counter()
        return process_time() - cpu

    def _pause_inside(self, _):
        self._paused += self._pause()

    def check(self, state, out):
        if out is None:
            return
        found = self.wl.check(state, out, self.tmp)
        if found:
            self.attempted += 1
            self.failed += 1
            self.problems += found


def _reference_times(n):
    times = []
    for _ in range(n):
        t0 = process_time()
        reference()
        times.append(process_time() - t0)
    return times


def _golden():
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text())


def end_to_end(run, setup_times, setup_refs, times, steps):
    """setup_s uses the mean of `setup_refs` as 1 ref, cpu_ref and
    eval_queries_per_ref the mean of the operations' reference() calls; the
    same times in seconds follow as notes. All are CPU times."""
    setup = statistics.median(setup_times) / statistics.mean(setup_refs)
    evals = run.tracer.durations("harness.evaluator", "op")
    calls = times if run.wl.latency == "op" else evals
    tail, pct = _tail(calls)
    cpu = sum(times) / len(times)
    queries_per_s = len(evals) * run.wl.n_test / sum(evals)
    ref = statistics.mean(run.refs)
    metrics = {
        "setup_s": (setup * REF_SECONDS, "s"),
        "cpu_ref": (cpu / ref, "ref"),
        "eval_queries_per_ref": (queries_per_s * ref, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    notes = [
        f"1 ref = {1000 * ref:.4f} ms CPU, the mean of {len(run.refs)} "
        f"reference() calls",
        f"setup_cpu_s = {statistics.median(setup_times):.6g} s, the median of "
        f"{len(setup_times)} set-ups as measured "
        f"({setup:.6g} ref)",
        f"cpu_s = {cpu:.6g} s, the mean CPU time of {len(times)} operations "
        f"(median {statistics.median(times):.6g} s); wall_s = "
        f"{run.body_wall / len(times):.6g} s, the body's wall time per "
        f"operation, reference() pauses included",
        f"eval_queries_per_s = {queries_per_s:.6g} 1/s over {len(evals)} "
        f"evaluator calls",
        f"evaluate_p50_ms = {1000 * statistics.median(calls):.6g} ms CPU; "
        f"evaluate_tail_ms = {1000 * tail:.6g} ms (p{pct:.0f}, {tail / ref:.6g} ref); "
        f"over {len(calls)} {'operations' if run.wl.latency == 'op' else 'evaluator calls'}",
        f"train_steps_per_s = {steps / sum(times):.6g} per CPU second "
        f"({steps} SGD steps)",
    ]
    return metrics, notes


def per_layer(run, bare_times, traced_times):
    tr = run.tracer
    roots = tr.roots()
    selfs = tr.self_times()
    root_ids = {kind: [i for i, n in enumerate(tr.names)
                       if tr.parents[i] < 0 and n == kind]
                for kind in ("setup", "op")}
    per_root = Counter()
    self_total = Counter()
    for i, name in enumerate(tr.names):
        per_root[name, roots[i]] += 1
        self_total[name] += selfs[i]

    def per_unit(label, values_by_root):
        """Value in one set-up plus one operation; every set-up (and every
        operation) must give the same value."""
        total = 0
        for kind, ids in root_ids.items():
            values = {values_by_root(r) for r in ids}
            if len(values) > 1:
                run.problems.append(
                    f"{label} differs between {kind}s: {sorted(values)}")
                run.failed += 1
                run.attempted += 1
            total += max(values) if values else 0
        return total

    metrics = {}
    for name, _, _, time_key, _ in layers.SPANS:
        calls = per_unit(f"{name}.calls", lambda r: per_root[name, r])
        n_all = sum(per_root[name, r] for ids in root_ids.values() for r in ids)
        mean = self_total[name] / n_all if n_all else 0.0
        unit, scale = layers.TIME_UNITS[time_key]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.{time_key}"] = (mean * scale, unit)

    trains = {}
    for i, value in tr.observed:
        trains.setdefault(roots[i], []).append(value)
    steps = per_unit("model.steps", lambda r: sum(v[0] for v in trains.get(r, ())))
    wasted = per_unit("wasted steps",
                      lambda r: sum(v[0] - v[1] for v in trains.get(r, ())))
    under_eval = []
    for parent in tr.parents:
        under_eval.append(parent >= 0 and (tr.names[parent] == "harness.evaluator"
                                           or under_eval[parent]))
    feats_in_eval = sum(1 for i, n in enumerate(tr.names)
                        if n == "model.featurize" and under_eval[i])
    n_evals = tr.names.count("harness.evaluator")
    metrics["model.steps"] = (steps, "count")
    metrics["harness.featurize_per_eval"] = (
        feats_in_eval / n_evals if n_evals else 0.0, "calls/eval")
    metrics["harness.wasted_step_ratio"] = (wasted / steps if steps else 0.0, "ratio")
    metrics["model.theta_params"] = (max((v[2] for _, v in tr.observed), default=0),
                                     "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(bare_times), "s")
    notes = [f"operations: {len(bare_times)} untraced, {len(traced_times)} traced;"
             f" spans recorded: {len(tr.names)}"]
    notes += [f"{name} -> {text}" for name, text in layers.moves().items()]
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_treepatch()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    traced = bool(args.trace)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        golden = _golden().get(str(args.seed), {}).get(args.workload)
        run = Run(wl, args.seed, traced, str(tmp), golden)
        setup_times, setup_refs, state = run.setups()
        if traced:
            # alternate bare and traced operations, so that the overhead
            # compares operations run under the same machine conditions
            times, bare, _, out = run.ops(state, args.seconds, (False, True))
            metrics, notes = per_layer(run, bare, times)
            run.tracer.write_csv(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            # the untraced run's tracer holds only the evaluator timer
            times, _, steps, out = run.ops(state, args.seconds, (True,))
            metrics, notes = end_to_end(run, setup_times, setup_refs, times, steps)
        run.check(state, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("environment " + json.dumps(_environment(traced), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for note in notes:
        print("  " + note)
    print(f"  digests setup {run.digests['setup'][0] if run.digests['setup'] else None}"
          f" op {run.digests['op'][0] if run.digests['op'] else None}")
    print(f"  failed_ratio = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print("  FAILED: " + problem.rstrip())
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
