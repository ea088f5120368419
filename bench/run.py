"""regemb benchmark: run one workload's CLI pipeline and report its metrics.

    python3 bench/run.py --workload lstm_chop --seed 1 --seconds 38 --trace 0

Run from the root of a regemb source tree; the library is imported from
its `src/` directory.  The workload's input files are generated from
`--seed` into a temporary directory under the tree.  The pipeline
(`build-vocab`, `train`/`train-tv`, `eval`, `predict`, each through
`regemb.cli.main` in this process) is repeated in cycles until `--seconds`
have passed, after one small warm-up cycle.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced cycles and prints the per-layer metrics of the traced ones, the
tracing overhead, and checks that both kinds of cycle produce bit-identical
results.  The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; a full record with the
machine description goes to `.bench_results/` under the tree.  The exit
code is 0 only when every command and check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_CYCLES = 2
# Untraced runs spend about this share of each cycle on extra set-up probes
# (at most MAX_PROBES), so setup_s is a median over more than the cycles.
PROBE_SHARE = 0.1
MAX_PROBES = 5


class _Lines(io.TextIOBase):
    """A stdout sink that keeps each complete line with the time it ended."""

    def __init__(self):
        self.lines = []  # (perf_counter, text)
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        now = time.perf_counter()
        *done, self._partial = (self._partial + text).split("\n")
        self.lines.extend((now, line) for line in done)
        return len(text)


@dataclass
class StepRun:
    role: str
    command: str
    rc: int
    wall: float
    lines: list
    stderr: str


@dataclass
class Cycle:
    traced: bool
    wall: float = 0.0
    steps: list = field(default_factory=list)
    setup_s: float = 0.0
    probe_setups: list = field(default_factory=list)
    epoch_rates: dict = field(default_factory=dict)  # role -> [tokens/s per epoch]
    eval_docs_per_s: list = field(default_factory=list)  # one per eval call
    predict_docs_per_s: list = field(default_factory=list)
    final_loss: str = ""  # as printed, so equality is bit-level
    test_err: str = ""
    layers: dict | None = None
    failures: list = field(default_factory=list)
    checks: int = 0


def run_step(step, tracer=None) -> StepRun:
    from regemb import cli

    out, err = _Lines(), io.StringIO()
    command = step.argv[0]
    span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            rc = cli.main(step.argv)
        except Exception:  # a traceback out of the program is a failed command
            traceback.print_exc()
            rc = -1
    wall = time.perf_counter() - started
    return StepRun(step.role, command, rc, wall, out.lines, err.getvalue())


def _epochs(run: StepRun):
    """[(epoch, loss, loss as printed, seconds)] from a training run's
    `epoch=` lines.

    An epoch ends when its line is printed, so an epoch's duration is the
    time since the previous line; the first logged epoch uses its own
    `seconds=` field.
    """
    out = []
    previous = None
    for stamp, line in run.lines:
        if not line.startswith("epoch="):
            continue
        fields = dict(item.split("=", 1) for item in line.split())
        duration = float(fields["seconds"]) if previous is None else stamp - previous
        out.append((int(fields["epoch"]), float(fields["loss"]), fields["loss"],
                    duration))
        previous = stamp
    return out


def _check(cycle: Cycle, ok: bool, what: str) -> None:
    cycle.checks += 1
    if not ok:
        cycle.failures.append(what)


def evaluate_cycle(cycle: Cycle, plan) -> None:
    """Derive the cycle's timings and run every output check."""
    for step, run in zip(plan.steps, cycle.steps):
        _check(cycle, run.rc == 0,
               f"{run.command} exited {run.rc}: {run.stderr.strip()[-300:]}")
        if run.rc != 0:
            continue
        if run.role == "vocab":
            cycle.setup_s += run.wall
        elif run.role in ("train", "tv_lstm", "tv_cnn"):
            epochs = _epochs(run)
            _check(cycle, bool(epochs), f"{run.command}: no epoch lines")
            for number, loss, _, _ in epochs:
                _check(cycle, math.isfinite(loss),
                       f"{run.command}: epoch {number} loss {loss}")
            cycle.setup_s += run.wall - sum(e[3] for e in epochs)
            # supervised epoch 1 is warm-up; train-tv epoch 0 makes no update
            timed = [e for e in epochs if e[0] >= (2 if run.role == "train" else 1)]
            cycle.epoch_rates.setdefault(run.role, []).extend(
                step.size / e[3] for e in timed)
            if run.role == "train" and epochs:
                cycle.final_loss = epochs[-1][2]
                lo, hi = plan.loss_bounds
                _check(cycle, lo <= epochs[-1][1] <= hi,
                       f"final_loss {epochs[-1][1]} outside [{lo}, {hi}]")
        elif run.role == "eval":
            cycle.eval_docs_per_s.append(step.size / run.wall)
            found = [line for _, line in run.lines if line.startswith("error_rate=")]
            _check(cycle, len(found) == 1, "eval printed no error_rate")
            if found:
                err = found[0].split("=", 1)[1]
                _check(cycle, cycle.test_err in ("", err),
                       f"eval error_rate {err} != earlier eval {cycle.test_err}")
                cycle.test_err = err
                lo, hi = plan.err_bounds
                _check(cycle, lo <= float(cycle.test_err) <= hi,
                       f"test_err_pct {cycle.test_err} outside [{lo}, {hi}]")
        elif run.role == "predict":
            cycle.predict_docs_per_s.append(step.size / run.wall)
            preds = [line for _, line in run.lines]
            _check(cycle, len(preds) == len(plan.test_labels),
                   f"predict printed {len(preds)} lines for "
                   f"{len(plan.test_labels)} documents")
            wrong = sum(p != t for p, t in zip(preds, plan.test_labels))
            from_predict = f"{100.0 * wrong / max(len(preds), 1):.4f}"
            _check(cycle, from_predict == cycle.test_err,
                   f"predict error rate {from_predict} != eval {cycle.test_err}")


def run_cycle(plan, tracer=None) -> Cycle:
    from tracer import install, layer_metrics

    cycle = Cycle(traced=tracer is not None)
    if tracer is not None:
        tracer.clear()
        install(tracer)
    started = time.perf_counter()
    try:
        for step in plan.steps:
            cycle.steps.append(run_step(step, tracer))
    finally:
        cycle.wall = time.perf_counter() - started
        if tracer is not None:
            left = tracer.restore()
            _check(cycle, not left, f"tracer left wrapped: {left}")
    if tracer is not None:
        cycle.layers = layer_metrics(tracer)
    evaluate_cycle(cycle, plan)
    return cycle


def probe_setup(plan, cycle: Cycle) -> None:
    """Set up once more: the plan's vocabulary and training steps with
    `--epochs 0`, which still ingest, build, initialize, precompute and save.
    Adds one set-up sample to the cycle."""
    total = 0.0
    for step in plan.steps:
        if step.role in ("eval", "predict"):
            continue
        argv = step.argv if step.role == "vocab" else step.argv + ["--epochs", "0"]
        run = run_step(dataclasses.replace(step, argv=argv))
        _check(cycle, run.rc == 0, f"set-up probe: {run.command} exited {run.rc}")
        total += run.wall - sum(e[3] for e in _epochs(run))
    cycle.probe_setups.append(total)


def machine_info(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "workers": 1,
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        fn = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    """HEAD of the tree's git checkout, read from .git; None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(cycles) -> dict:
    rates = [r for c in cycles for r in c.epoch_rates.get("train", [])]
    return {
        "setup_s": _median([s for c in cycles for s in [c.setup_s, *c.probe_setups]]),
        "train_tokens_per_s": _median(rates),
        "eval_docs_per_s": _median([r for c in cycles for r in c.eval_docs_per_s]),
        "predict_docs_per_s": _median(
            [r for c in cycles for r in c.predict_docs_per_s]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "test_err_pct": float(cycles[0].test_err or "nan"),
        "final_loss": float(cycles[0].final_loss or "nan"),
    }


def per_layer(cycles) -> dict:
    traced = [c for c in cycles if c.traced]
    plain = [c for c in cycles if not c.traced]
    out = {name: _median([c.layers[name] for c in traced])
           for name in traced[0].layers}
    for role in ("tv_lstm", "tv_cnn"):
        out[f"{role}_tokens_per_s"] = _median(
            [r for c in plain for r in c.epoch_rates.get(role, [])])
    out["trace.overhead_pct"] = 100.0 * (
        _median([c.wall for c in traced]) / _median([c.wall for c in plain]) - 1.0)
    return out


def metric_units(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Run cycles of one workload; returns (result line dict, full record)."""
    from tracer import Tracer
    from workloads import make_plan

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    tracer = Tracer() if trace else None
    cycles = []
    try:
        (work / "warmup").mkdir()
        warm = run_cycle(make_plan(workload, work / "warmup", seed, "tiny"))
        failures = [f"warm-up: {r.command} exited {r.rc}"
                    for r in warm.steps if r.rc != 0]
        plan = make_plan(workload, work, seed, scale)
        started = time.perf_counter()
        while True:
            traced = trace and len(cycles) % 2 == 1
            cycle = run_cycle(plan, tracer if traced else None)
            if not trace:
                probes = int(PROBE_SHARE * cycle.wall / max(cycle.setup_s, 1e-3))
                for _ in range(min(probes, MAX_PROBES)):
                    probe_setup(plan, cycle)
            cycles.append(cycle)
            # stop where the run ends nearest to `seconds`: another cycle
            # would overshoot by more than half a cycle
            elapsed = time.perf_counter() - started
            mean = elapsed / len(cycles)
            if len(cycles) >= MIN_CYCLES and elapsed + mean / 2 > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(warm.steps) + sum(c.checks for c in cycles)
    for i, c in enumerate(cycles):
        failures += [f"cycle {i}: {f}" for f in c.failures]
        if i and (c.final_loss, c.test_err) != (cycles[0].final_loss, cycles[0].test_err):
            kind = "traced" if c.traced else "untraced"
            failures.append(f"cycle {i} ({kind}) final_loss/test_err "
                            f"{c.final_loss}/{c.test_err} differ from cycle 0 "
                            f"{cycles[0].final_loss}/{cycles[0].test_err}")
        attempted += 1 if i else 0

    values = per_layer(cycles) if trace else end_to_end(cycles)
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}
    record = {
        "result": line,
        "failures": failures,
        "cycles": [{
            "traced": c.traced, "wall_s": c.wall, "setup_s": c.setup_s,
            "probe_setup_s": c.probe_setups,
            "epoch_tokens_per_s": c.epoch_rates,
            "eval_docs_per_s": c.eval_docs_per_s,
            "predict_docs_per_s": c.predict_docs_per_s,
            "final_loss": c.final_loss, "test_err_pct": c.test_err,
            "steps": [{"command": s.command, "rc": s.rc, "wall_s": s.wall}
                      for s in c.steps],
            "layers": c.layers,
        } for c in cycles],
    }
    return line, record


def parse_args(argv):
    p = argparse.ArgumentParser(description="regemb benchmark")
    p.add_argument("--workload", required=True,
                   choices=("lstm_chop", "seqcnn_30k", "tv_semi"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regemb" / "cli.py").is_file():
        print(f"error: no regemb sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))

    info = machine_info(args)
    line, record = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.scale)
    record["machine"] = info
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("machine " + json.dumps(info))
    for name, metric in line["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
