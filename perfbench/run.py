"""enecg benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload fit|infer|saliency --seed N --seconds S --trace 0|1

Run from the root of a source checkout; enecg is imported from ``src/``
of that checkout and nothing is installed. Set-up makes every input from
the seed and is timed as ``setup_s`` (median of three set-ups). The loop
then runs whole units, one after another, until ``--seconds`` have passed
(at least three units). With ``--trace 0`` the last line of stdout is the
end-to-end result; with ``--trace 1`` the same units are run once untraced
and once with every enecg layer wrapped, and the last line holds the
per-layer metrics. Earlier lines hold the environment record and a
readable summary; the full record (and, traced, the spans) is written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_UNITS = 3
UNTRACED_SHARE = 0.4       # traced run: share of --seconds for the untraced pass
CONFIRM_SEED = 1009        # named seed for confirming a claimed gain


def _cap_blas_threads() -> int:
    """Cap the BLAS pool at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


BLAS_THREADS = _cap_blas_threads()

import numpy as np  # noqa: E402  (after the BLAS cap)

from tracing import MEASURE, PER_LAYER, SETUP, Tracer, layer_metrics, tail_percentile  # noqa: E402


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(blas_threads: int, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(ROOT / "src" / "enecg"),
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
    }


class SpeedProbe:
    """A fixed loop of interpreter, small-array numpy and memory-streaming
    work that shares no code with enecg, timed after each timed block.

    The sandbox shares its cores with other tenants, whose load slows
    every kind of work for stretches of tens of seconds. Scaling each
    timed block and each set-up by ``REFERENCE_S`` over the mean of the
    probes just before and after it reports times at one reference machine
    speed, which roughly halved the run-to-run spread of fit in five-seed
    trials; the raw wall times of units stay in the summary line.
    """

    REFERENCE_S = 0.02

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((64, 64))
        self.large = rng.random(2_000_000)      # 16 MB, streams from memory

    def __call__(self) -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20000):
                acc += i * i
            for _ in range(150):
                self.small @ self.small
                self.small + self.small
            for _ in range(3):
                self.large.sum()
                self.large * 2.0
            best = min(best, time.perf_counter() - t0)
        return best


class Timer:
    """The ``timed(phase)`` blocks of one unit: wall seconds per phase, and
    the same scaled to reference speed. In the traced pass each block runs
    with the span recorder installed; probes and checks stay outside."""

    def __init__(self, probe: SpeedProbe, install=None):
        self.probe = probe
        self.install = install or contextlib.nullcontext
        self.last_probe = probe()
        self.wall: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, phase: str):
        with self.install() as tracer:
            t0 = time.perf_counter()
            yield tracer
            seconds = time.perf_counter() - t0
        after = self.probe()
        scale = SpeedProbe.REFERENCE_S / ((self.last_probe + after) / 2)
        self.last_probe = after
        self.wall[phase] = self.wall.get(phase, 0.0) + seconds
        self.scaled[phase] = self.scaled.get(phase, 0.0) + seconds * scale


@dataclass
class Sample:
    result: object                  # workloads.UnitResult
    wall: dict[str, float]          # phase -> wall seconds
    scaled: dict[str, float]        # phase -> seconds at reference speed


def run_units(workload, timer: Timer, seconds: float, count: int | None = None,
              on_unit=None) -> list[Sample]:
    """Closed loop: run units until ``seconds`` have passed (at least
    MIN_UNITS), or exactly ``count`` units. ``on_unit(i)`` runs before
    unit ``i``."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        i = len(samples)
        if count is not None and i >= count:
            break
        if count is None and i >= MIN_UNITS and time.perf_counter() - start >= seconds:
            break
        if on_unit is not None:
            on_unit(i)
        timer.wall, timer.scaled = {}, {}
        result = workload.unit(i, timer)
        samples.append(Sample(result, timer.wall, timer.scaled))
    return samples


def end_to_end(workload, samples: list[Sample], setup_times: list[float]) -> dict[str, float]:
    ok = [s for s in samples if s.result.failed == 0]
    if not ok:
        raise RuntimeError("no unit completed without a failure")
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s": statistics.median(sum(s.scaled.values()) for s in ok),
        "records_per_s": statistics.median(s.result.records / s.scaled[workload.RECORDS_PHASE]
                                           for s in ok),
        "task_rows_per_s": statistics.median(s.result.task_rows / s.scaled[workload.ROWS_PHASE]
                                             for s in ok),
    }


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s",
             "records_per_s": "1/s", "task_rows_per_s": "1/s"}


def quality(samples: list[Sample]) -> dict[str, float]:
    """Final training losses of the last fit and the worst IG gap."""
    out: dict[str, float] = {}
    for s in samples:
        for key, value in s.result.quality.items():
            out[key] = max(out.get(key, value), value) if key == "ig_completeness_gap" else value
    return out


def wall_summary(samples: list[Sample]) -> dict:
    """Unscaled unit times: the median and the highest percentile with at
    least ten samples beyond it, with the sample count."""
    seconds = sorted(sum(s.wall.values()) for s in samples)
    out = {"n": len(seconds), "median_s": statistics.median(seconds)}
    pct = tail_percentile(len(seconds))
    if pct is not None:
        cuts = statistics.quantiles(seconds, n=1000, method="inclusive")
        out[f"p{pct:g}_s"] = cuts[round(pct * 10) - 1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "enecg" / "__init__.py").is_file():
        print(f"perfbench: no enecg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import enecg
    if not Path(enecg.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported enecg from {enecg.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(BLAS_THREADS, args.seed)
    print(json.dumps({"env": env}), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            probe = SpeedProbe()
            setup_times = []
            for _ in range(SETUP_REPEATS):
                workload = None   # release the previous set-up before the next
                workload = WORKLOADS[args.workload]()
                before = probe()
                t0 = time.perf_counter()
                workload.setup(args.seed, str(workdir))
                seconds = time.perf_counter() - t0
                setup_times.append(seconds * SpeedProbe.REFERENCE_S / ((before + probe()) / 2))
            samples = run_units(workload, Timer(probe), args.seconds)
            metrics = end_to_end(workload, samples, setup_times)
        else:
            tracer = Tracer()
            workload = WORKLOADS[args.workload]()
            with tracer.installed(enecg, SETUP):
                workload.setup(args.seed, str(workdir))
            probe = SpeedProbe()
            plain = run_units(workload, Timer(probe), args.seconds * UNTRACED_SHARE)
            # the same units again, traced, one operation id per unit
            traced = run_units(workload, Timer(probe, lambda: tracer.installed(enecg, MEASURE)),
                               0, count=len(plain), on_unit=tracer.begin_op)
            metrics = layer_metrics(tracer, len(traced), sum(sum(s.wall.values()) for s in traced))
            # compared at reference speed, so a busy neighbour does not read as tracing cost
            metrics["trace.overhead"] = (sum(sum(s.scaled.values()) for s in traced)
                                         / sum(sum(s.scaled.values()) for s in plain))
            samples = plain + traced
            for key, value in quality(samples).items():
                metrics[f"quality.{key}"] = value
            tracer.write(OUT_DIR / f"{tag}-spans.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.result.attempted for s in samples)
    failed = sum(s.result.failed for s in samples)
    if args.trace == 1:
        metrics["quality.error_share"] = failed / attempted
        result_metrics = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                          for name, unit, _ in PER_LAYER}
    else:
        result_metrics = {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in E2E_UNITS.items()}
    notes = [n for s in samples for n in s.result.notes]
    summary = {
        "workload": args.workload,
        "error_share": failed / attempted,
        "wall": wall_summary(samples),
        "unit_wall_s": [round(sum(s.wall.values()), 6) for s in samples],
        "quality": quality(samples),
        "failures": notes[:20],
    }
    print(json.dumps({"summary": summary}), flush=True)
    record = {"env": env, "args": vars(args), "summary": summary, "metrics": result_metrics}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
