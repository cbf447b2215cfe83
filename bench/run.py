"""Seeded end-to-end and per-layer benchmark of the ``ulrlab`` CLI.

Usage, from the repository root::

    python3 bench/run.py --workload {mine,train,eval} --seed N --seconds S --trace {0,1}

One client in a closed loop: the workload's stages run back to back, one
``ulrlab`` process at a time, with BLAS pinned to one thread in every
child's environment before numpy loads.  Set-up (input generation and
prerequisite artifacts) runs several times; then whole passes over
the stages repeat until ``--seconds`` have gone by, and every timing is
the median over passes.  Each stage's output is checked, and its stdout
and output files must hash the same on every pass and under tracing.

``--trace 0`` reports the end-to-end metrics, measured from outside each
process (wall clock, and CPU time and peak RSS from ``os.wait4``).
``--trace 1`` alternates untraced passes with passes whose stages run
under ``bench/tracer.py`` and reports the per-layer metrics, including
the tracing overhead.  The metric names and units reported are those
declared in BENCHMARK.json; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here, and passed on to every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import TraceError, layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Stage  # noqa: E402

# Set-up repeats until both limits are met, so that a set-up of a few
# milliseconds still gives a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# A stage still running this long after start is killed and counted as
# failed, so that the whole run ends within three minutes.
RUN_LIMIT_S = 170.0
CLI = "import sys; from ulrlab.cli import main; sys.exit(main(sys.argv[1:]))"
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Proc:
    """One finished child process, measured from outside."""

    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_process(argv: list[str], env: dict[str, str], scratch: Path, timeout: float) -> Proc:
    """Run argv to completion, or kill it after ``timeout`` seconds.

    CPU time and peak RSS are this child's own, from ``os.wait4``.
    """
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """Runs stages, counts attempts and failures, and holds the digests."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def _process(self, label: str, argv: list[str]) -> Proc:
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.perf_counter())
        proc = run_process([sys.executable, *argv], self.env, self.work, timeout)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            raise CheckFailed(f"{label} exited {proc.returncode}: {tail[0]}")
        return proc

    def run_cli(self, args: list[str]) -> str:
        """A prerequisite stage of set-up; raises CheckFailed on failure."""
        return self._process(args[0], ["-c", CLI, *args]).stdout

    def fail(self, label: str, error: Exception) -> None:
        self.errors.append(f"{label}: {error}")

    def same_digest(self, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            raise CheckFailed(f"sha256 of {key} changed between runs")

    def stage(self, stage: Stage, spans: Path | None = None) -> tuple[Proc | None, dict]:
        """Run one stage, untraced or under the tracer, and check its output."""
        argv = ["-c", CLI] if spans is None else [str(BENCH_DIR / "tracer.py"), str(spans)]
        try:
            proc = self._process(stage.label, [*argv, *stage.args])
            values = stage.check(proc.stdout)
            self.same_digest(f"{stage.label} stdout", hashlib.sha256(proc.stdout.encode()).hexdigest())
            for path in stage.digests:
                self.same_digest(path.name, sha256(path))
        except CheckFailed as exc:
            self.fail(stage.label, exc)
            return None, {}
        return proc, values

    def setup(self, workload, seed: int) -> tuple[Path, list[float]]:
        """Set up at least SETUP_REPEATS times and for SETUP_MIN_S seconds.

        Every repeat must write the same files; the stages run on the first.
        """
        times: list[float] = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            d = self.work / f"setup{len(times)}"
            d.mkdir()
            start = time.perf_counter()
            workload.setup(seed, d, self.run_cli)
            times.append(time.perf_counter() - start)
            for path in sorted(d.iterdir()):
                self.same_digest(f"set-up {path.name}", sha256(path))
            if len(times) > 1:
                shutil.rmtree(d)
        return self.work / "setup0", times


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[list[Proc]], stages: list[Stage], setup_times: list[float],
               quality: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str, int]]:
    """Metric -> (value, unit, sample count), all medians over passes."""
    n = len(passes)
    m = {
        "wall_s": (median([sum(p.wall for p in ps) for ps in passes]), "s", n),
        "cpu_s": (median([sum(p.cpu for p in ps) for ps in passes]), "s", n),
        "peak_rss_mb": (median([max(p.rss_mb for p in ps) for ps in passes]), "MB", n),
        "setup_s": (median(setup_times), "s", len(setup_times)),
    }
    for i, stage in enumerate(stages):
        stage_wall = median([ps[i].wall for ps in passes])
        m[f"{stage.label}.wall_s"] = (stage_wall, "s", n)
        m[stage.throughput] = (stage.items / stage_wall, "1/s", n)
    for name, (value, unit) in quality.items():
        m[name] = (value, unit, 1)
    return m


def per_layer(traced: list[list[tuple[float, dict]]], untraced: list[list[Proc]]
              ) -> dict[str, tuple[float, str, int]]:
    """Median of every per-layer metric over the traced passes."""
    per_pass = [layer_metrics(stages) for stages in traced]
    n = len(per_pass)
    m = {}
    for name in per_pass[0]:
        m[name] = (median([pm[name] for pm in per_pass]), unit_of(name), n)
    untraced_wall = median([sum(p.wall for p in ps) for ps in untraced])
    m["trace.untraced_wall_s"] = (untraced_wall, "s", len(untraced))
    m["trace.overhead_s"] = (m["trace.wall_s"][0] - untraced_wall, "s", n)
    return m


def metadata() -> list[str]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    has_tpc = importlib.util.find_spec("threadpoolctl") is not None
    return [
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"blas = {blas.get('name')} {blas.get('version')}",
        f"nproc = {len(os.sched_getaffinity(0))}",
        "blas_threads = " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "threadpoolctl = " + ("installed" if has_tpc else "not installed (--threads has no effect)"),
        f"src_lines = {src_lines}",
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "ulrlab" / "cli.py").is_file():
        print(f"error: no ulrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]()
    # Paths relative to the root keep every stage's stdout, which names
    # its output files, the same from run to run and checkout to checkout.
    os.chdir(ROOT)
    work = Path(".bench_work") / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work)
    try:
        try:
            d, setup_times = bench.setup(workload, args.seed)
        except CheckFailed as exc:
            bench.fail("set-up", exc)
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        stages = workload.stages(d)
        passes: list[list[Proc]] = []
        traced: list[list[tuple[float, dict]]] = []
        quality: dict[str, tuple[float, str]] = {}
        deadline = time.perf_counter() + args.seconds
        while not bench.errors:
            results = [bench.stage(s) for s in stages]
            if bench.errors:
                break
            passes.append([proc for proc, _ in results])
            for _, values in results:
                quality.update(values)
            if args.trace:
                spans = work / "spans.json"
                traced_pass = []
                for s in stages:
                    proc, _ = bench.stage(s, spans)
                    if proc is None:
                        break
                    traced_pass.append((proc.wall, json.loads(spans.read_text())))
                if bench.errors:
                    break
                traced.append(traced_pass)
            if time.perf_counter() >= deadline:
                break

        metrics: dict[str, tuple[float, str, int]] = {}
        if not bench.errors:
            try:
                metrics = per_layer(traced, passes) if args.trace else end_to_end(
                    passes, stages, setup_times, quality)
            except TraceError as exc:
                bench.fail("trace", exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    print(f"# ulrlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in metadata():
        print(f"# {line}")
    for key in sorted(bench.digests):
        print(f"# sha256 {key} = {bench.digests[key]}")
    for error in bench.errors:
        print(f"# FAILED {error}")
    print("metric\tvalue\tunit\tn")
    for name in sorted(metrics):
        value, unit, n = metrics[name]
        print(f"{name}\t{value:.6g}\t{unit}\t{n}")
    failed = len(bench.errors)
    print(f"failed_ratio\t{failed / bench.attempted:.6g}\t1\t{bench.attempted}")

    result_metrics = {}
    for entry in declared:
        if entry["name"] in metrics:
            value, unit, _ = metrics[entry["name"]]
            if unit != entry["unit"]:
                raise RuntimeError(f"{entry['name']} measured in {unit}, declared {entry['unit']}")
            result_metrics[entry["name"]] = {"value": value, "unit": unit}
        elif not bench.errors:
            raise RuntimeError(f"declared metric {entry['name']} was not measured")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
