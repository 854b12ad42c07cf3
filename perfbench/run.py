"""Benchmark of the cluttercov CLI: end-to-end runs and a traced per-layer replay.

    python3 perfbench/run.py --workload est-nsweep --seed 3 --seconds 36 --trace 0

Run from the root of a source checkout. Every command runs in a fresh child
process with BLAS pinned to one thread through the child environment, one
at a time (a closed loop with one client). ``--trace 0`` alternates a
set-up probe and an untraced CLI run for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` adds a traced in-process replay after
each CLI run and reports the per-layer metrics; it prints the end-to-end
figures of the same run above them. Outputs of every run are checked, and
the last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TRACED, tail_percentile
from workloads import WORKLOADS, CheckError, check_manifest, check_output, compare_reference, expected_counts, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# BLAS and OpenMP pools are pinned in every child; threadpoolctl is not a
# dependency, so the pin is applied only through the child environment.
THREAD_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
MIN_SAMPLES = 3  # loop iterations run even when --seconds has passed
RUN_LIMIT_S = 170.0  # no new iteration starts if it could end past this
EXIT_BY_S = 178.0  # children still running then are killed, so a run ends within 180 s
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
LAYERS_S = sorted({name for name, _, _ in TRACED})
CALLS = ["rmt.eigh", "rmt.sample_covariance", "scenario.draw", "detector.detect"]
PER_CALL = ["rmt.eigh", "rmt.sample_covariance", "scenario.draw", "metrics.stein_loss", "detector.detect"]


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYERS_S}
    units.update({f"{name}_calls": "count" for name in CALLS})
    units.update({f"{name}_call_median_s": "s" for name in PER_CALL})
    units["rmt.sample_covariance_gflops"] = "GFLOP/s"
    units["cluttercov.import_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


@dataclass
class ChildRun:
    kind: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str
    error: str | None = None
    extra: dict = field(default_factory=dict)


def run_child(kind: str, cmd: list[str], env: dict, log_dir: Path, timeout: float) -> ChildRun:
    """Run one child to exit; wall time from spawn to exit, rusage from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / f"{kind}.out", log_dir / f"{kind}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = ChildRun(
        kind=kind,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        rc=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
    if run.rc != 0:
        run.error = f"{kind} exited {run.rc}: {run.stderr.strip()[-300:]}"
    return run


def source_identity() -> dict:
    """Git commit when the checkout has .git, and a hash of src/ either way."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_path.read_text().strip() if ref.startswith("ref: ") and ref_path.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def timing(values: list[float]) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "samples": len(values),
    }


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, refs: dict | None = None):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = {**os.environ, **THREAD_PIN, "PYTHONPATH": str(ROOT / "src")}
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.refs = load_reference(self.w, HERE / "reference") if refs is None else refs
        self.first_output: str | None = None
        self.runs: list[ChildRun] = []
        self.t_start = time.perf_counter()

    def _timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, EXIT_BY_S - (time.perf_counter() - self.t_start)))

    def _record(self, run: ChildRun) -> ChildRun:
        self.runs.append(run)
        if run.error:
            print(f"FAILED {run.error}", file=sys.stderr)
        return run

    def setup_probe(self, i: int) -> ChildRun:
        cmd = [sys.executable, str(HERE / "child.py"), "setup", self.w.name]
        run = run_child("setup", cmd, self.env, self.work / f"setup-{i}", self._timeout())
        if run.error is None:
            try:
                run.extra = json.loads(run.stdout.strip().splitlines()[-1])
            except (json.JSONDecodeError, IndexError):
                run.error = "setup probe printed no result"
        return self._record(run)

    def _check(self, run: ChildRun, out_dir: Path, seed: int) -> None:
        """Schema, ranges, byte identity at one seed, and the recorded reference."""
        if run.error:
            return
        try:
            data_path = out_dir / self.w.output
            if not data_path.is_file():
                raise CheckError(f"missing output {self.w.output}")
            text = data_path.read_text()
            parsed = check_output(self.w, text)
            manifest = out_dir / "manifest.json"
            if not manifest.is_file():
                raise CheckError("missing manifest.json")
            check_manifest(self.w, manifest.read_text(), seed)
            if seed == self.seed:
                if self.first_output is None:
                    self.first_output = text
                elif text != self.first_output:
                    raise CheckError("output differs from the first run at the same seed")
            if seed in self.refs:
                compare_reference(self.w, parsed, self.refs[seed])
        except CheckError as exc:
            run.error = f"{run.kind} output check: {exc}"

    def cli_run(self, i: int, seed: int) -> ChildRun:
        out_dir = self.work / f"cli-{i}" / "out"
        cmd = [sys.executable, "-m", "cluttercov.cli", *self.w.cli_argv(seed, out_dir)]
        run = run_child("cli", cmd, self.env, self.work / f"cli-{i}", self._timeout())
        self._check(run, out_dir, seed)
        return self._record(run)

    def traced_run(self, i: int) -> ChildRun:
        out_dir = self.work / f"replay-{i}" / "out"
        result = self.work / f"replay-{i}" / "layers.json"
        cmd = [sys.executable, str(HERE / "child.py"), "replay", str(result), *self.w.cli_argv(self.seed, out_dir)]
        run = run_child("replay", cmd, self.env, self.work / f"replay-{i}", self._timeout())
        self._check(run, out_dir, self.seed)
        if run.error is None:
            run.extra = json.loads(result.read_text())
            counts = {name: row["calls"] for name, row in run.extra["layers"].items()}
            want = expected_counts(self.w)
            got = {name: counts.get(name, 0) for name in want}
            if got != want:
                diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
                run.error = f"traced call counts (got, expected) differ: {diff}"
        return self._record(run)

    def loop(self) -> None:
        # compile bytecode and warm the page cache before anything is timed
        run_child("warmup", [sys.executable, "-c", "import cluttercov.cli"], self.env, self.work, self._timeout())
        # Without a reference recorded at this seed, the first command runs at a
        # recorded seed so its outputs can be compared. It is timed like the
        # rest: the seed changes the random draws, not the work.
        seeds = [self.seed] if self.seed in self.refs else [min(self.refs), self.seed]
        deadline = self.t_start + self.seconds
        i = 0
        last = 0.0
        # start an iteration only when it should end by half its length past the deadline
        while i < MIN_SAMPLES or time.perf_counter() + last / 2 < deadline:
            now = time.perf_counter()
            if i >= 1 and now - self.t_start + last > RUN_LIMIT_S:
                break
            self.setup_probe(i)
            self.cli_run(i, seeds[min(i, len(seeds) - 1)])
            if self.trace:
                self.traced_run(i)
            last = time.perf_counter() - now
            i += 1

    def of(self, kind: str) -> list[ChildRun]:
        return [r for r in self.runs if r.kind == kind]

    def end_to_end(self) -> dict:
        cli = self.of("cli")
        failed = sum(1 for r in self.runs if r.error)
        wall = timing([r.wall_s for r in cli])
        setup = timing([r.wall_s for r in self.of("setup")])
        return {
            "wall_s": wall,
            "setup_s": setup,
            # a command that fails before its trials can finish inside the set-up time
            "trials_per_s": {"median": self.w.trial_evals / max(wall["median"] - setup["median"], 1e-3)},
            "cpu_s": timing([r.cpu_s for r in cli]),
            "peak_rss_mb": timing([r.rss_mb for r in cli]),
            "ok_frac": {"median": (len(self.runs) - failed) / len(self.runs)},
        }

    def per_layer(self, e2e: dict) -> dict:
        replays = [r for r in self.of("replay") if r.error is None]
        out: dict[str, dict] = {}
        if not replays:
            return out

        def per_run(fn) -> dict:
            return timing([fn(r.extra["layers"]) for r in replays])

        for name in LAYERS_S:
            out[f"{name}_s"] = per_run(lambda layers, n=name: layers.get(n, {}).get("self_s", 0.0))
        for name in CALLS:  # exact counts, equal in every replay that passed the count check
            counts = [r.extra["layers"].get(name, {}).get("calls", 0) for r in replays]
            out[f"{name}_calls"] = {"median": statistics.median_low(counts), "samples": len(counts)}
        for name in PER_CALL:
            pooled = [x for r in replays for x in r.extra["layers"].get(name, {}).get("per_call_s", [])]
            out[f"{name}_call_median_s"] = timing(pooled) if pooled else {"median": 0.0, "samples": 0}

        def gflops(layers) -> float:
            row = layers.get("rmt.sample_covariance")
            return row["work"] / row["self_s"] / 1e9 if row and row["self_s"] > 0 else 0.0

        out["rmt.sample_covariance_gflops"] = per_run(gflops)
        out["cluttercov.import_s"] = timing([r.extra["import_s"] for r in replays])
        traced_wall = statistics.median(r.wall_s for r in replays)
        out["trace.overhead_frac"] = {"median": traced_wall / e2e["wall_s"]["median"] - 1.0}
        return out


def environment(bench: Bench) -> dict:
    probe = next((r.extra["env"] for r in bench.of("setup") if r.extra), {})
    return {
        **probe,
        "thread_pin": THREAD_PIN,
        "thread_pin_via": "child environment variables (threadpoolctl is not installed)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **source_identity(),
    }


def report(bench: Bench, env: dict, e2e: dict, layers: dict) -> None:
    w = bench.w
    print(f"perfbench workload={w.name} seed={bench.seed} seconds={bench.seconds} trace={int(bench.trace)}")
    print(f"  {w.why}")
    print(f"  command: cluttercov {' '.join(w.argv)} --seed {bench.seed}  ({w.trial_evals} trial evaluations)")
    for key, val in env.items():
        print(f"  env {key}: {val}")
    per_layer = per_layer_units()
    rows = [(k, END_TO_END[k], v) for k, v in e2e.items()] + [(k, per_layer[k], v) for k, v in layers.items()]
    print(f"  {'metric':36s} {'median':>14s} {'unit':8s} {'tail':>22s} {'samples':>7s}")
    for name, unit, val in rows:
        tail = val.get("tail")
        tail_txt = f"{tail['percentile']}={tail['value']:.6g}" if tail else "n/a (<10 beyond p50)"
        samples = val.get("samples", "")
        print(f"  {name:36s} {val['median']:14.6g} {unit:8s} {tail_txt:>22s} {samples!s:>7s}")
    failed = [r.error for r in bench.runs if r.error]
    print(f"  runs attempted {len(bench.runs)}, failed {len(failed)} (failed_frac {len(failed) / len(bench.runs):.3g})")
    for err in failed:
        print(f"  failure: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cluttercov" / "__init__.py").is_file():
        print(f"no cluttercov source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.loop()
    finally:
        for child_dir in bench.work.glob("*/out"):
            shutil.rmtree(child_dir, ignore_errors=True)
    if not any(r.error for r in bench.runs):
        shutil.rmtree(bench.work, ignore_errors=True)  # keep child logs only of failed runs
    env = environment(bench)
    e2e = bench.end_to_end()
    layers = bench.per_layer(e2e) if bench.trace else {}
    failed = sum(1 for r in bench.runs if r.error)
    correct = failed == 0 and (not bench.trace or bool(layers))
    report(bench, env, e2e, layers)

    units = per_layer_units() if bench.trace else END_TO_END
    chosen = layers if bench.trace else e2e
    metrics = {k: {"value": chosen[k]["median"], "unit": units[k]} for k in units if k in chosen}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps(
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "env": env, "end_to_end": e2e, "per_layer": layers,
                "runs": [
                    {"kind": r.kind, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb, "error": r.error}
                    for r in bench.runs
                ],
            },
            indent=1,
        )
    )
    print(json.dumps({"correct": correct, "attempted": len(bench.runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
