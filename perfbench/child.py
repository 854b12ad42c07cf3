"""Child processes of the benchmark, each started fresh by ``run.py``.

``child.py setup <workload>``
    Imports cluttercov, builds the workload's fixed inputs through public
    functions and prints one JSON line: import and build times, and the
    library versions of the process.

``child.py replay <result.json> <cli argv...>``
    Imports cluttercov, installs the span tracer over every traced
    binding, runs ``cluttercov.cli.main(argv)`` in this process and writes
    the per-layer summary to ``result.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _check_source(mod) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(mod.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cluttercov imported from {mod.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env_seen_by_child": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def setup(workload: str) -> None:
    from workloads import WORKLOADS

    code = WORKLOADS[workload].setup_code
    t0 = time.perf_counter()
    import cluttercov

    t1 = time.perf_counter()
    exec(compile(code, "<setup>", "exec"), {})
    t2 = time.perf_counter()
    _check_source(cluttercov)
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "env": environment()}))


def replay(result_path: str, argv: list[str]) -> int:
    import tracer

    t0 = time.perf_counter()
    import cluttercov
    import cluttercov.cli

    import_s = time.perf_counter() - t0
    _check_source(cluttercov)
    tr = tracer.Tracer()
    tracer.install(tr)
    rc = cluttercov.cli.main(argv)
    Path(result_path).write_text(json.dumps({"import_s": import_s, "layers": tr.summary()}))
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "replay":
        sys.exit(replay(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
