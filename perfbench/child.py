"""One pass of one workload in a fresh process.

``run.py`` starts this script once per pass, from the root of the
checkout, and passes the monotonic clock reading taken just before the
spawn. Set-up time runs from that reading to the first timed call and
covers interpreter start, imports, config and input generation. The
result, written as JSON to ``--result``, holds the timings, the outputs
the gates read and, for a traced pass, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), default="pass")
    parser.add_argument("--gate", type=int, default=0,
                        help="also compute the gates' independent routes, untimed")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))  # the checkout's library, never an installed one
    import bosefluct
    import bosefluct.cli

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    work = workloads.Pass(bosefluct, args.workload, inputs, Path(args.work))
    trace = None
    if args.mode == "traced":
        import gzip

        import tracer

        trace = tracer.Tracer()
        trace.install(bosefluct)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode != "setup":
        if trace is not None:
            root = trace.enter(tracer.ROOT)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outputs = work.run()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if trace is not None:
            trace.exit(root)
            trace.uninstall()
            result["layers"] = trace.metrics(workloads.reference_checks())
            result["spans"] = len(trace.spans)
            with gzip.open(Path(args.work) / "spans.json.gz", "wt", compresslevel=1) as spans:
                json.dump(trace.span_records(), spans)
        result.update(wall_s=wall, cpu_s=cpu, outputs=outputs)
        if args.gate:
            gate0 = time.perf_counter()
            result["gate"] = work.gate_values()
            result["environment"] = environment()
            result["gate_s"] = time.perf_counter() - gate0
    Path(args.result).write_text(json.dumps(result))
    return 0


def environment() -> dict:
    """Versions, BLAS library and BLAS thread setting of this process."""
    import numpy
    import scipy

    env = {name: os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": openblas_threads()},
        "thread_env": env,
    }


def openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


if __name__ == "__main__":
    sys.exit(main())
