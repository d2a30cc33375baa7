"""Command-line runner: config-driven check sweeps and spectrum tables.

Subcommands
-----------
``run <config>``
    Execute the checks selected in an INI-style config and write one CSV
    table per check, plus a ``.meta`` sidecar with the status (pass, fail
    or error), the tolerance, each judgement's value, bound and margin, and
    the check's wall and worker-thread CPU time. A check that raises gets
    only a meta with its error text; the others still run. Exit 0 when every
    check passes, 1 on a check failure or error, 2 on usage/config errors.
``list-checks``
    Print the registry: name, module, anchor.
``spectrum --model <tag> --qmin <x> --qmax <x> --points <n>``
    Tabulate the dispersion and collective spectrum over a q range.

The default output directory comes from ``--out`` or the
``BOSEFLUCT_OUT`` environment variable (falling back to the current
directory). Worker count affects wall time only; tables are assembled
in task order and re-running an identical config byte-reproduces them.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from . import __version__
from .checks import REGISTRY, CheckContext, CheckResult, checked_tolerance, run_check
from .model import bogoliubov_spectrum, dispersion, gas_table

OUTPUT_DIR_ENV = "BOSEFLUCT_OUT"

_CONTEXT_FIELDS = {f.name for f in dataclasses.fields(CheckContext)}


def _format_cell(value) -> str:
    if isinstance(value, (str, int)):  # bool is an int
        return str(value)
    return format(float(value), ".17g")


def _write_table(path: Path, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = ["# " + ",".join(columns)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _resolve_out(arg_out: str | None) -> Path:
    out = arg_out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_tol_overrides(pairs: Sequence[str] | None) -> Dict[str, float]:
    overrides: Dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--tol expects name=value, got {pair!r}")
        overrides[name] = checked_tolerance(name, float(value))
    return overrides


def _load_config(path: Path):
    """Read the scenario config: context fields, check list, tolerances."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)

    ctx_kwargs = {}
    if parser.has_section("scenario"):
        for key, value in parser.items("scenario"):
            if key not in _CONTEXT_FIELDS:
                raise ValueError(f"unknown scenario field {key!r}")
            ctx_kwargs[key] = float(value)
    ctx = CheckContext(**ctx_kwargs)  # refuses a scenario any check would refuse

    if not parser.has_section("run") or not parser.get("run", "checks", fallback="").strip():
        raise ValueError("config needs a [run] section with a nonempty checks list")
    raw = parser.get("run", "checks").replace(",", " ").split()
    workers = parser.getint("run", "workers", fallback=1)
    out = parser.get("run", "out", fallback=None)

    tols: Dict[str, float] = {}
    if parser.has_section("tolerances"):
        for name, value in parser.items("tolerances"):
            tols[name] = checked_tolerance(name, float(value))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return ctx, raw, workers, out, tols, digest


def _run_command(args) -> int:
    try:
        ctx, names, cfg_workers, cfg_out, tols, digest = _load_config(Path(args.config))
        tols.update(_parse_tol_overrides(args.tol))
        tols = {name: checked_tolerance(name, tols.get(name)) for name in names}  # KeyError
        workers = cfg_workers if args.workers is None else args.workers
        if min(workers, cfg_workers) < 1:  # a bad config value is refused even when overridden
            raise ValueError("worker count ([run] workers, --workers) must be at least 1")
    except (KeyError, ValueError, FileNotFoundError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = _resolve_out(args.out or cfg_out)

    def task(name: str) -> Tuple[CheckResult, float, float]:
        t0, thread0 = time.perf_counter(), time.thread_time()
        result = run_check(name, ctx, tols[name])
        return result, time.perf_counter() - t0, time.thread_time() - thread0

    started = time.perf_counter()
    failed = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, name) for name in names]
        for name, future in zip(names, futures):  # submission order => deterministic assembly
            spec = REGISTRY[name]
            meta = {
                "check": name,
                "module": spec.module,
                "anchor": spec.anchor,
                "passed": False,
                "status": "error",
                "tolerance": tols[name],
                "config_hash": digest,
                "version": __version__,
            }
            try:
                result, elapsed, thread_elapsed = future.result()
            except Exception as exc:  # a raising check must not hide the others
                meta["error"] = f"{type(exc).__name__}: {exc}"
                print(f"{name}: ERROR ({meta['error']})", file=sys.stderr)
            else:
                _write_table(out_dir / f"{name}.csv", result.columns, result.rows)
                meta["passed"] = result.passed
                meta["status"] = "pass" if result.passed else "fail"
                meta["wall_time_s"] = elapsed
                meta["thread_time_s"] = thread_elapsed
                for j in result.judgements:
                    meta |= {j.name: j.value, f"{j.name}_bound": j.bound,
                             f"{j.name}_margin": j.margin}
                meta |= result.details
                broken = "".join(f"; {j.name} fails" for j in result.judgements if not j.holds)
                print(f"{name}: {'FAIL' if broken else 'pass'} ({elapsed:.2f}s{broken})")
            lines = [f"{key}: {value}" for key, value in meta.items()]  # repr: round-trip floats
            (out_dir / f"{name}.csv.meta").write_text("\n".join(lines) + "\n")
            if not meta["passed"]:
                failed.append(name)

    total = time.perf_counter() - started
    if failed:
        print(f"failed checks: {', '.join(failed)} (total {total:.2f}s)",
              file=sys.stderr)
        return 1
    print(f"all {len(names)} checks passed (total {total:.2f}s)")
    return 0


def _list_checks_command(args) -> int:
    width = max(len(name) for name in REGISTRY)
    mod_width = max(len(c.module) for c in REGISTRY.values())
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        print(f"{name:<{width}}  {spec.module:<{mod_width}}  {spec.anchor}")
    return 0


def _spectrum_command(args) -> int:
    if not 0.0 < args.qmin < args.qmax < math.inf or args.points < 2:
        print("spectrum: need 0 < qmin < qmax and points >= 2", file=sys.stderr)
        return 2
    try:
        params = CheckContext().ground(args.model)
    except KeyError:
        print(f"spectrum: unknown model {args.model!r}", file=sys.stderr)
        return 2
    table = gas_table(args.model, params)
    omega = table.omega()

    qs = np.geomspace(args.qmin, args.qmax, args.points)
    rows = []
    for q in qs:
        eps = dispersion(q, params)
        energy = bogoliubov_spectrum(eps, table.g(q))
        rows.append((q, eps, energy, energy * q / eps, omega))
    out_dir = _resolve_out(args.out)
    _write_table(out_dir / "spectrum.csv",
                 ("q", "eps_q", "E_q", "E_q_q_over_eps_q", "omega"), rows)
    print(f"wrote {out_dir / 'spectrum.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosefluct",
        description="Goldstone-pair fluctuation checks for condensed Bose gases",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute checks from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--workers", type=int, default=None)
    run_p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override (repeatable)")
    run_p.set_defaults(func=_run_command)

    list_p = sub.add_parser("list-checks", help="print the check registry")
    list_p.set_defaults(func=_list_checks_command)

    spec_p = sub.add_parser("spectrum", help="tabulate dispersion and spectrum")
    spec_p.add_argument("--model", required=True)
    spec_p.add_argument("--qmin", type=float, required=True)
    spec_p.add_argument("--qmax", type=float, required=True)
    spec_p.add_argument("--points", type=int, required=True)
    spec_p.add_argument("--out", help="output directory")
    spec_p.set_defaults(func=_spectrum_command)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
