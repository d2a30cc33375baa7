"""Command-line runner: config-driven check sweeps and spectrum tables.

Subcommands
-----------
``run <config> [--out DIR] [--workers N]``
    Execute the checks selected in an INI-style config and write one CSV
    table per check, plus a ``.meta`` sidecar with the status (pass, fail
    or error), the tolerance and its source, the scenario, each judgement,
    and the check's wall and worker-thread CPU time. A check that raises
    gets only a meta with its error text; the others still run. Exit 0 when
    every check passes, 1 on a check failure or error, 2 on usage/config errors.
``list-checks``
    Print the registry: name, module, anchor.
``spectrum --model <tag> --qmin <x> --qmax <x> --points <n> [--out DIR]``
    Tabulate the dispersion and collective spectrum over a q range.

The config holds all that can change a table or a verdict (``[scenario]``,
``[run] checks``, ``[tolerances]``; any other section or key is refused), so
``config_hash`` names it. The flags hold what cannot: ``--out`` (default
``.``) and ``--workers`` (default 1); tables are assembled in task order.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from . import __version__
from .checks import REGISTRY, CheckContext, CheckResult, checked_tolerance, run_check
from .model import bogoliubov_spectrum, dispersion, gas_table

# the sections and keys a config may hold; a tolerance may name any registered check
_SCHEMA = {"scenario": {f.name for f in dataclasses.fields(CheckContext)},
           "run": {"checks"}, "tolerances": REGISTRY.keys()}


def _format_cell(value) -> str:
    if isinstance(value, (str, int)):  # bool is an int
        return str(value)
    return format(float(value), ".17g")


def _write_table(path: Path, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = ["# " + ",".join(columns)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _output_dir(out: str) -> Path:
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as a file of that name
        raise ValueError(f"--out {out}: {exc.strerror}") from None
    return Path(out)


def _load_config(path: Path):
    """Scenario, selected checks, their tolerances and file hash; refuses what _SCHEMA lacks."""
    # no default section, so a [DEFAULT] header is one more unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    if not parser.read(path):
        raise FileNotFoundError(path)
    config = {name: dict(parser[name]) for name in parser.sections()}
    for section, entries in config.items():
        unknown = [f"section [{section}]"] if section not in _SCHEMA else [
            f"key {key!r} in [{section}]" for key in entries if key not in _SCHEMA[section]]
        if unknown:
            raise ValueError(f"unknown {unknown[0]}")

    ctx = CheckContext(**{key: float(value) for key, value in config.get("scenario", {}).items()})
    names = config.get("run", {}).get("checks", "").replace(",", " ").split()
    if not names:
        raise ValueError("config needs a [run] section with a nonempty checks list")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"check {repeated[0]!r} is selected twice")
    given = config.get("tolerances", {})
    tols = {name: checked_tolerance(name, float(given[name]) if name in given else None)
            for name in [*given, *names]}  # KeyError: an unregistered check
    return ctx, names, tols, hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _run_command(args) -> int:
    try:
        ctx, names, tols, digest = _load_config(Path(args.config))
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
    except (KeyError, ValueError, FileNotFoundError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = _output_dir(args.out)
    scenario = {f"scenario_{key}": value for key, value in dataclasses.asdict(ctx).items()}

    def task(name: str) -> Tuple[CheckResult, float, float]:
        t0, thread0 = time.perf_counter(), time.thread_time()
        result = run_check(name, ctx, tols[name])
        return result, time.perf_counter() - t0, time.thread_time() - thread0

    started = time.perf_counter()
    failed = []
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
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
                "tolerance_source": "config" if tols[name] != spec.default_tolerance else "default",
                "config_hash": digest,
                "version": __version__,
            } | scenario
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
        print(f"failed checks: {', '.join(failed)} (total {total:.2f}s)", file=sys.stderr)
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
    out_dir = _output_dir(args.out)
    _write_table(out_dir / "spectrum.csv",
                 ("q", "eps_q", "E_q", "E_q_q_over_eps_q", "omega"), rows)
    print(f"wrote {out_dir / 'spectrum.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosefluct", description="Goldstone-pair fluctuation checks for condensed Bose gases")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute checks from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=".", help="output directory (default: .)")
    run_p.add_argument("--workers", type=int, default=1, help="check threads (default: 1)")
    run_p.set_defaults(func=_run_command)

    list_p = sub.add_parser("list-checks", help="print the check registry")
    list_p.set_defaults(func=_list_checks_command)

    spec_p = sub.add_parser("spectrum", help="tabulate dispersion and spectrum")
    spec_p.add_argument("--model", required=True)
    spec_p.add_argument("--qmin", type=float, required=True)
    spec_p.add_argument("--qmax", type=float, required=True)
    spec_p.add_argument("--points", type=int, required=True)
    spec_p.add_argument("--out", default=".", help="output directory (default: .)")
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
