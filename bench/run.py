"""The repo's performance benchmark: one command, five workloads.

    python3 bench/run.py                        # every workload, untraced
    python3 bench/run.py --traced               # ... plus the per-layer run
    python3 bench/run.py --repeat 10            # repeatability harness
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The last form is what ``BENCHMARK.json``'s driver runs: one workload in
this process, every metric printed by name with its unit, and — as the
last line of standard output — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Without
``--workload`` each workload runs in a subprocess of its own, so
``peak_rss_mb`` is per workload.  Exit status is non-zero when any
answer was wrong.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: workload name -> (module, attribute); importing the module imports
#: the program under test.
MODULES = {
    "bulk-exchange": ("wl_bulk", "WORKLOAD"),
    "churn-resident": ("wl_churn", "WORKLOAD"),
    "proql-mix": ("wl_proql", "WORKLOAD"),
    "serve-read": ("wl_serve", "SERVE_READ"),
    "serve-rw": ("wl_serve", "SERVE_RW"),
}
WORKLOADS = tuple(MODULES)


AS_MEASURED = "  as measured: "


def _print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric.get('unit', '')}")


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload in this process."""
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"bench: no program to measure — {ROOT / 'src' / 'repro'} is "
            "missing; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    module, attribute = MODULES[args.workload]
    workload = getattr(importlib.import_module(module), attribute)
    import_seconds = time.perf_counter() - started

    from harness import OUT_DIR, Ctx, run_workload
    from spans import SpanLog

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    traced = args.trace == 1
    ctx = Ctx(
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        tiny=args.size == "tiny",
        scratch=scratch,
        log=SpanLog(traced),
        corrupt=[args.corrupt],
    )
    try:
        result = run_workload(workload, ctx, import_seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    samples = result.pop("samples")
    problems = result.pop("problems")
    raw = result.pop("raw")
    print(
        f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
        f"trace={args.trace}  ops={samples}  "
        f"attempted={result['attempted']}  failed={result['failed']}"
    )
    _print_metrics(result)
    print(
        AS_MEASURED
        + "  ".join(f"{name}={value:.6g}" for name, value in raw.items())
    )
    for problem in problems:
        print(f"  ! {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _spawn(workload: str, seed: int, seconds: float, trace: int, size: str):
    """One workload in a subprocess; returns (exit code, result|None)."""
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size,
        ],
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        return done.returncode or 1, None
    # The wall-clock numbers behind the normalised metrics, for --repeat.
    for line in lines:
        if line.startswith(AS_MEASURED):
            for pair in line[len(AS_MEASURED):].split():
                name, _, value = pair.partition("=")
                result["metrics"][f"({name})"] = {"value": float(value)}
    return done.returncode, result


def run_all(args: argparse.Namespace) -> int:
    """Every workload once (``--traced``: and once more, traced)."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.traced else (0,):
            code, result = _spawn(
                workload, args.seed, args.seconds, trace, args.size
            )
            status = status or code
            if result is None:
                print(f"{workload}  trace={trace}  FAILED (no result)")
                continue
            print(
                f"{workload}  trace={trace}  correct={result['correct']}  "
                f"attempted={result['attempted']}  failed={result['failed']}"
            )
            _print_metrics(result)
    return status


def run_repeat(args: argparse.Namespace) -> int:
    """K sets of untraced runs (of ``--workload``, or of all), workload
    order alternating per set and a fresh seed per set; per metric the
    median, quartiles and the quartile spread as a share of the median,
    against its bound.  The values of every run go to
    ``bench/out/repeat.json``."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    chosen = (args.workload,) if args.workload else WORKLOADS
    values: dict[tuple[str, str], list[float]] = {}
    status = 0
    for number in range(args.repeat):
        order = chosen if number % 2 == 0 else tuple(reversed(chosen))
        for workload in order:
            code, result = _spawn(
                workload, args.seed + number, args.seconds, 0, args.size
            )
            status = status or code
            if result is None:
                continue
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
        print(f"set {number + 1}/{args.repeat} done", file=sys.stderr)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(
        json.dumps({f"{w} {m}": v for (w, m), v in values.items()}, indent=1)
    )
    print(
        f"{'workload':<16}{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
        f"{'spread':>9}{'bound':>7}  verdict"
    )
    names = list(bounds) + sorted(
        {name for _, name in values if name not in bounds}
    )
    for workload in chosen:
        for name in names:
            bound = bounds.get(name, float("nan"))
            sample = values.get((workload, name), [])
            if len(sample) < 2:
                continue
            q1, _, q3 = statistics.quantiles(sample, n=4)
            median = statistics.median(sample)
            spread = (q3 - q1) / median if median else float("inf")
            # setup_s is judged on its median alone, never its spread;
            # the parenthesised wall-clock numbers have no bound.
            if name not in bounds:
                verdict = "as measured"
            elif name != "setup_s" and spread > bound:
                verdict = "unresolved"
            elif spread > bound / 3:
                verdict = "within bound"
            else:
                verdict = "steady"
            print(
                f"{workload:<16}{name:<24}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                f"{spread:>9.3f}{bound:>7.2f}  {verdict}"
            )
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", action="store_true",
        help="without --workload: follow every untraced run with a traced one",
    )
    parser.add_argument(
        "--repeat", type=int, default=0, metavar="K",
        help="run K sets and print each metric's spread against its bound",
    )
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload to a smoke test (the self-check)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="corrupt one expected answer: the run must then fail",
    )
    args = parser.parse_args(argv)
    if args.repeat:
        return run_repeat(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
