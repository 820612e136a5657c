"""Spine benchmark: absolute end-to-end and per-layer numbers at zero simulated latency.

    python3 benchmarks/spine/run.py [--workload W] [--seed S] [--seconds N]
                                    [--trace 0|1] [--smoke] [--check-repeat] [--out FILE]

With ``--workload`` it measures that workload in this process, prints every
metric by name with its unit, and ends with the one-line JSON result the
benchmark contract in ``BENCHMARK.json`` describes (``--trace 0``: the
end-to-end metrics, ``--trace 1``: the per-layer metrics).  Without it, every
workload runs in its own subprocess — ``repro.core`` memos are module-global
and peak RSS must be per workload — in both modes unless ``--trace`` picks one.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SMOKE_SECONDS = 0.1


def declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args, declared: dict) -> int:
    """Measure one workload here; the last stdout line is the JSON result."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import harness
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT}/src: {error}", file=sys.stderr)
        return 2
    outcome = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    flags = [flag for flag, on in (("SMOKE: not comparable", args.smoke),
                                   ("noisy host: calibration moved >10%", outcome.noisy)) if on]
    print(f"## {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + "".join(f" [{flag}]" for flag in flags))
    metrics = {}
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        value = outcome.metrics[name]
        shown = "n/a (wrap point unresolved)" if value is None else f"{value:.6g}"
        print(f"{args.workload:15s} {name:40s} {shown:>14s} {unit:6s} {outcome.notes.get(name, '')}")
        # The result line carries numbers only; trace.unresolved says how many
        # of the zeros stand for a wrap point that no longer resolves.
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    share = outcome.failed / outcome.attempted
    print(f"{args.workload:15s} {'failed_share':40s} {share:>14.6g} {'ratio':6s} "
          f"{outcome.failed} of {outcome.attempted} passes")
    if outcome.first_error:
        print(f"first failure: {outcome.first_error}", file=sys.stderr)
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_set(args, declared: dict, modes) -> dict:
    """Every workload × mode, each in its own subprocess; the parsed result lines."""
    results: dict[str, dict] = {}
    for workload in [entry["name"] for entry in declared["workloads"]]:
        for mode in modes:
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(mode)] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            *table, last = child.stdout.strip().splitlines() or [""]
            print("\n".join(table), flush=True)
            if child.returncode != 0:
                raise SystemExit(f"{workload} --trace {mode} exited with {child.returncode}")
            results.setdefault(workload, {})[f"trace{mode}"] = json.loads(last)
    return results


def all_correct(results: dict) -> bool:
    return all(result["correct"] for modes in results.values() for result in modes.values())


def check_repeat(args, declared: dict) -> int:
    """Two full sets of the same code must agree within each metric's own bound."""
    first, second = run_set(args, declared, (0,)), run_set(args, declared, (0,))
    if not (all_correct(first) and all_correct(second)):
        print("NOT repeatable: a run returned wrong answers")
        return 1
    print(f"\n{'workload':15s} {'metric':15s} {'run 1':>12s} {'run 2':>12s} {'worse by':>9s} {'bound':>6s}")
    agreed = True
    for workload in first:
        for entry in declared["end_to_end"]:
            name = entry["name"]
            one = first[workload]["trace0"]["metrics"][name]["value"]
            two = second[workload]["trace0"]["metrics"][name]["value"]
            worse = (two - one) / one if entry["better"] == "lower" else (one - two) / one
            within = abs(worse) <= entry["bound"]
            agreed = agreed and within
            print(f"{workload:15s} {name:15s} {one:12.5g} {two:12.5g} {worse:+9.1%} "
                  f"{entry['bound']:6.0%}{'' if within else '  DISAGREE'}")
    print("repeatable" if agreed else "NOT repeatable")
    return 0 if agreed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and time: checks structure, numbers not comparable")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the end-to-end set twice and compare within the bounds")
    parser.add_argument("--out", help="also write the collected results as JSON")
    args = parser.parse_args(argv)

    # The instrument must measure the program's defaults under every CI mode.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    declared = declaration()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(declared["run_seconds"])
    names = [entry["name"] for entry in declared["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        args.trace = args.trace or 0
        return run_one(args, declared)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"cannot find the program under test at {ROOT}/src/repro", file=sys.stderr)
        return 2
    if args.check_repeat:
        return check_repeat(args, declared)
    results = run_set(args, declared, (0, 1) if args.trace is None else (args.trace,))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                       "python": platform.python_version(), "workloads": results},
                      handle, indent=1)
            handle.write("\n")
    return 0 if all_correct(results) else 1


if __name__ == "__main__":
    sys.exit(main())
