"""Run bench/run.py over several seeds and summarize the results.

    python3 bench/collect.py --seeds 1-10 --out bench/baseline/untraced.json
    python3 bench/collect.py --seeds 0 --trace 1 --repeat 2 --markdown layers.md
    python3 bench/collect.py --compare parent.json change.json

Untraced runs: for each end-to-end metric and workload, the median and the
quartile spread (interquartile distance as a share of the median, from
``statistics.quantiles(values, n=4)``) against the bound in BENCHMARK.json;
spreads above a third of the bound are flagged.  Traced runs: the per-layer
table, and whether every count repeats exactly across repeats of a seed.
Runs go one at a time, in seed order, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "bench": json.loads(lines[-2])["bench"], "result": json.loads(lines[-1])}


def summarize(runs: list) -> dict:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        per_metric = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            median, spread = measure.spread(values) if len(values) > 1 else (values[0], 0.0)
            per_metric[name] = {"median": median, "spread": spread, "bound": bound,
                                "values": values}
        summary[workload] = {
            "runs": len(rows),
            "failed": sum(r["result"]["failed"] for r in rows),
            "attempted": sum(r["result"]["attempted"] for r in rows),
            "metrics": per_metric,
        }
    return summary


def print_summary(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, "
              f"{entry['failed']}/{entry['attempted']} rows failed")
        for name, m in entry["metrics"].items():
            if name == "setup_s":
                flag = ""  # its spread is not bounded, only its median
            elif m["spread"] > m["bound"]:
                flag = "  OVER BOUND"
            elif m["spread"] > m["bound"] / 3.0:
                flag = "  over bound/3"
            else:
                flag = ""
            print(f"  {name:14s} median {m['median']:.6g}  spread {m['spread']:.3f}"
                  f"  bound {m['bound']}{flag}")


def layer_table(runs: list) -> str:
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    first = {w: next(r for r in runs if r["workload"] == w) for w in workloads}
    names = [m["name"] for m in SPEC["per_layer"]]
    env = runs[0]["bench"]["env"]
    seeds = sorted({r["seed"] for r in runs})
    out = ["# Per-layer metrics, per round",
           "",
           f"Traced runs at seed {', '.join(map(str, seeds))}; git sha {env['git_sha']}, "
           f"src digest {env['src_digest']}; Python {env['python']}, numpy {env['numpy']}, "
           f"scipy {env['scipy']}, {env['nproc']} CPUs. Values from the first run of each "
           "workload.",
           "",
           "| metric | " + " | ".join(workloads) + " |",
           "|---|" + "---|" * len(workloads)]
    for name in names:
        cells = []
        for w in workloads:
            value = first[w]["result"]["metrics"][name]["value"]
            cells.append(f"{value:.4g}" if isinstance(value, float) else str(value))
        out.append(f"| `{name}` | " + " | ".join(cells) + " |")
    out += ["", "Self time per round, seconds (traced):", "",
            "| span | " + " | ".join(workloads) + " |", "|---|" + "---|" * len(workloads)]
    spans = sorted({k for w in workloads for k in first[w]["bench"]["self_s_per_round"]})
    for span in spans:
        cells = [f"{first[w]['bench']['self_s_per_round'].get(span, 0.0):.4f}"
                 for w in workloads]
        out.append(f"| `{span}` | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def compare(base: dict, new: dict) -> bool:
    """Print each end-to-end median of ``new`` against ``base`` (two saved
    untraced summaries); True when none is worse by more than its bound."""
    ok = True
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for workload, entry in new["summary"].items():
        print(workload)
        for name, m in entry["metrics"].items():
            b = base["summary"][workload]["metrics"][name]["median"]
            change = (m["median"] - b) / b
            worse = change if better[name] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"  {name:14s} {b:.6g} -> {m['median']:.6g}  ({change:+.3f}, "
                  f"bound {m['bound']}){flag}")
    return ok


def count_repeats(runs: list) -> dict:
    """Per (workload, seed): whether every count metric is equal across repeats."""
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")
              and m["name"] != "tracing.overhead_ratio"]
    out = {}
    for r in runs:
        key = f"{r['workload']}/{r['seed']}"
        values = [r["result"]["metrics"][n]["value"] for n in counts]
        out.setdefault(key, []).append(values)
    return {key: all(v == vals[0] for v in vals) for key, vals in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None, help="write every run and the summary as JSON")
    parser.add_argument("--markdown", default=None, help="traced: write the per-layer table")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), default=None,
                        help="compare the medians of two saved untraced runs and exit")
    args = parser.parse_args(argv)
    if args.compare:
        base, new = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(base, new) else 1

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            for _ in range(args.repeat):
                run = run_one(workload, seed, args.seconds, args.trace)
                runs.append(run)
                print(f"{workload} seed {seed}: correct={run['result']['correct']}",
                      file=sys.stderr, flush=True)
    payload = {"runs": runs}
    if args.trace == 0:
        payload["summary"] = summarize(runs)
        print_summary(payload["summary"])
    else:
        payload["counts_repeat"] = count_repeats(runs)
        print(json.dumps(payload["counts_repeat"], indent=1))
        if args.markdown:
            Path(args.markdown).write_text(layer_table(runs))
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
