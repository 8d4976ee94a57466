"""dpgrowth benchmark: drives ``harness.run_sweep`` and ``harness.privacy_audit``
in-process, single-threaded, on three closed-loop workloads.

    python3 bench/run.py --workload audit-1d --seed 0 --seconds 25 --trace 0

Each run builds its inputs from ``--seed`` (an offset added to every config's
own master seed, so seed 0 reproduces the acceptance configs' seeds), repeats
one identical round of entry-point calls until ``--seconds`` have passed,
checks every row each round produced, and prints the result as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` wraps the program's public functions (see tracer.py) and reports
per-layer metrics.  The line before the result holds the run environment and
sample counts.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from configparser import ConfigParser
from pathlib import Path

import measure

# Pin BLAS and OpenMP pools before anything imports numpy: nothing above
# does, and dpgrowth is imported only inside functions.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = BENCH_DIR / "reference.json"
OUT_ROOT = ROOT / ".bench_out"

JOBS = 1
MIN_ROUNDS = 3
SETUP_PROBES = 5

# Times are reported at a reference machine speed: a round's times are
# scaled by CAL_REF_S over the median time of a fixed calibration kernel,
# timed just before and just after the round (a set-up probe's likewise).
# A shared 2-CPU virtual machine switches between speed states every few
# seconds, and the kernel, like the program, is interpreter-bound, so scaled
# times stay steadier across runs than raw ones.  Raw times are kept in the
# line before the result.
CAL_REF_S = 0.01
CAL_REPEATS = 5

# Sweep workloads: (config file, seeds per grid cell).  The seed counts cut
# each acceptance config to a round of one to two seconds at the seed commit;
# more trials per round would average out more of the work's dependence on
# the seed, fewer rounds would make the median over rounds less robust.
SWEEPS = {
    "sweep-noiseless-1d": (
        ("acceptance_stat_kappa2.ini", 20),
        ("acceptance_stat_kappa4.ini", 8),
    ),
    "sweep-private": (
        ("acceptance_priv_epoch.ini", 20),
        ("acceptance_priv_pure.ini", 20),
        ("acceptance_invsens.ini", 80),
    ),
}

AUDIT = "audit-1d"
AUDIT_CONFIG = "acceptance_audit.ini"
# Master seed of `dpgrowth audit` when none is given.
AUDIT_MASTER_SEED = 7
# Mechanism outputs per dataset.  The histogram test needs a bin holding 50
# outputs under both datasets to give a finite report; the chains reach that
# at a few hundred outputs, the grid sampler's spread-out lattice needs more.
AUDIT_TRIALS = 600
AUDIT_GRID_TRIALS = 10_000
# The two instances privacy_audit builds, for the set-up probe.
AUDIT_INSTANCES = (
    ("uniform_convex", dict(d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1)),
    ("pure_convex", dict(d=1, L=1.0, R=1.0)),
)

WORKLOADS = (AUDIT, *SWEEPS)


@dataclasses.dataclass
class Round:
    """One pass over a workload's entry-point calls."""

    wall: float  # seconds inside the entry points
    trials: int
    trial_ms: list  # per-trial latencies (sweeps) or ms per output (audit)
    rows: list  # (row text, row failed its sanity check)
    scale: float = 1.0  # reference speed over the speed around the round


class SweepWorkload:
    def __init__(self, name: str, seed: int, out_dir: Path):
        from dpgrowth import harness

        self.harness = harness
        self.out_dir = out_dir
        self.configs = []
        for filename, seeds in SWEEPS[name]:
            cfg = harness.load_config(CONFIGS / filename)
            self.configs.append(
                dataclasses.replace(cfg, seeds=seeds, master_seed=cfg.master_seed + seed)
            )

    def first_instances(self) -> list:
        from dpgrowth.instances import build_instance

        out = []
        for cfg in self.configs:
            params = dict(cfg.instance_params)
            if cfg.instance_name != "sharp_growth":
                params["d"] = cfg.cells()[0]["d"]
            out.append(build_instance(cfg.instance_name, **params))
        return out

    def run_round(self) -> Round:
        wall = 0.0
        records, csv_paths = [], []
        for cfg in self.configs:
            start = time.perf_counter()
            recs, csv_path, _ = self.harness.run_sweep(cfg, self.out_dir, jobs=JOBS)
            wall += time.perf_counter() - start
            records += recs
            csv_paths.append(csv_path)
        rows = []
        for path in csv_paths:
            with open(path, newline="") as fh:
                lines = fh.read().splitlines()
            for line, parsed in zip(lines[1:], csv.DictReader(lines)):
                rows.append((line, measure.sweep_row_failed(parsed)))
        return Round(wall, len(records), [r.wall_ms for r in records], rows)


class AuditWorkload:
    """privacy_audit in the shape of the acceptance audit config, with fewer
    outputs; the grid sampler runs in its own call with more outputs."""

    def __init__(self, seed: int):
        from dpgrowth import harness

        self.harness = harness
        parser = ConfigParser(inline_comment_prefixes=(";", "#"))
        if not parser.read(CONFIGS / AUDIT_CONFIG):
            raise FileNotFoundError(CONFIGS / AUDIT_CONFIG)
        sec = parser["audit"]
        common = dict(
            epsilons=tuple(float(e) for e in sec["epsilons"].split(",")),
            n=int(sec["n"]),
            bins=int(sec["bins"]),
            sabotage=sec.getboolean("sabotage"),
            master_seed=AUDIT_MASTER_SEED + seed,
            jobs=JOBS,
        )
        pipelines = tuple(p.strip() for p in sec["pipelines"].split(","))
        chains = tuple(p for p in pipelines if p != "inv_sensitivity")
        self.calls = [dict(common, pipelines=chains, trials=AUDIT_TRIALS)]
        if "inv_sensitivity" in pipelines:
            self.calls.append(
                dict(common, pipelines=("inv_sensitivity",), trials=AUDIT_GRID_TRIALS)
            )

    def first_instances(self) -> list:
        from dpgrowth.instances import build_instance

        return [build_instance(name, **params) for name, params in AUDIT_INSTANCES]

    def run_round(self) -> Round:
        wall = 0.0
        rows, outputs = [], 0
        for kwargs in self.calls:
            start = time.perf_counter()
            audit_rows = self.harness.privacy_audit(**kwargs)
            wall += time.perf_counter() - start
            for row in audit_rows:
                if row.report is not None:
                    outputs += 2 * kwargs["trials"]
                report = None if row.report is None else dataclasses.asdict(row.report)
                text = json.dumps(
                    {"pipeline": row.pipeline, "epsilon": row.epsilon, "mode": row.mode,
                     "report": report},
                    sort_keys=True,
                )
                rows.append((text, measure.audit_row_failed(report)))
        return Round(wall, outputs, [wall * 1e3 / outputs], rows)


def make_workload(name: str, seed: int, out_dir: Path):
    if name == AUDIT:
        return AuditWorkload(seed)
    return SweepWorkload(name, seed, out_dir)


class Checker:
    """Counts failed rows: a row fails its sanity check, differs from the
    reference row recorded at the seed commit (seed 0 only), or differs from
    the same row of the run's first round."""

    def __init__(self, workload: str, seed: int):
        self.reference = None
        if seed == 0:
            self.reference = json.loads(REFERENCE.read_text())["workloads"][workload]
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, rnd: Round) -> None:
        digests = [measure.row_digest(text) for text, _ in rnd.rows]
        if self.first is None:
            self.first = digests
        bad = [insane for _, insane in rnd.rows]
        for other in (self.first, self.reference):
            if other is not None:
                flags = measure.mismatched_rows(digests, other)
                bad = [a or b for a, b in zip(bad, flags)]
                self.failed += measure.missing_rows(digests, other)
        self.attempted += len(rnd.rows)
        self.failed += sum(bad)


def calibration_kernel() -> float:
    """Fixed interpreter-bound float arithmetic that does not touch dpgrowth.
    Of the kernels tried (small numpy operations, generator seeding, object
    creation, plain float code), this one slows down with the machine most
    nearly as the workloads do."""
    acc = 0.0
    for i in range(100_000):
        acc = acc * 0.999 + math.sqrt(i) - (i % 7)
        if acc > 1e6:
            acc = 0.0
    return acc


def calibrate() -> list:
    """A few timings of the calibration kernel."""
    samples = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - start)
    return samples


def speed_scale(before: list, after: list) -> float:
    """Factor that takes a time measured between two sets of kernel timings
    to the reference speed."""
    return 2.0 * CAL_REF_S / (statistics.median(before) + statistics.median(after))


def run_rounds(workload, checker: Checker, seconds: float, min_rounds: int) -> list:
    """Closed loop of rounds, each scaled by the kernel timings around it."""
    rounds = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        gc.collect()
        rnd = workload.run_round()
        after = calibrate()
        rnd.scale = speed_scale(before, after)
        before = after
        checker.check(rnd)
        rounds.append(rnd)
    return rounds


def setup_probe(name: str) -> tuple[float, float]:
    """Seconds to import dpgrowth, parse the workload's configs and build
    its first instances, in this (fresh) interpreter; and its scale."""
    before = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    workload = make_workload(name, 0, OUT_ROOT)
    workload.first_instances()
    elapsed = time.perf_counter() - start
    return elapsed, speed_scale(before, calibrate())


def measure_setup(name: str) -> list:
    """(set-up seconds, scale) from fresh interpreters: one warm-up, then
    the probes."""
    probes = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        if i > 0:
            probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_name = ref[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """Digest of the package sources, which names the code also where the
    checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dpgrowth").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "pins": {**THREAD_PINS, "jobs": JOBS},
    }


def end_to_end(rounds: list, setup_probes: list) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, with sample counts and the
    raw (unscaled) medians.

    Rounds repeat the same trials, so a trial's latency is its median over
    rounds, and the percentiles run over distinct trials; the ten-beyond
    rule counts distinct trials, not repeats of the same ones.
    """
    walls = [r.wall * r.scale for r in rounds]
    per_trial = [
        statistics.median(column)
        for column in zip(*([ms * r.scale for ms in r.trial_ms] for r in rounds))
    ]
    setups = [setup * scale for setup, scale in setup_probes]
    tail_label, tail_value = measure.tail(per_trial)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "trials_per_s": (statistics.median(r.trials / w for r, w in zip(rounds, walls)), "1/s"),
        "trial_ms_p50": (measure.percentile(per_trial, 50.0), "ms"),
        "trial_ms_p99": (tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_probes": len(setups),
        "rounds": len(rounds),
        "trials_per_round": rounds[0].trials,
        "distinct_trial_latencies": len(per_trial),
        "trial_ms_p99_percentile": tail_label,
    }
    raw = {
        "setup_s": statistics.median(setup for setup, _ in setup_probes),
        "wall_s": statistics.median(r.wall for r in rounds),
        "scale": statistics.median(r.scale for r in rounds),
    }
    return metrics, {"samples": samples, "raw": raw}


def traced(workload, checker: Checker, seconds: float, spans_path: str | None):
    """Alternate untraced and traced rounds, so that changes in machine speed
    touch both sides of the overhead ratio alike."""
    import tracer

    tr = tracer.Tracer()
    untraced, traced_rounds, per_round = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_rounds) < 2 or time.perf_counter() < deadline:
        gc.collect()
        untraced.append(workload.run_round())
        checker.check(untraced[-1])
        gc.collect()
        tr.install()
        try:
            rnd = workload.run_round()
        finally:
            tr.uninstall()
        per_round.append(tr.take())
        checker.check(rnd)
        traced_rounds.append(rnd)
    counts = per_round[0][1]
    self_s: dict = {}
    for spans, _ in per_round:
        for name, value in measure.self_times(spans).items():
            self_s[name] = self_s.get(name, 0.0) + value
    traced_wall = sum(r.wall for r in traced_rounds)
    overhead = statistics.median(r.wall for r in traced_rounds) / statistics.median(
        r.wall for r in untraced
    )
    metrics = tracer.layer_metrics(counts, self_s, traced_wall, len(per_round[0][0]), overhead)
    rounds = len(traced_rounds)
    details = {
        "samples": {"untraced_rounds": len(untraced), "traced_rounds": rounds},
        "counts_repeat": all(c == counts for _, c in per_round),
        "self_s_per_round": {k: v / rounds for k, v in sorted(self_s.items())},
    }
    if spans_path:
        with open(spans_path, "w") as fh:
            for name, start, end, parent, trial in per_round[-1][0]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
    return metrics, details


def record_reference(name: str) -> None:
    """Rewrite the workload's reference digests from one round at seed 0."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
    data["src_digest"] = src_digest()
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        rnd = make_workload(name, 0, Path(tmp)).run_round()
    data["workloads"][name] = [measure.row_digest(text) for text, _ in rnd.rows]
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="traced mode: write the last round's spans here as JSON lines")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference row digests at seed 0 for --workload")
    args = parser.parse_args(argv)

    if not (SRC / "dpgrowth" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no dpgrowth sources under {ROOT}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    OUT_ROOT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        record_reference(args.workload)
        return 0

    setup_probes = measure_setup(args.workload) if args.trace == 0 else []
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        workload = make_workload(args.workload, args.seed, out_dir)
        checker = Checker(args.workload, args.seed)
        checker.check(workload.run_round())  # warm-up, checked, not timed
        if args.trace == 0:
            rounds = run_rounds(workload, checker, args.seconds, MIN_ROUNDS)
            metrics, details = end_to_end(rounds, setup_probes)
        else:
            metrics, details = traced(workload, checker, args.seconds, args.spans)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        failed_frac=measure.frac(checker.failed, checker.attempted),
        reference_checked=checker.reference is not None,
        env=environment(),
    )
    print(json.dumps({"bench": details}, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
