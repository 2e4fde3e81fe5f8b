"""End-to-end and per-layer benchmark of the braidcensus command line.

Run from the root of a checkout:

    python3 bench/run.py --workload census-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Every repetition is a fresh interpreter (``bench/child.py``) that imports
``braidcensus.cli`` from ``src/`` and calls ``cli.main(argv)`` for each
command of the workload, so the census and Smith-normal-form caches start
cold as they do for a user.  Repetitions are repeated until ``--seconds``
would be exceeded; ``wall_s`` and ``cpu_s`` are the mean over repetitions,
``peak_rss_mb`` and ``setup_s`` the median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one traced
repetition, which wraps public functions at module boundaries and reports
per-layer times and counts; the traced spans are written under
``bench/out/``.  Every command's exit status and stdout digest are checked
against ``bench/expected.json``, recorded at the seed commit.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/WORKLOADS.md``.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
OUT = os.path.join(HERE, "out")

# Set-up-only interpreters started per untraced run, in addition to one set-up
# sample per repetition, so that setup_s is a median of several samples
# even on the longest workload.
SETUP_PROBES = 4
# A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0

_CENSUS_POINTS = [
    "cli.main",
    "cli.census",
    "census.from_sigma1_alpha",
    "census.centralizer_generators",
    "Permutation.__mul__",
    "Permutation.__init__",
]
_COHOMOLOGY_BASES = (
    [("standard", n) for n in range(5, 10)]
    + [("fivesix", 6), ("exceptional6", 6)]
    + [("cyclic", n) for n in range(2, 7)]
)
_MODULI = (0, 2, 3, 4, 5, 6, 8, 12)


def _census(k, n):
    return ["census", str(k), str(n), "--workers", "1"]


# name -> (commands, patch points that must fire in the traced repetition)
WORKLOADS = {
    "census-scan": ([_census(6, 9)], _CENSUS_POINTS),
    "census-grid": ([_census(k, 8) for k in (4, 6, 7, 8)], _CENSUS_POINTS),
    "bprime": (
        [["census-bprime", "5", "6"], ["census-bprime", "6", "6"]],
        [
            "cli.main",
            "commutator.commutator_census",
            "commutator.centralizer_generators",
            "Permutation.__mul__",
            "Permutation.__init__",
        ],
    ),
    "cohomology": (
        [
            ["cohomology", base, str(n), str(r)]
            for base, n in _COHOMOLOGY_BASES
            for r in _MODULI
        ],
        [
            "cli.main",
            "cohomology.h1_invariants",
            "cohomology.smith_normal_form",
            "Permutation.__mul__",
            "Permutation.__init__",
        ],
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot produce a result (not a wrong program output)."""


class Clock:
    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds

    def elapsed(self):
        return time.monotonic() - self.start

    def remaining_hard(self):
        return HARD_LIMIT_S - self.elapsed()


def spawn(commands, clock, trace=False, required=()):
    """Run one repetition in a fresh interpreter and return its record,
    with ``elapsed`` (whole child, set-up included) added."""
    timeout = clock.remaining_hard()
    if timeout <= 0:
        raise BenchError("out of time before starting a repetition")
    spec = {
        "src": SRC,
        "commands": commands,
        "trace": trace,
        "required": list(required),
    }
    spec["t0"] = t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition did not finish within %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("a repetition exited with status %d" % proc.returncode)
    record = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    record["elapsed"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    return record


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def check_commands(records, expected):
    """Return (attempted, failed): a command fails when it exits nonzero or
    when its exit status, stdout digest or class count differs from the
    recorded one."""
    attempted = failed = 0
    for record in records:
        for entry in record["commands"]:
            attempted += 1
            want = expected.get(" ".join(entry["argv"]))
            ok = (
                want is not None
                and entry["exit"] == 0
                and entry["exit"] == want["exit"]
                and entry["sha256"] == want["sha256"]
                and entry.get("classes") == want.get("classes")
            )
            if not ok:
                failed += 1
                print("mismatch: %s" % " ".join(entry["argv"]), file=sys.stderr)
    return attempted, failed


def command_order(name, seed):
    commands = [list(c) for c in WORKLOADS[name][0]]
    random.Random(seed).shuffle(commands)
    return commands


def measure(commands, clock, trace):
    """Set-up probes (untraced runs only, which report setup_s), then
    untraced repetitions (at least one) while the next one is expected to
    end within the run's seconds.  A traced run leaves room for its traced
    repetition, which takes up to about 1.3 times as long as an untraced
    one."""
    probes = [spawn([], clock) for _ in range(0 if trace else SETUP_PROBES)]
    reps = []
    follow = 1.3 if trace else 0.0
    while True:
        reps.append(spawn(commands, clock))
        typical = statistics.median(r["elapsed"] for r in reps)
        if clock.elapsed() + typical * (1.0 + follow) > clock.seconds:
            return probes, reps


def end_to_end(probes, reps):
    """Times are means: a run holds only 2 to 14 repetitions, and the host's
    CPU speed switches between phases lasting seconds, so a median of so few
    picks one phase where a mean averages them (it spread less in 11 of 14
    sets of ten runs)."""
    med = statistics.median
    mean = statistics.fmean
    return {
        "wall_s": mean(r["wall_s"] for r in reps),
        "cpu_s": mean(r["cpu_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "setup_s": med(r["setup_s"] for r in probes + reps),
    }


def layer_times(spans):
    """Per span name: (calls, total seconds, self seconds).  Self time is a
    span's duration minus the durations of its direct child spans; calls
    are synchronous, so children nest inside their parent."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, parent, start, end) in enumerate(spans):
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (calls + 1, total + dur, self_s + dur - child[i])
    return out


def per_layer(trace, traced_wall, untraced_wall):
    layers = layer_times(trace["spans"])
    counts = trace["counts"]

    def t(name):
        return layers.get(name, (0, 0.0, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    hom_calls = t("homs.from_sigma1_alpha")[0]
    h1_calls = t("cohomology.h1_invariants")[0]
    snf_calls = t("cohomology.smith_normal_form")[0]
    values = {
        "census.census_s": (t("census.census")[1], "s"),
        "census.census_self_s": (t("census.census")[2], "s"),
        "census.census_calls": (t("census.census")[0], "count"),
        "homs.from_sigma1_alpha_s": (t("homs.from_sigma1_alpha")[1], "s"),
        "homs.from_sigma1_alpha_calls": (hom_calls, "count"),
        "homs.accept_ratio": (
            ratio(trace["accepted"]["homs.from_sigma1_alpha"], hom_calls),
            "ratio",
        ),
        "perm.mul_calls": (counts["perm.mul"], "count"),
        "perm.init_calls": (counts["perm.init"], "count"),
        "perm.centralizer_generators_calls": (
            counts["perm.centralizer_generators"],
            "count",
        ),
        "commutator.commutator_census_s": (t("commutator.commutator_census")[1], "s"),
        "commutator.commutator_census_self_s": (
            t("commutator.commutator_census")[2],
            "s",
        ),
        "cohomology.h1_invariants_s": (t("cohomology.h1_invariants")[1], "s"),
        "cohomology.h1_invariants_self_s": (t("cohomology.h1_invariants")[2], "s"),
        "cohomology.h1_invariants_calls": (h1_calls, "count"),
        "cohomology.smith_normal_form_s": (t("cohomology.smith_normal_form")[1], "s"),
        "cohomology.smith_normal_form_calls": (snf_calls, "count"),
        "cohomology.snf_per_h1": (ratio(snf_calls, h1_calls), "ratio"),
        "cli.main_self_s": (t("cli.main")[2], "s"),
        "trace_overhead_ratio": (ratio(traced_wall, untraced_wall), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(name, seed, seconds, trace):
    """Measure one workload; return (run record, metrics, attempted, failed)."""
    clock = Clock(seconds)
    commands = command_order(name, seed)
    load_before = os.getloadavg()
    probes, reps = measure(commands, clock, trace)
    records = list(reps)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload_order": [name],
        "command_order": [" ".join(c) for c in commands],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "loadavg_before": load_before,
        "repetitions": len(reps),
        "setup_samples_s": [r["setup_s"] for r in probes + reps],
        "wall_samples_s": [r["wall_s"] for r in reps],
        "cpu_samples_s": [r["cpu_s"] for r in reps],
        "peak_rss_samples_mb": [r["peak_rss_mb"] for r in reps],
    }
    if trace:
        required = WORKLOADS[name][1]
        traced = spawn(commands, clock, trace=True, required=required)
        records.append(traced)
        if traced["trace"]["unfired"]:
            raise BenchError(
                "traced repetition of %s never reached: %s"
                % (name, ", ".join(traced["trace"]["unfired"]))
            )
        untraced_wall = statistics.median(r["wall_s"] for r in reps)
        metrics = per_layer(traced["trace"], traced["wall_s"], untraced_wall)
        record["traced_wall_s"] = traced["wall_s"]
        record["trace_file"] = write_trace(name, seed, record, traced["trace"])
    else:
        values = end_to_end(probes, reps)
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()
        }
    attempted, failed = check_commands(records, load_expected())
    record["loadavg_after"] = os.getloadavg()
    record["attempted"] = attempted
    record["failed"] = failed
    return record, metrics, attempted, failed


def write_trace(name, seed, record, trace):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"run": record, "trace": trace}, fh)
    return os.path.relpath(path, ROOT)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS) + ["all"], required=True
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "braidcensus", "cli.py")):
        print("no braidcensus sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args)
        record, metrics, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"run": record}))
    print_result(attempted, failed, metrics)
    return 0


def print_result(attempted, failed, metrics):
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload once, untraced, in an order drawn from the seed; one
    line per workload with every end-to-end metric and failed_frac."""
    order = sorted(WORKLOADS)
    random.Random(args.seed).shuffle(order)
    total_attempted = total_failed = 0
    metrics = {}
    for name in order:
        record, values, attempted, failed = run_workload(
            name, args.seed, args.seconds, False
        )
        record["workload_order"] = order
        print(json.dumps({"run": record}))
        total_attempted += attempted
        total_failed += failed
        cells = ["%-12s" % name]
        for key, m in values.items():
            cells.append("%s %.4f %s" % (key, m["value"], m["unit"]))
            metrics["%s.%s" % (name, key)] = m
        cells.append("failed_frac %.4f (%d/%d)" % (failed / attempted, failed, attempted))
        metrics["%s.failed_frac" % name] = {"value": failed / attempted, "unit": "ratio"}
        print("  ".join(cells))
    print_result(total_attempted, total_failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
