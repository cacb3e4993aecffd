#!/usr/bin/env python3
"""Campaign benchmark: Table 1/4/5 campaigns timed end to end, or traced per layer.

    python3 campaign-bench/run.py --workload table4_cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  The script builds the `campaign-bench`
package (release, into `$CARGO_TARGET_DIR`, default `.bench_build`), runs
campaigns of the named workload, each in a fresh process, checks every
rendered table, and prints one JSON object as its last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`verdicts_per_s`,
`cpu_s`, `setup_s`, `peak_rss_mb`; the times scaled to the host's reference
speed, measured by a fixed calibration loop timed between the campaigns);
with `--trace 1` they are the per-layer ones from a separate traced replay
of the run's first campaigns.  `--pin`
recomputes the pinned digests in `digests.json` instead of measuring.  See
README.md for the workloads, the metrics and the noise findings behind this
design.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "campaign-bench-work"
PINS = HERE / "digests.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# Seed offsets: a seed's campaigns use SEED * 2**20 + i (the classification's
# per-mode offsets, +100 000 per mode, stay inside one seed's block), and
# the fixed corpus uses CORPUS + i, a block no seed reaches.
SEED_STRIDE = 1 << 20
MAX_SEED = 1 << 40
CORPUS = 1 << 61
# Campaigns a traced run replays: the first three of the timed run's
# plan, that is the seed's own campaign and the first two corpus campaigns
# (180 Table 4 jobs, so job_p90_ms has 18 samples beyond it).
TRACE_CAMPAIGNS = 3
# Corpus campaigns with pinned digests (offsets CORPUS + 0 .. 23): every
# corpus campaign a cold run can reach.
CORPUS_PINNED = 24
# Corpus campaigns a warm run replays besides the seed's own, each from a
# store of its own.
WARM_CORPUS = 3
# A traced run makes passes over its campaigns until --seconds pass, and at
# least this many, so that counts can be compared between passes.
MIN_PASSES = 2

# Per workload: whether each campaign draws fresh kernels in an empty store
# (cold) or replays a filled store (warm), and the nominal seconds of one
# campaign on the reference machine.  A run is ceil(seconds / nominal_s)
# campaigns, so its inputs depend only on --seed and --seconds, never on how
# fast the machine happens to be.  A cold run is the seed's own campaign and
# then the fixed corpus; a warm run replays the seed's own campaign and
# WARM_CORPUS corpus campaigns in turn (see README.md: per-kernel cost is so
# heavy-tailed that one campaign's cost varies 4x (Table 4) to 16x (Table 5)
# from seed to seed, and even a 720-kernel Table 1 campaign's by 12%).  A
# campaign reports the jobs its shard executor ran; `jobs` mirrors the
# campaign sizes in src/main.rs and only counts the jobs of a campaign whose
# process died before reporting.
WORKLOADS = {
    "table4_cold": {"cold": True, "nominal_s": 1.25, "jobs": 60},
    "table5_emi": {"cold": True, "nominal_s": 1.4, "jobs": 2},
    "table1_warm": {"cold": False, "nominal_s": 1.5, "jobs": 720},
}

# Environment variables that would change what a campaign does or where
# it caches; campaigns run without them.
SCRUBBED_ENV = (
    "FUZZ_THREADS",
    "FUZZ_PIPELINE",
    "CLC_INTERP_TIER",
    "CLFUZZ_STORE",
    "CLFUZZ_STORE_CAP",
    "CLFUZZ_FAULTS",
)
# Stop starting campaigns this long after the build, and kill a campaign
# still running at RUN_DEADLINE_S, so a run always ends within 180 s.
RUN_BUDGET_S = 140
RUN_DEADLINE_S = 170

END_TO_END = {
    "verdicts_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Other tenants of the shared host slow every campaign by as much as 60% for
# minutes at a time (see README.md, "Noise findings").  A fixed loop of
# allocations, dictionary updates and scattered reads, timed here between
# the campaigns, slows with them, so the end-to-end times are scaled to the
# host speed at which one calibration takes CALIBRATION_REFERENCE_S.  The
# loop runs in this process, not in the program under test, so no change to
# the program can move it.
CALIBRATION_REFERENCE_S = 0.08

CRATES = (
    "clc",
    "clc-analyze",
    "clc-interp",
    "clsmith",
    "opencl-sim",
    "fuzz-harness",
    "clreduce",
    "parboil-rodinia",
    "bench",
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def offset(seed, index):
    return seed * SEED_STRIDE + index


def calibrate():
    """Seconds one fixed calibration loop takes on the host right now, after
    the previous campaign's files are written back."""
    os.sync()
    start = time.perf_counter()
    x = 88172645463325252
    table, kept = {}, [None] * 2048
    scattered = list(range(1 << 18))
    total = 0  # only the reads matter; the sum is never used
    for i in range(60000):
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        kept[x & 2047] = [i] * (x >> 58)
        table[(x >> 12) % 50000] = i
        total += scattered[(x >> 20) & 0x3FFFF]
    return time.perf_counter() - start


def build():
    """Builds the benchmark binary; exits non-zero (printing no result) on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = HERE / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: building the benchmark failed: {e}")
        sys.exit(1)
    binary = target / "release" / "campaign-bench"
    if done.returncode != 0 or not binary.is_file():
        log("error: building the benchmark failed")
        sys.exit(1)
    return binary


def campaign_env():
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    return env


class Runner:
    def __init__(self, binary, workload, deadline):
        self.binary = binary
        self.workload = workload
        self.deadline = deadline
        self.env = campaign_env()
        self.build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
        self.reps = WORK / "reps" / str(os.getpid())

    def campaign(self, seed_offset, directory, trace=False, workers=1):
        """Runs one campaign in a fresh process; returns its JSON object with
        `cpu_s` added, or None if the process failed."""
        directory.mkdir(parents=True, exist_ok=True)
        cmd = [
            str(self.binary),
            "--workload", self.workload,
            "--seed", str(seed_offset),
            "--dir", str(directory),
            "--workers", str(workers),
        ] + (["--trace"] if trace else [])
        # Write back the previous campaign's store, journal and deleted
        # directories first: pending writeback made set-up (a mkdir and a
        # directory scan) up to 8x slower in a quarter to half of the
        # campaigns.
        os.sync()
        with open(directory / "stdout", "wb") as out, open(directory / "stderr", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                # wait4 gives the child's own CPU time, not the wrapper's.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (directory / "stderr").read_text(errors="replace")[-400:]
            log(f"campaign {self.workload} offset {seed_offset} exited {proc.returncode}: {tail}")
            return None
        lines = (directory / "stdout").read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            log(f"campaign {self.workload} offset {seed_offset} printed no result")
            return None
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["offset"] = seed_offset
        return result

    def fresh_dir(self, name):
        directory = self.reps / name
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        return directory

    def warm_dir(self, seed_offset):
        """The filled store for `seed_offset`, filled by this build in a
        separate process if it is not yet.  Stores are keyed by the hash of
        the binary that filled them, so another build's store is never
        read.  Returns (directory, cold digest) or (None, None) if the fill
        failed."""
        directory = WORK / "warm" / self.build_id / str(seed_offset)
        marker = directory / "filled.json"
        if marker.is_file():
            return directory, json.loads(marker.read_text())["digest"]
        shutil.rmtree(directory, ignore_errors=True)
        log(f"filling the warm store for offset {seed_offset} ...")
        fill = self.campaign(seed_offset, directory, workers=2)
        if fill is None or fill["store_hits"] or not fill["store_writes"] or fill["shape_error"]:
            log(f"warm store fill for offset {seed_offset} failed: {fill}")
            return None, None
        tmp = directory / "filled.json.tmp"
        tmp.write_text(json.dumps({"digest": fill["digest"], "build": self.build_id}))
        tmp.replace(marker)
        # Write the filled store back now, not during the timed replays.
        os.sync()
        return directory, fill["digest"]

    def run(self, seed_offset, slot, trace=False):
        """One measured campaign; returns (result or None, problems)."""
        problems = []
        expected = None
        if WORKLOADS[self.workload]["cold"]:
            directory = self.fresh_dir(slot)
        else:
            directory, expected = self.warm_dir(seed_offset)
            if directory is None:
                return None, ["warm store fill failed"]
        result = self.campaign(seed_offset, directory, trace=trace)
        if result is None:
            return None, ["campaign process failed"]
        problems += check(self.workload, result, expected)
        return result, problems


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def check(workload, result, warm_digest):
    """Output checks every campaign must pass."""
    problems = []
    if result["shape_error"]:
        problems.append(result["shape_error"])
    pinned = load_pins().get(workload, {}).get(str(result["offset"]))
    if pinned is not None and result["digest"] != pinned:
        problems.append(f"digest {result['digest']} != pinned {pinned}")
    if pinned is None and result["offset"] >= CORPUS:
        problems.append(f"corpus campaign {result['offset']} has no pinned digest")
    if workload == "table1_warm":
        if result["digest"] != warm_digest:
            problems.append(f"warm digest {result['digest']} != cold fill {warm_digest}")
        if result["launches"] or result["store_misses"] or result["store_writes"]:
            problems.append("warm replay launched kernels or missed the store")
    else:
        # No store is read cold; Table 5's only shared-cache hits are a
        # live base's unpruned variant reusing its liveness probe's launch
        # (at most one per base).
        shared_cap = 0 if workload == "table4_cold" else result["jobs"]
        if result["store_hits"] or result["shared_hits"] > shared_cap:
            problems.append("cold campaign was served by the store or the shared cache")
    return problems


def plan(workload, seed, seconds):
    """The seed offsets of a run's campaigns, in order."""
    count = max(2, math.ceil(seconds / WORKLOADS[workload]["nominal_s"]))
    if not WORKLOADS[workload]["cold"]:
        campaigns = [offset(seed, 0)] + [CORPUS + i for i in range(WARM_CORPUS)]
        return [campaigns[i % len(campaigns)] for i in range(count)]
    return [offset(seed, 0)] + [CORPUS + i for i in range(min(count, CORPUS_PINNED) - 1)]


def fill_stores(runner, offsets):
    """Fills the warm stores of `offsets` before the clock starts."""
    if not WORKLOADS[runner.workload]["cold"]:
        for seed_offset in dict.fromkeys(offsets):
            runner.warm_dir(seed_offset)


def trace_set(workload, seed, seconds):
    """The distinct campaigns a traced run replays: the first ones of the
    untraced run's plan, so the split covers the work that run times."""
    return list(dict.fromkeys(plan(workload, seed, seconds)[:TRACE_CAMPAIGNS]))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, result, problems, jobs):
        self.attempted += jobs
        if result is None or problems:
            self.failed += jobs
            self.problems += problems or ["campaign failed"]


def jobs_of(result, workload):
    return result["jobs"] if result is not None else WORKLOADS[workload]["jobs"]


def end_to_end(runner, seed, seconds, tally, started):
    """The run's campaigns, each in a fresh process, with a calibration
    before the first and after each."""
    workload = runner.workload
    offsets = plan(workload, seed, seconds)
    fill_stores(runner, offsets)
    samples, calibrations = {}, [calibrate()]
    for seed_offset in offsets:
        if time.monotonic() - started > RUN_BUDGET_S:
            log("run budget exhausted; reporting the campaigns run so far")
            break
        result, problems = runner.run(seed_offset, "rep")
        tally.record(result, problems, jobs_of(result, workload))
        if result is None:
            return None
        calibrations.append(calibrate())
        log(f"{workload} offset {seed_offset}: {result['wall_s']:.4f} s wall, "
            f"{result['cpu_s']:.4f} s cpu, calibration {calibrations[-1]:.4f} s, "
            f"digest {result['digest']}")
        samples.setdefault(seed_offset, []).append(result)
    # A campaign's time is its median over its repetitions (the warm
    # replays); the rate is the verdicts of the distinct campaigns over their
    # summed times, and CPU time is the mean over them.  `slowdown` is how
    # much slower than the reference the host ran the calibrations.
    median = lambda key, results: statistics.median(r[key] for r in results)
    walls = [median("wall_s", results) for results in samples.values()]
    cpus = [median("cpu_s", results) for results in samples.values()]
    everything = [r for results in samples.values() for r in results]
    slowdown = statistics.mean(calibrations) / CALIBRATION_REFERENCE_S
    values = {
        "verdicts_per_s": sum(results[0]["verdicts"] for results in samples.values())
        / sum(walls) * slowdown,
        "cpu_s": sum(cpus) / len(cpus) / slowdown,
        "setup_s": median("setup_s", everything) / slowdown,
        "peak_rss_mb": median("peak_rss_kib", everything) / 1024,
    }
    return {name: (value, END_TO_END[name]) for name, value in values.items()}


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered))))
    return ordered[rank - 1]


def ratio(num, den):
    return num / den if den else 0.0


COUNTS = ("requests", "launches", "memo_hits", "shared_hits", "store_hits",
          "store_misses", "store_writes", "store_bytes", "journal_bytes", "jobs")


def layer_metrics(traced, untraced, failed):
    """Per-layer metrics of one pass over the trace set: traced and untraced
    results of the same campaigns, and the traced jobs that failed a check."""
    total = {}
    for result in traced:
        for key, value in result["layers"].items():
            total[key] = total.get(key, 0.0) + value
    count = {key: sum(r[key] for r in traced) for key in COUNTS}
    jobs = [ms for r in traced for ms in r["job_ms"]]
    wall = total.get("trace.wall_s", 0.0)
    overhead = total.get("trace.overhead_s", 0.0)
    unattributed = total.get("fuzz-harness.unattributed_s", 0.0)
    hits = count["memo_hits"] + count["shared_hits"] + count["store_hits"]
    untraced_wall = sum(r["wall_s"] for r in untraced)
    t = lambda key: max(0.0, total.get(key, 0.0))
    metrics = {
        "clsmith.generate_s": (t("clsmith.generate_s"), "s"),
        "clsmith.programs": (t("clsmith.programs"), "count"),
        "clsmith.prune_s": (t("clsmith.prune_s"), "s"),
        "clc.fingerprint_s": (t("clc.fingerprint_s"), "s"),
        "opencl-sim.front_s": (t("opencl-sim.front_s"), "s"),
        "opencl-sim.front_calls": (t("opencl-sim.front_calls"), "count"),
        "opencl-sim.decided_share": (ratio(t("opencl-sim.decided"), t("opencl-sim.front_calls")), "ratio"),
        "opencl-sim.requests": (count["requests"], "count"),
        "opencl-sim.memo_hits": (count["memo_hits"], "count"),
        "opencl-sim.shared_hits": (count["shared_hits"], "count"),
        "opencl-sim.store_hits": (count["store_hits"], "count"),
        "opencl-sim.store_misses": (count["store_misses"], "count"),
        "opencl-sim.store_writes": (count["store_writes"], "count"),
        "opencl-sim.store_bytes": (count["store_bytes"], "bytes"),
        "opencl-sim.outcome_hit_rate": (ratio(hits, hits + count["launches"]), "ratio"),
        "opencl-sim.lookup_s": (t("opencl-sim.lookup_s"), "s"),
        "clc-interp.launches": (count["launches"], "count"),
        "clc-interp.launch_s": (t("clc-interp.launch_s"), "s"),
        "clc-interp.ms_per_launch": (ratio(1e3 * t("clc-interp.launch_s"), t("clc-interp.launch_spans")), "ms"),
        "fuzz-harness.jobs": (count["jobs"], "count"),
        "fuzz-harness.jobs_failed": (failed, "count"),
        "fuzz-harness.judge_s": (t("fuzz-harness.judge_s"), "s"),
        "fuzz-harness.stage_s": (t("fuzz-harness.stage_s"), "s"),
        "fuzz-harness.unattributed_s": (unattributed, "s"),
        "fuzz-harness.journal_bytes": (count["journal_bytes"], "bytes"),
        "fuzz-harness.probe_s": (t("fuzz-harness.probe_s"), "s"),
        "fuzz-harness.probes": (t("fuzz-harness.probed"), "count"),
        "fuzz-harness.live_yield": (ratio(t("fuzz-harness.live"), t("fuzz-harness.probed")), "ratio"),
        "fuzz-harness.job_p50_ms": (percentile(jobs, 0.5) if jobs else 0.0, "ms"),
        "fuzz-harness.job_p90_ms": (percentile(jobs, 0.9) if jobs else 0.0, "ms"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (ratio(wall, untraced_wall) - 1.0, "ratio"),
        "trace.coverage": (ratio(wall - overhead - unattributed, wall - overhead), "ratio"),
        "trace.launch_share": (ratio(t("clc-interp.launch_s"), wall - overhead), "ratio"),
    }
    return metrics, tuple(count[k] for k in COUNTS) + (
        t("opencl-sim.front_calls"), t("opencl-sim.decided"), t("clsmith.programs"))


def source_lines():
    """Non-blank lines under each crates/*/src, by package name."""
    lines = dict.fromkeys(CRATES, 0)
    for manifest in sorted((ROOT / "crates").glob("*/Cargo.toml")):
        name = next((l.split('"')[1] for l in manifest.read_text().splitlines()
                     if l.startswith("name")), manifest.parent.name)
        for path in (manifest.parent / "src").rglob("*.rs"):
            count = sum(1 for l in path.read_text(errors="replace").splitlines() if l.strip())
            lines[name] = lines.get(name, 0) + count
    return {f"{name}.loc": (lines.get(name, 0), "lines") for name in CRATES}


def per_layer(runner, seed, seconds, tally, started):
    """Passes over the trace set (each campaign untraced, then traced) until
    another pass would end after `seconds`; counts must repeat exactly
    across passes, times are medians over passes."""
    workload = runner.workload
    offsets = trace_set(workload, seed, seconds)
    fill_stores(runner, offsets)
    passes, counts, digests_match, calibrations = [], set(), True, []
    clock = time.monotonic()
    while True:
        traced, untraced, failed = [], [], 0
        for seed_offset in offsets:
            calibrations.append(calibrate())
            plain, problems = runner.run(seed_offset, "rep")
            tally.record(plain, problems, jobs_of(plain, workload))
            result, problems = runner.run(seed_offset, "rep", trace=True)
            tally.record(result, problems, jobs_of(result, workload))
            if plain is None or result is None:
                return None
            failed += result["jobs"] if problems else 0
            digests_match &= result["digest"] == plain["digest"]
            traced.append(result)
            untraced.append(plain)
        metrics, key = layer_metrics(traced, untraced, failed)
        passes.append(metrics)
        counts.add(key)
        log(f"{workload} trace pass {len(passes)}: coverage "
            f"{metrics['trace.coverage'][0]:.3f}, overhead {metrics['trace.overhead_share'][0]:.2f}")
        elapsed = time.monotonic() - clock
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        if time.monotonic() - started > RUN_BUDGET_S:
            log("run budget exhausted; reporting the passes run so far")
            break
    merged = {}
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        merged[name] = (statistics.median(values), unit)
    merged["host.calibration_ms"] = (1e3 * statistics.mean(calibrations), "ms")
    merged.update(source_lines())
    if not digests_match:
        tally.problems.append("traced replay changed the table")
    if len(counts) != 1:
        tally.problems.append("counts differ between passes over the same campaigns")
    return merged


def pin(runner):
    """Recomputes the pinned digests: the default and held-out seeds' own
    campaigns and every corpus campaign a run can reach."""
    workload = runner.workload
    corpus = CORPUS_PINNED if WORKLOADS[workload]["cold"] else WARM_CORPUS
    offsets = [offset(DEFAULT_SEED, 0), offset(HELD_OUT_SEED, 0)]
    offsets += [CORPUS + i for i in range(corpus)]
    table = {}
    for seed_offset in offsets:
        if WORKLOADS[workload]["cold"]:
            result = runner.campaign(seed_offset, runner.fresh_dir("pin"))
        else:
            directory, _ = runner.warm_dir(seed_offset)
            result = runner.campaign(seed_offset, directory) if directory else None
        if result is None or result["shape_error"]:
            log(f"pinning offset {seed_offset} failed")
            sys.exit(1)
        table[str(seed_offset)] = result["digest"]
        log(f"pinned {workload} offset {seed_offset}: {result['digest']}")
    pins = load_pins()
    pins[workload] = table
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the digests of the corpus campaigns and of the default "
                             "and held-out seeds' own campaigns, then exit")
    args = parser.parse_args()
    if not 0 <= args.seed < MAX_SEED:
        parser.error("--seed must be in [0, 2**40)")
    binary = build()
    started = time.monotonic()
    # Pinning runs far more campaigns than a measured run; give it an hour.
    runner = Runner(binary, args.workload, started + (3600 if args.pin else RUN_DEADLINE_S))
    try:
        if args.pin:
            pin(runner)
            return
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seed, args.seconds, tally, started)
        if metrics is None:
            tally.problems.append("no campaign completed")
            metrics = {}
    finally:
        shutil.rmtree(runner.reps, ignore_errors=True)
    for problem in tally.problems:
        log(f"check failed: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
