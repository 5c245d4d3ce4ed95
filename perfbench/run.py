"""Spatialyze benchmark: warm S-Flow workflow latency, answer F1 and
per-layer traces.

    python3 perfbench/run.py --workload track_all_opts --seed 0 --seconds 10 --trace 0

Run from the repository root. The benchmark puts ``src/`` on the path of
the driver and of Spark's Python workers itself, so the package need not
be installed. One client runs workflows in a closed loop (the next starts
when the previous one has returned) against one ``local[4]`` Spark
session. A workflow is ``World.from_dataset`` -> ``filter`` ->
``save_videos`` -> a pandas snippet manifest; the queries of a workload run
in whole passes.

Set-up (charged to ``setup_s``): Spark session start, dataset generation
from ``--seed`` and one warm-up pass over a small slice of the dataset.
After set-up the perfect-perception oracle is computed (not charged), then
passes run until ``--seconds`` have elapsed. ``spark.catalog.clearCache()``
runs after every workflow, after the persisted RDDs it left were read.

Checks: every workflow must return exactly the answer that the first run
of the same code on the same seed returned (kept under ``.perfbench_tmp``),
and a snippet manifest must be well formed. In the traced run the traced
answers must equal the untraced ones, and every operator of each
workflow's plan must have produced a span. A failed check counts the
workflow in ``failed`` and makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see ``tracing.py``); ratios are 0 when their
base is 0. The traced run also reports the persisted RDDs a workflow
leaves behind and the peak memory of the driver and the JVM up to the end
of its first untraced pass: the JVM's resident size follows the timing of
its heap growth, too unsteady from run to run for an end-to-end bound. The line before the result is a JSON report with the Spark
configuration, the samples and the tail percentile used.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_TMP = ROOT / ".perfbench_tmp"

MASTER = "local[4]"
SPARK_CONF = {
    "spark.driver.memory": "2g",
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
DETECTOR_SEED = 0  # World's default detector-noise seed
# The warm-up pass runs the workload's queries on the first scene's first
# frames. That warms the JIT, the code-generation cache and the Python
# workers as well as a full pass does (the next full pass runs at warm
# speed), and on track_all_opts it takes about 35 s where a cold full pass
# takes about 50 s on a 4-core box.
WARMUP_SCENES, WARMUP_FRAMES = 1, 8
# Every workflow here costs 30-50 Spark jobs at about half a second each
# on a 4-core box, whatever the scale, so a run affords one warm-up and
# one timed pass. This scale keeps two wrong-way scenes (every third
# scene) in the data, which Q3 looks for.
N_SCENES, N_FRAMES = 6, 32
ALL_OPTS = frozenset({"rvp", "otp", "geom3d", "efs"})


@dataclass(frozen=True)
class Workload:
    queries: tuple[str, ...]
    optimizations: frozenset[str]


WORKLOADS = {
    # Q3 under S6: RVP (lane), OTP and G3D (cars) and EFS (vehicles only)
    # all fire, and the tracker runs on what they leave.
    "track_all_opts": Workload(("Q3",), ALL_OPTS),
    # Q7 under SB: no optimization fires, the depth estimator locates every
    # detection and no tracker runs. The control for optimization changes.
    "frame_no_opts": Workload(("Q7",), frozenset()),
}


@dataclass
class Sample:
    query: str
    seconds: float
    jobs: int
    cached_rdds: int
    modeled_ms: float
    answer: tuple
    frames: set


@dataclass
class State:
    """Reference answers and failed workflows.

    The reference for a (dataset, query) pair is the answer digest of the
    first run of this code on this seed, kept in ``store`` inside the
    checkout, so every later run, in this process or another, must
    reproduce it exactly.
    """

    store: Path
    reference: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.store.exists():
            self.reference = json.loads(self.store.read_text())

    def check(self, key: str, what: str, s: Sample, problems: list[str]) -> None:
        """Count one workflow; it fails on any problem or a changed answer."""
        self.attempted += 1
        digest = hashlib.sha256(repr(s.answer).encode()).hexdigest()
        if digest != self.reference.setdefault(f"{key}:{s.query}", digest):
            problems = problems + ["answer differs from the first run"]
        if problems:
            self.failures.append(f"{what} {s.query}: {'; '.join(problems)}")

    def save(self) -> None:
        self.store.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.store.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.reference))
        tmp.replace(self.store)


def answer_store(workload: str, seed: int) -> Path:
    """Reference-answer file keyed by workload, seed and the source code."""
    h = hashlib.sha256()
    for f in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]):
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return BENCH_TMP / "answers" / f"{workload}-{seed}-{h.hexdigest()[:16]}.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------- Spark
def start_spark(tmp: Path):
    """Start the session with every scratch file inside ``tmp``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = str(tmp)
    from pyspark.sql import SparkSession

    b = SparkSession.builder.master(MASTER).appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    b = b.config("spark.local.dir", str(tmp)).config(
        "spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def peak_rss_mb(spark) -> float:
    """Peak resident memory of this process plus the Spark JVM."""
    py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    jvm_kb = 0
    pid = spark.sparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                jvm_kb = int(line.split()[1])
    return (py_kb + jvm_kb) / 1024.0


# ---------------------------------------------------------------- workflows
def answer_of(df) -> tuple:
    """Order-independent fingerprint of a pandas result."""
    return tuple(df.columns), tuple(sorted(df.itertuples(index=False, name=None)))


def manifest_ok(m, ds) -> bool:
    videos = set(ds.cameras["video_id"])
    return bool(
        m["video_id"].isin(videos).all()
        and (m["start_frame"] <= m["end_frame"]).all()
        and (m["end_frame"] - m["start_frame"] + 1 == m["n_frames"]).all()
    )


def run_workflow(spark, ds, wl: Workload, q: str, what: str, n: int) -> tuple[Sample, list[str]]:
    """Run one workflow; returns its sample and the problems found."""
    from repro.core.queries import query
    from repro.core.sflow import World

    from oracle import manifest_frames

    sc = spark.sparkContext
    gid = f"{what}-{n}-{q}"
    sc.setJobGroup(gid, f"{what} {q}")
    t0 = time.perf_counter()
    w = World.from_dataset(spark, ds, optimizations=wl.optimizations)
    w.filter(query(q))
    manifest, cost = w.save_videos()
    seconds = time.perf_counter() - t0
    jobs = len(sc.statusTracker().getJobIdsForGroup(gid))
    cached = sc._jsc.sc().getPersistentRDDs().size()
    spark.catalog.clearCache()
    s = Sample(q, seconds, jobs, cached, cost.total_ms, answer_of(manifest),
               manifest_frames(manifest))
    problems = [] if manifest_ok(manifest, ds) else ["malformed snippet manifest"]
    return s, problems


def run_pass(spark, ds, wl, state, what, key="main") -> list[Sample]:
    out = []
    for q in wl.queries:
        s, problems = run_workflow(spark, ds, wl, q, what, state.attempted)
        state.check(key, what, s, problems)
        out.append(s)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples above it, or the maximum when there are too few samples."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return 100.0, v[-1]
    return 100.0 * (n - 10) / n, v[n - 11]


def pooled_f1(samples: list[Sample], oracle: dict) -> float:
    from oracle import f1

    got = {(s.query, *fr) for s in samples for fr in s.frames}
    want = {(q, *fr) for q in {s.query for s in samples} for fr in oracle[q]}
    return f1(got, want)


# ---------------------------------------------------------------- runs
def measure(spark, ds, wl, args, state, report) -> dict:
    from repro.core.queries import query

    from oracle import oracle_frames

    t = time.perf_counter()
    oracle = oracle_frames(spark, ds, {q: query(q) for q in wl.queries}, DETECTOR_SEED)
    report["oracle_s"] = time.perf_counter() - t
    report["oracle_frames"] = {q: len(v) for q, v in oracle.items()}

    samples: list[Sample] = []
    deadline = time.perf_counter() + args.seconds
    while not samples or time.perf_counter() < deadline:
        samples += run_pass(spark, ds, wl, state, "timed")
    lat = [s.seconds for s in samples]
    pct, tail_s = tail(lat)
    n_videos = len(ds.video_ids)
    report.update(
        tail_percentile=pct,
        n=len(lat),
        samples=[{"query": s.query, "s": s.seconds, "jobs": s.jobs,
                  "cached_rdds": s.cached_rdds, "frames_matched": len(s.frames)}
                 for s in samples],
        f1_by_query={q: pooled_f1([s for s in samples if s.query == q], oracle)
                     for q in wl.queries},
    )
    return {
        "workflow_s_p50": (statistics.median(lat), "s"),
        "workflow_s_tail": (tail_s, "s"),
        "frames_per_s": (ds.n_frames * len(lat) / sum(lat), "1/s"),
        "modeled_s_per_video": (
            statistics.fmean(s.modeled_ms for s in samples) / 1000.0 / n_videos, "s"),
        "answer_f1": (pooled_f1(samples, oracle), "ratio"),
        "spark_jobs_per_workflow": (statistics.fmean(s.jobs for s in samples), "count"),
    }


def trace(spark, ds, wl, args, state, report) -> dict:
    from tracing import Tracer, required_layers

    from repro.core.planner import plan_workflow
    from repro.core.queries import query

    tracer = Tracer(spark, integrate_rows_in=len(ds.road.df) + len(ds.cameras) + len(ds.gt))
    overheads, per_layer, cached = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not overheads or time.perf_counter() < deadline:
        plain = run_pass(spark, ds, wl, state, "untraced")
        if not overheads:
            rss = peak_rss_mb(spark)  # before any traced pass adds its caches
        tracer.reset()
        traced = []
        with tracer.installed():
            for q in wl.queries:
                first = len(tracer.spans)
                s, problems = run_workflow(spark, ds, wl, q, "traced", state.attempted)
                ops = plan_workflow(query(q), optimizations=wl.optimizations).operators
                missing = required_layers(ops) - {sp.layer for sp in tracer.spans[first:]}
                if missing:
                    problems.append(f"no span for {sorted(missing)}")
                state.check("main", "traced", s, problems)
                traced.append(s)
        overheads.append(sum(s.seconds for s in traced) - sum(s.seconds for s in plain))
        cached += [s.cached_rdds for s in plain]
        per_layer.append(tracer.metrics())
    report.update(n=len(overheads), overheads_s=overheads)
    out = {
        name: (statistics.fmean(m[name][0] for m in per_layer), unit)
        for name, (_, unit) in per_layer[0].items()
    }
    out["spark.cached_rdds_after"] = (statistics.fmean(cached), "count")
    out["peak_rss_mb"] = (rss, "MB")
    out["trace.overhead_s"] = (statistics.median(overheads), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no Spatialyze sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    tmp = BENCH_TMP / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark(tmp)
        from pyspark import __version__ as pyspark_version

        from repro.world.datasets import nuscenes_lite

        ds = nuscenes_lite(N_SCENES, seed=args.seed, n_frames=N_FRAMES)
        state = State(answer_store(args.workload, args.seed))
        warm = nuscenes_lite(WARMUP_SCENES, seed=args.seed, n_frames=WARMUP_FRAMES)
        run_pass(spark, warm, wl, state, "warmup", key="warmup")
        setup_s = time.perf_counter() - t0
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "master": MASTER,
            "spark_conf": SPARK_CONF,
            "pyspark": pyspark_version,
            "dataset": {"name": "nuscenes_lite", "n_scenes": N_SCENES,
                        "n_frames": N_FRAMES, "seed": args.seed},
        }
        if args.trace:
            metrics = trace(spark, ds, wl, args, state, report)
        else:
            metrics = measure(spark, ds, wl, args, state, report)
            metrics["setup_s"] = (setup_s, "s")
        report["failures"] = state.failures
        state.save()
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))
    for f in state.failures:
        print(f"perfbench: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not state.failures,
        "attempted": state.attempted,
        "failed": len(state.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
