"""posetkit benchmark: solve-then-verify jobs on seeded instances.

    python3 perfbench/run.py --workload sdr-tiny --seed 1 --seconds 35 --trace 0

A job is one solve plus one verify of its certificate.  Each workload is a
closed loop with one client and no threads: the next job starts when the
previous one has finished.  The jobs of a workload form a round, generated
from ``--seed`` and shuffled by it; the run repeats rounds for ``--seconds``,
cutting the last one short, and runs at least one whole round.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
``jobs_per_s`` is the jobs run divided by the time they took;
``job_ms_p50`` and ``job_ms_p90`` are percentiles over every job run.
``setup_s`` is the median of set-up samples, each a fresh import of the
package followed by a parse of every instance, taken between two jobs every
SETUP_EVERY_S seconds, so that they see the machine over the same stretch of
time as the jobs do; their time is left out of the jobs'.  Failed jobs are counted
in ``failed`` against ``attempted``.

With ``--trace 1`` the run alternates untraced and traced rounds (see
tracing.py) and reports the per-layer metrics, with counts per round; on
``cli-mixed`` it also times a batch of ``posetkit`` processes.  A per-layer
value reads 0 on a workload that never calls that function.  The last line
of stdout is one JSON object; the lines above it are for people.  The
package is imported from ``src/`` next to this directory, never from
site-packages.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_EVERY_S = 2.0
PROCESS_BATCH = 20

# Above the default caps of 20, so the exhaustive search runs on n = 28..44.
ABOVE_CAP_FLAGS = ["--oracle-cap", "48", "--subset-cap", "24"]
POSET_COMMANDS = ("width", "height", "chain-cover", "antichain-cover",
                  "check-dilworth", "check-mirsky")


@dataclass(frozen=True)
class Job:
    """One solve plus verify.  ``argv`` is the solve command without the
    instance path; ``expect_exit`` is what the solve should return, from gen's
    reference check where one applies."""

    instance: int
    argv: tuple[str, ...]
    expect_exit: int


@dataclass
class Workload:
    docs: list[dict]
    jobs: list[Job]
    flags: list[str]
    library: bool = False  # solve and verify through the library, not the CLI
    processes: bool = False  # the traced run also times posetkit processes


def sdr_tiny(rng: random.Random) -> Workload:
    """All 4,096 three-member families over four elements plus seeded
    families of 5-8 members over six elements, through the library."""
    docs = gen.all_three_member_families()
    docs += [gen.random_family(rng, 5 + i % 4, 6, 0.4) for i in range(400)]
    jobs = [Job(i, ("sdr",), 0 if gen.expects_match(d) else 1) for i, d in enumerate(docs)]
    return Workload(docs, jobs, [], library=True)


def above_cap(rng: random.Random) -> Workload:
    """Sparse posets with n = 28..44 under raised caps, where the exhaustive
    width search dominates; Hall-tight cycle bigraphs with |L| = 10..16.

    At edge probability 0.05, n stops at 36: the cost of a larger instance
    varies so much from one seed to the next that a few of them would decide
    a run's figures.  A round is about as long as a run, so that a run meets
    each poset about once and averages over as many of them as time allows."""
    docs, jobs = [], []
    for i in range(459):
        n, p = (28 + i // 2 % 9, 0.05) if i % 2 else (28 + i // 2 % 17, 0.1)
        docs.append(gen.random_poset(rng, n, p))
        jobs.append(Job(len(docs) - 1, ("chain-cover",), 0))
        if i % 3 == 0:
            jobs.append(Job(len(docs) - 1, ("antichain-cover",), 0))
    for i in range(21):
        docs.append(gen.cycle_bigraph(rng, 10 + i % 7))
        jobs.append(Job(len(docs) - 1, ("matching",), 0))
    return Workload(docs, jobs, ABOVE_CAP_FLAGS)


def cli_mixed(rng: random.Random) -> Workload:
    """Every subcommand below the default caps: random posets n = 10..20,
    standard examples S_3..S_10, chain products, bigraphs, families and
    m*n+1 sequences.  Sizes and densities step through fixed grids, so the
    seed draws only the edges, members and terms, and a run's cost depends
    little on it."""
    docs, jobs = [], []

    def add(doc: dict, *commands: tuple[str, ...], expect: int = 0) -> None:
        docs.append(doc)
        jobs.extend(Job(len(docs) - 1, cmd, expect) for cmd in commands)

    poset_jobs = [(c,) for c in POSET_COMMANDS]
    for i in range(20):
        p = (0.1, 0.15, 0.2)[i // 2 % 3] if i % 2 else (0.3, 0.4, 0.5)[i // 2 % 3]
        add(gen.random_poset(rng, 10 + i * 10 // 19, p), *poset_jobs)
    for k in range(3, 11):
        add(gen.standard_example(rng, k), *poset_jobs)
    for r, c in ((2, 5), (3, 4), (2, 8), (3, 6), (4, 5), (4, 4)):
        add(gen.chain_product(rng, r, c), *poset_jobs)
    for i in range(24):
        if i % 3 == 0:
            doc = gen.cycle_bigraph(rng, 4 + i // 3 % 7)
        else:
            nl = 4 + i % 5
            doc = gen.random_bigraph(rng, nl, nl + i % 4, (0.25, 0.35, 0.5)[i % 3])
        add(doc, ("matching",), expect=0 if gen.expects_match(doc) else 1)
    for i in range(24):
        doc = gen.random_family(rng, 4 + i % 5, 6 + i % 5, (0.25, 0.35, 0.45)[i % 3])
        add(doc, ("sdr",), expect=0 if gen.expects_match(doc) else 1)
    for i in range(24):
        m, n = ((3, 3), (4, 4), (3, 5), (5, 3), (2, 6), (6, 2), (4, 3), (3, 4))[i % 8]
        add(gen.es_sequence(rng, m, n), ("es", "-m", str(m), "-n", str(n)))
    return Workload(docs, jobs, [], processes=True)


WORKLOADS = {"sdr-tiny": sdr_tiny, "above-cap": above_cap, "cli-mixed": cli_mixed}


def import_posetkit():
    """Import the package afresh from ``src/``; returns (formats, hall, cli)."""
    for name in [m for m in sys.modules if m == "posetkit" or m.startswith("posetkit.")]:
        del sys.modules[name]
    importlib.import_module("posetkit")
    formats = importlib.import_module("posetkit.formats")
    hall = importlib.import_module("posetkit.hall")
    cli = importlib.import_module("posetkit.cli")
    if Path(formats.__file__).resolve().parent != SRC / "posetkit":
        raise SystemExit(f"perfbench: posetkit was imported from {formats.__file__}, not from src/")
    return formats, hall, cli


def setup(blobs: list[bytes]):
    """Import the package afresh and parse every instance once, from a
    collected heap.  Returns (seconds, modules, instances)."""
    gc.collect()
    t0 = time.perf_counter()
    modules = import_posetkit()
    instances = [modules[0].parse_instance(b) for b in blobs]
    return time.perf_counter() - t0, modules, instances


class SetupSampler:
    """Called between two jobs; takes a set-up sample once SETUP_EVERY_S
    seconds and then puts the package the jobs run against back in
    ``sys.modules``."""

    def __init__(self, blobs: list[bytes]):
        self.blobs = blobs
        self.times: list[float] = []
        self.spent = 0.0  # wall time of the samples, garbage collection included
        self.due = time.perf_counter()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        if t0 < self.due:
            return
        live = {k: v for k, v in sys.modules.items() if k == "posetkit" or k.startswith("posetkit.")}
        self.times.append(setup(self.blobs)[0])
        sys.modules.update(live)
        t1 = time.perf_counter()
        self.spent += t1 - t0
        self.due = t1 + SETUP_EVERY_S


class Runner:
    """Runs jobs against one import of the package.  Module attributes are
    looked up at call time, so a tracer's patches take effect."""

    def __init__(self, work: Workload, modules, instances, paths: list[str], cert_path: str):
        self.work = work
        self.formats, self.hall, self.cli = modules
        self.instances = instances
        self.paths, self.cert_path = paths, cert_path

    def argv(self, job: Job) -> list[str]:
        return self.work.flags + [job.argv[0], self.paths[job.instance], *job.argv[1:]]

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.run_command(argv)
        return code, out.getvalue()

    def job(self, job: Job) -> tuple[bool, str]:
        """Solve and verify; returns (passed, certificate text)."""
        if self.work.library:
            return self._library_sdr(job)
        code, cert = self._cli(self.argv(job))
        with open(self.cert_path, "w", encoding="utf-8") as fh:
            fh.write(cert)
        vcode, verdict = self._cli(self.work.flags + ["verify", self.paths[job.instance], self.cert_path])
        return code == job.expect_exit and vcode == 0 and '"valid": true' in verdict, cert

    def _library_sdr(self, job: Job) -> tuple[bool, str]:
        formats, hall = self.formats, self.hall
        inst = self.instances[job.instance]
        family = inst.data
        result = hall.find_sdr(family)
        ground = set().union(*family.values())
        checked = len(family) + len(ground) <= hall.DEFAULT_ORACLE_CAP
        cert = formats.sdr_certificate(result, minimality_checked=checked)
        text = formats.canonical_json(cert)
        ok, _detail = formats.verify_certificate(inst, formats.parse_certificate(text))
        found = 0 if "choice" in cert else 1
        return ok and found == job.expect_exit, text


def run_round(runner: Runner, jobs: list[Job], tracer: tracing.Tracer | None = None,
              between=None, deadline: float = math.inf):
    """One pass over the jobs, calling ``between()`` before each and starting
    none at or after ``deadline``; returns (latencies in s, digest, failures)."""
    digest = hashlib.sha256()
    latencies, failures = [], 0
    for i, job in enumerate(jobs):
        if time.perf_counter() >= deadline:
            break
        if between is not None:
            between()
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            ok, cert = runner.job(job)
        except Exception as e:  # a job that raises is a failed job, not a crashed run
            ok, cert = False, f"raised {type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - t0)
        if not ok:
            failures += 1
            print(f"FAILED job {i} {job}: {cert[:200]!r}", file=sys.stderr)
        digest.update(cert.encode("utf-8"))
    return latencies, digest.hexdigest(), failures


def measure(runner: Runner, jobs: list[Job], seconds: float, blobs: list[bytes]):
    """Rounds for ``seconds``, at least one whole, with set-up samples
    between jobs.  Returns (latency of every job run in s, seconds the jobs
    took without the samples, set-up samples in s, digests of the whole
    rounds, failures)."""
    sampler = SetupSampler(blobs)
    latencies, digests, failures = [], set(), 0
    start = time.perf_counter()
    deadline = math.inf
    while time.perf_counter() < deadline:
        lat, digest, failed = run_round(runner, jobs, between=sampler, deadline=deadline)
        latencies += lat
        failures += failed
        if len(lat) == len(jobs):
            digests.add(digest)
        deadline = start + seconds
    return latencies, time.perf_counter() - start - sampler.spent, sampler.times, digests, failures


def measure_traced(runner: Runner, jobs: list[Job], seconds: float, name: str, seed: int):
    """Alternate untraced and traced rounds, at least one pair, while
    another pair fits in ``seconds``.  Counts come from the set-up parse plus
    one traced round; self times are means over traced rounds.  Returns
    (per-layer values, rounds, digests, failures, counts repeat)."""
    tracer = tracing.Tracer()
    tracer.install(tracing.posetkit_modules())
    try:
        for inst_path in runner.paths:
            runner.formats.parse_instance(Path(inst_path).read_bytes())
    finally:
        tracer.remove()
    setup_spans = tracer.take()

    plain_time = traced_time = 0.0
    digests, failures, summaries, first = set(), 0, [], None
    start = time.perf_counter()
    while True:
        lat, digest, failed = run_round(runner, jobs)
        plain_time += sum(lat)
        digests.add(digest)
        failures += failed
        tracer.install(tracing.posetkit_modules())
        try:
            lat, digest, failed = run_round(runner, jobs, tracer)
        finally:
            tracer.remove()
        traced_time += sum(lat)
        digests.add(digest)
        failures += failed
        spans = tracer.take()
        summaries.append(tracing.summarize(spans))
        if first is None:
            first = spans
        pairs = len(summaries)
        if (time.perf_counter() - start) / pairs * (pairs + 1) > seconds:
            break

    OUT.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(OUT / f"trace-{name}-seed{seed}.jsonl.gz", setup_spans + first)

    values = tracing.summarize(setup_spans)
    for key in set().union(*summaries):
        if tracing.is_time(key):
            per_round = statistics.fmean(s.get(key, 0.0) for s in summaries)
        else:
            per_round = summaries[0].get(key, 0.0)
        values[key] = values.get(key, 0.0) + per_round
    values.update(tracing.derived(values))
    values["trace.overhead_ratio"] = plain_time / traced_time
    counts = [{k: v for k, v in s.items() if not tracing.is_time(k)} for s in summaries]
    return values, len(summaries), digests, failures, all(c == counts[0] for c in counts)


def process_batch(runner: Runner, jobs: list[Job]) -> tuple[float, bool]:
    """Median wall time of one ``posetkit`` process, over a sequential batch
    of solves spread through the round; returns (milliseconds, every process
    exited as expected and printed the in-process certificate)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ok = [], True
    for job in jobs[:: max(1, len(jobs) // PROCESS_BATCH)][:PROCESS_BATCH]:
        _, cert = runner.job(job)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "posetkit.cli", *runner.argv(job)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == job.expect_exit and proc.stdout == cert
    return statistics.median(times) * 1000.0, ok


def src_lines() -> dict[str, int]:
    """Non-blank source lines per module of the package, and their total."""
    counts = {}
    for path in sorted((SRC / "posetkit").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts[f"src.lines.{path.stem}"] = sum(1 for line in text.splitlines() if line.strip())
    counts["src.lines.total"] = sum(counts.values())
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "posetkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no posetkit source under {SRC}")
    sys.path.insert(0, str(SRC))

    rng = random.Random(args.seed)
    work = WORKLOADS[args.workload](rng)
    rng.shuffle(work.jobs)  # so that a round cut short runs a fair sample of the jobs
    blobs = [json.dumps(doc).encode("utf-8") for doc in work.docs]
    rundir = OUT / f"run-{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        paths = [str(rundir / f"instance-{i:04d}.json") for i in range(len(blobs))]
        for path, blob in zip(paths, blobs):
            Path(path).write_bytes(blob)
        _, modules, instances = setup(blobs)
        runner = Runner(work, modules, instances, paths, str(rundir / "certificate.json"))
        jobs = work.jobs

        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              f"instances={len(blobs)} jobs/round={len(jobs)}")
        if args.trace:
            values, rounds, digests, failures, counts_repeat = measure_traced(
                runner, jobs, args.seconds, args.workload, args.seed)
            process_ok = True
            if work.processes:
                values["cli.process_ms_p50"], process_ok = process_batch(runner, jobs)
            values.update(src_lines())
            attempted = 2 * rounds * len(jobs)
            correct = failures == 0 and len(digests) == 1 and counts_repeat and process_ok
            print(f"  traced rounds {rounds}, counts repeat across rounds: {counts_repeat}, "
                  f"processes as expected: {process_ok}")
            for key in sorted(values):
                print(f"  {key:48s} {values[key]:.6g}")
            wanted = spec["per_layer"]
        else:
            latencies, busy, setups, digests, failures = measure(runner, jobs, args.seconds, blobs)
            attempted = len(latencies)
            correct = failures == 0 and len(digests) == 1
            values = {
                "setup_s": statistics.median(setups),
                "jobs_per_s": attempted / busy,
                "job_ms_p50": statistics.median(latencies) * 1000.0,
                "job_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1000.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(f"  samples: {attempted} jobs, {attempted / len(jobs):.2f} rounds, in {busy:.2f} s, "
                  f"{len(setups)} set-ups; failed {failures} of {attempted}, "
                  f"fail_ratio {failures / attempted:g}")
            wanted = spec["end_to_end"]
        print(f"  certificates_sha256 {' '.join(sorted(digests))}")
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
        if not args.trace:
            for name, m in metrics.items():
                print(f"  {name:14s} {m['value']:.6g} {m['unit']}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
