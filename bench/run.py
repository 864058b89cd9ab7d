"""Run one odebench workload for a while and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Operations run one at a time (closed loop) until S seconds have passed,
always at least one.  Each operation is one ``experiments.run_study`` call,
the function ``odebench infer`` calls, writing results.csv and artifacts to
bench/out/.  After each operation the outputs are checked against an
independent truth (see checks.py).

--trace 0 prints the end-to-end metrics: setup_s, the median of several
set-ups in fresh interpreters; infer_s, the mean operation wall time; and
peak_rss_mb, the peak resident memory of this process plus that of its pool
workers.  The two times are rescaled to the machine's nominal speed, read
from a fixed reference computation timed before and after each of them
(see reference_seconds); the raw times go to standard error.  --trace 1 runs rounds of an untraced operation, the same operation
traced, and, for a pooled workload, the same replicates run serially; it
prints the per-layer metrics (see metrics.py) and checks that tracing and
the pool leave results.csv byte-identical.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check passed,
1 when one failed, and 2 when the benchmark cannot run at all.
"""

import time

T_START = time.monotonic()  # before numpy and odebench are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import cho_factor, cho_solve  # noqa: E402
from scipy.special import kv  # noqa: E402

import tracing  # noqa: E402
from checks import NOISE_MULTIPLE, RunChecker, theta_ess_min  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    at_nominal_speed,
    median_by_key,
    per_layer,
    result_line,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# The reference time rescaled timings are expressed at: a round figure near
# reference_seconds() on the machine in README.md's record.
REFERENCE_NOMINAL_S = 0.2


def fmt(values: list[float]) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


def log(msg: str) -> None:
    print(f"[bench +{time.monotonic() - T_START:6.1f}s] {msg}", file=sys.stderr, flush=True)


def machine_record() -> str:
    """Cores, BLAS build and thread setting, and numba: what the timings depend on."""
    import importlib.util

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset (one per core)")
    numba = "present" if importlib.util.find_spec("numba") else "absent"
    return (f"cores {len(os.sched_getaffinity(0))}, BLAS {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS {threads}, numba {numba}")


def reference_seconds(reps: int = 400) -> float:
    """Wall time of a fixed computation in the program's mix of work.

    A Python loop drives small LAPACK calls, a Bessel evaluation, a small
    tanh network pass and scalar Python arithmetic, as the GP fits, the
    sampler and the PINN do.  It is the benchmark's own code, so a change to
    the program does not change it; a change in the machine's speed does.
    """
    t = np.linspace(0.0, 6.0, 21)
    r = np.abs(t[:, None] - t[None, :]) + 0.05
    eye = np.eye(t.size)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((321, 20))
    w = rng.standard_normal((20, 20)) / 5.0
    q = rng.standard_normal(489)
    t0 = time.perf_counter()
    for _ in range(reps):
        k = kv(2.01, r) * r ** 2.01
        cho_solve(cho_factor(k @ k.T + eye, lower=True), eye)
        a = x
        for _ in range(3):
            a = np.tanh(a @ w)
        acc = 0.0
        for i in range(q.size):
            acc += q[i] * q[(7 * i) % q.size]
    return time.perf_counter() - t0


def run_op(wl, regime, seed: int, op_index: int, out_dir: str, jobs: int):
    """One run_study call into a fresh directory; (wall seconds, StudyResult)."""
    from odebench import experiments

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    result = experiments.run_study(
        regime, [(wl.method, dict(wl.options))], replicates=wl.replicates, base_seed=seed,
        parallelism=jobs, out_dir=out_dir, forecast=wl.forecast, save_artifacts=True,
        first_replicate=op_index * wl.replicates)
    return time.perf_counter() - t0, result


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def manifest_walls(out_dir: str) -> list[float]:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return [manifest[k]["wall_time_s"] for k in sorted(manifest, key=lambda k: int(k.rsplit("|", 1)[1]))
            if "wall_time_s" in manifest[k]]


def setup_probes(wl_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, one after another,
    and the reference times around them."""
    out, refs = [], [reference_seconds()]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), wl_name, str(seed), repr(t0)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
        refs.append(reference_seconds())
    return out, refs


def peak_rss_mb(jobs: int) -> float:
    """This process's peak RSS plus ``jobs`` times the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * workers) / 1024.0


class Run:
    def __init__(self, wl, seed: int, seconds: float):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.dir = os.path.join(OUT, f"{wl.name}-s{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.regime = None
        self.checker = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fit_ratios: dict[str, list[float]] = {}  # out_dir -> per replicate

    def start(self, regime) -> None:
        self.regime = regime
        self.checker = RunChecker(regime, self.wl.method, self.wl.forecast)

    def op(self, k: int, suffix: str = "", jobs: int | None = None, tracer=None):
        """Run and check operation k; returns (seconds, out_dir).

        With a tracer, the run_study call runs under the traced wrappers
        inside a root span ``experiments.run_study``; the checks do not.
        """
        out_dir = os.path.join(self.dir, f"op{k}{suffix}")
        jobs = self.wl.jobs if jobs is None else jobs
        if tracer is None:
            secs, result = run_op(self.wl, self.regime, self.seed, k, out_dir, jobs)
        else:
            undo = tracing.install(tracer)
            try:
                with tracer.span("experiments.run_study"):
                    secs, result = run_op(self.wl, self.regime, self.seed, k, out_dir, jobs)
            finally:
                tracing.uninstall(undo)
        self.attempted += result.attempted
        self.failed += result.failed
        if result.attempted != self.wl.replicates:
            self.problems.append(f"op{k}{suffix}: attempted {result.attempted} "
                                 f"of {self.wl.replicates} replicates")
        problems, ratios = self.checker.check(out_dir, self.wl.replicates_of(k))
        self.problems += [f"op{k}{suffix}: {p}" for p in problems]
        self.fit_ratios[out_dir] = ratios
        log(f"op{k}{suffix}: {secs:.2f}s, {result.attempted} attempted, {result.failed} failed")
        for rep, ratio in zip(self.wl.replicates_of(k), ratios):
            if ratio > NOISE_MULTIPLE:
                log(f"NOTE op{k}{suffix}: rep {rep}: posterior mean off the truth by "
                    f"{ratio:.2f} x noise sd at the observation times")
        return secs, out_dir

    def same_results(self, a: str, b: str, what: str) -> None:
        if read_bytes(os.path.join(a, "results.csv")) != read_bytes(os.path.join(b, "results.csv")):
            self.problems.append(f"{what}: results.csv differs between {a} and {b}")

    def keep_going(self, t_begin: float, k: int) -> bool:
        return k == 0 or time.perf_counter() - t_begin < self.seconds

    def untraced(self) -> dict[str, float]:
        self.start(self.wl.setup(self.seed))
        log("set-up done")
        times, refs = [], [reference_seconds()]
        t_begin = time.perf_counter()
        k = 0
        while self.keep_going(t_begin, k):
            secs, _ = self.op(k)
            times.append(secs)
            refs.append(reference_seconds())
            k += 1
        rss = peak_rss_mb(self.wl.jobs)
        setups, setup_refs = setup_probes(self.wl.name, self.seed)
        log(f"operations {fmt(times)} s, references {fmt(refs)} s")
        log(f"set-ups {fmt(setups)} s, references {fmt(setup_refs)} s")
        return {"setup_s": statistics.median(at_nominal_speed(setups, setup_refs, REFERENCE_NOMINAL_S)),
                "infer_s": statistics.mean(at_nominal_speed(times, refs, REFERENCE_NOMINAL_S)),
                "peak_rss_mb": rss}

    def traced(self) -> dict[str, float]:
        tracer = tracing.Tracer(dump_dir=os.path.join(self.dir, "spans"))
        os.makedirs(tracer.dump_dir)
        undo = tracing.install(tracer)
        try:
            regime = self.wl.setup(self.seed)
        finally:
            tracing.uninstall(undo)
        self.start(regime)
        setup_spans = list(tracer.spans)
        rounds = []
        t_begin = time.perf_counter()
        k = 0
        while self.keep_going(t_begin, k):
            # Traced first: the first operation in a process is the slowest,
            # so the tracing overhead is, if anything, overstated.
            tracer.spans = []
            _, traced_dir = self.op(k, "-traced", tracer=tracer)
            root = tracer.spans[-1]
            spans = setup_spans + tracer.spans + tracer.collect()
            plain_s, plain_dir = self.op(k)
            self.same_results(plain_dir, traced_dir, "tracing")
            slowdown = []
            if self.wl.jobs > 1:
                _, serial_dir = self.op(k, "-serial", jobs=1)
                self.same_results(plain_dir, serial_dir, f"--jobs {self.wl.jobs} vs serial")
                slowdown = [p / s for p, s in zip(manifest_walls(plain_dir),
                                                  manifest_walls(serial_dir))]
            ess = (theta_ess_min(plain_dir, self.regime, self.wl.replicates_of(k))
                   if self.wl.method == "magi" else [])
            rounds.append(per_layer(
                spans, root, infer_untraced_s=plain_s,
                epochs_per_train=int(self.wl.options.get("epochs", 0)), ess_min=ess,
                run_s=manifest_walls(plain_dir), slowdown=slowdown,
                fit_ratio=self.fit_ratios[plain_dir]))
            k += 1
        return median_by_key(rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "odebench")):
        print(f"no odebench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    log(machine_record())
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.trace:
        values, units = run.traced(), PER_LAYER
    else:
        values, units = run.untraced(), END_TO_END
    for problem in run.problems:
        log(f"CHECK FAILED {problem}")
    correct = not run.problems
    print(json.dumps(result_line(correct, run.attempted, run.failed, values, units)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
