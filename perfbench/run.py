#!/usr/bin/env python3
"""quadboson benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One closed-loop client: the process calls ``quadboson.cli.main(argv)``
in-process with stdout captured, one op after the other.  BLAS/OpenMP
threads are pinned to 1 before numpy is imported.  Each workload runs in
its own process (``--workload all`` starts one per workload, in turn).

``--trace 0`` reports the end-to-end metrics.  Set-up (import quadboson,
write the seeded fixtures, one untimed warm-up pass) is repeated SETUPS
times and its median reported.  After each set-up, whole passes over the
op list are timed, until ``--seconds`` of passes in all, at least
MIN_PASSES passes and MIN_TIMED_OPS ops.

``--trace 1`` reports the per-layer metrics.  After one set-up it
alternates untraced and traced passes for ``--seconds``; per-layer values
are per pass (counts from the first traced pass, times the median over
traced passes).  The spans of the last traced pass are written to
``.perfbench_out/``.

Every op's exit code and stdout are checked (reference.py) on the first
warm-up pass; every later run of the same op must give the same exit code
and the same stdout bytes.  The last stdout line is the result object; the
line before it records the seed, fixture digests, environment and failures.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 3
MIN_PASSES = 2
MIN_TIMED_OPS = 100

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)


class Outcome:
    """Ops attempted and failed in this run, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(fails[:2])


def fresh_cli():
    """Import quadboson from scratch (numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "quadboson" or m.startswith("quadboson.")]:
        del sys.modules[name]
    return importlib.import_module("quadboson.cli")


def call(cli, argv):
    """Run one op; returns (exit code, stdout, seconds, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises out of cli.main is a failed op
        rc = None
        failure = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return rc, out.getvalue(), perf_counter() - t0, failure


class Run:
    """State of one workload run: its ops, their first outputs, the outcome."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.outcome = Outcome()
        self.baseline = None   # per op: (exit code, sha256 of stdout)
        self.digests = None
        self.ops = None
        self.fixtures = None

    def setup(self):
        """Import, write fixtures, warm-up pass; returns (cli module, seconds)."""
        import workloads

        t0 = perf_counter()
        cli = fresh_cli()
        ops, fixtures = workloads.build(self.args.workload, self.args.seed,
                                        str(self.work / "forms"), self.args.size == "tiny")
        outputs = [call(cli, op.argv) for op in ops]
        seconds = perf_counter() - t0
        if self.baseline is None:
            self.ops, self.fixtures, self.digests = ops, fixtures, fixtures.digests()
            self._check_first(outputs)
        else:
            if fixtures.digests() != self.digests:
                self.outcome.record(["fixtures differ between set-ups of one seed"])
            self.compare(outputs)
        return cli, seconds

    def _check_first(self, outputs):
        from reference import Checker

        checker = Checker(self.fixtures)
        self.baseline = []
        for op, (rc, out, _, failure) in zip(self.ops, outputs):
            fails = [failure] if failure else checker.check(op, rc, out)
            self.outcome.record(fails)
            self.baseline.append((rc, hashlib.sha256(out.encode()).digest()))
        for i, op in enumerate(self.ops):
            twin = op.ref.get("twin")
            if twin is not None and self.baseline[i][1] != self.baseline[twin][1]:
                self.outcome.record([f"op {i}: stdout differs from its serial twin"])

    def compare(self, outputs):
        for i, (rc, out, _, failure) in enumerate(outputs):
            fails = [failure] if failure else []
            if not fails and (rc, hashlib.sha256(out.encode()).digest()) != self.baseline[i]:
                fails = [f"op {i} ({' '.join(self.ops[i].argv[:1])}): exit code or stdout "
                         "bytes differ from the first run of the same op"]
            self.outcome.record(fails)

    def timed_pass(self, cli, tracer=None):
        """One pass over the op list; returns (seconds, latencies, stdout bytes)."""
        outputs, lat = [], []
        for i, op in enumerate(self.ops):
            if tracer:
                tracer.begin_op(i)
            result = call(cli, op.argv)
            if tracer:
                tracer.end_op()
            outputs.append(result)
            lat.append(result[2])
        self.compare(outputs)
        return sum(lat), lat, sum(len(r[1].encode()) for r in outputs)

    def known_defects(self, cli):
        """Check failures of the workload's known-defect ops (untimed)."""
        import workloads
        from reference import Checker

        fx = workloads.Fixtures(str(self.work / "defects"), 0)
        checker = Checker(fx)
        found = []
        for op in workloads.known_defect_ops(self.args.workload, fx):
            rc, out, _, failure = call(cli, op.argv)
            found += [failure] if failure else checker.check(op, rc, out)[:1]
        return found


def measure(args, work: Path):
    run = Run(args, work)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "trace": args.trace}
    if args.trace:
        metrics, cli = measure_traced(run, args, record)
    else:
        metrics, cli = measure_plain(run, args, record)
    if args.size == "full":
        record["known_defects"] = run.known_defects(cli)
    record["fixtures_sha256"] = run.digests
    record["environment"] = environment(args.seed)
    record["failures"] = run.outcome.messages
    out = run.outcome
    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    return result, record


def measure_plain(run, args, record):
    """Set-ups and timed passes interleave, so the timed passes spread over
    the whole run instead of its last ``--seconds``."""
    setups, walls, lat = [], [], []
    timed = 0.0
    for k in range(SETUPS):
        cli, seconds = run.setup()
        setups.append(seconds)
        last = k == SETUPS - 1
        while (timed < args.seconds * (k + 1) / SETUPS
               or (last and (len(walls) < MIN_PASSES or len(lat) < MIN_TIMED_OPS))):
            wall, pass_lat, _ = run.timed_pass(cli)
            timed += wall
            walls.append(wall)
            lat.extend(pass_lat)
    out = run.outcome
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - out.failed / out.attempted,
    }
    record.update(setups_s=setups, passes_s=walls, ops_per_pass=len(run.ops),
                  timed_ops=len(lat))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}, cli


def measure_traced(run, args, record):
    from tracer import METRICS, Tracer

    cli, _ = run.setup()
    tracer = Tracer()
    plain, traced, snaps = [], [], []
    out_bytes = 0
    t0 = perf_counter()
    while perf_counter() - t0 < args.seconds or len(traced) < MIN_PASSES:
        wall, _, out_bytes = run.timed_pass(cli)
        plain.append(wall)
        tracer.install()
        try:
            tracer.reset()
            wall, _, _ = run.timed_pass(cli, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        snaps.append(tracer.snapshot())
    units = {name: unit for name, unit, _ in METRICS}
    values = dict(snaps[0])
    for name in snaps[0]:
        if units[name] == "s":
            values[name] = statistics.median(s[name] for s in snaps)
        elif any(s[name] != snaps[0][name] for s in snaps):
            record.setdefault("count_drift", []).append(name)
    values["cli.out_bytes"] = out_bytes
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    spans_dir = ROOT / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    record.update(untraced_passes_s=plain, traced_passes_s=traced,
                  ops_per_pass=len(run.ops), spans=str(spans_path.relative_to(ROOT)))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}, cli


def environment(seed):
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "quadboson").glob("*.py")))).hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_all(args):
    """Each workload in its own process, in turn; a table, then one result."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            print(f"{name:14s} {metric:32s} {v['value']:>16.6g} {v['unit']}")
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze-mix", "sweep-grid", "evolve-trace",
                                 "oracle-fock", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small ops per workload, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "quadboson" / "__init__.py").is_file():
        print(f"error: no quadboson sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
