"""hopla benchmark: a closed loop with one client, one process, no threads.

    python3 perfbench/run.py --workload residual --seed 3 --seconds 30 --trace 0

Set-up imports hopla from `src/` of this checkout, generates the workload's
seeded `hopla-algebra/1` documents and writes them under `.bench_work/`, and
loads the expected outputs.  The run then repeats the workload's fixed job
list, round after round, until `--seconds` have passed; each job goes
through `hopla.cli.main(argv)` with its output captured, or through the
public circle-calculus API.  Every output is checked (see `checks.py`).

The host's speed drifts by up to 1.5x over tens of seconds (other tenants
share its cores; CPU time tracks wall time, so it is not scheduling).  So
every job is preceded by `probe()`, a fixed piece of pure-Python work that
calls nothing in hopla, and each round's times are scaled by the reference
probe time over that round's median probe time.  Times are therefore in
reference seconds: what the run would take on this host when it runs the
probe in `REFERENCE_PROBE_S`.  The raw median round time is printed too.

`wall_s` is the median over the rounds of the whole job list's time.
`job_p50_ms` / `job_p90_ms` are percentiles over every job run in every
round; every list has at least 100 jobs, so ten or more lie beyond p90 in
each round alone.  Set-up runs several times, spread over the run, each time
scaled by probes taken just before it, and `setup_s` is the median.  The
garbage a set-up leaves is collected before the next round starts.

`--trace 1` alternates untraced and traced rounds instead and reports the
per-layer metrics of `tracer.py` for one round, with the tracing overhead as
traced minus untraced `wall_s`; the spans go to `.bench_trace/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every output was correct, 1 when one was not, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

MODULES = ("cli", "coalgebra", "docio", "drivers", "equations", "functors",
           "graded", "permutations", "verify")
DEFAULT_SEED = 1
SETUPS = 5
PROBE_LETTERS = 6
PROBE_WINDOW = 5
PROBES_PER_SETUP = 9
# The probe's time on the reference host (2 vCPUs, Python 3.11.7, host idle).
REFERENCE_PROBE_S = 0.0007
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def loaded_hopla() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "hopla" or n.startswith("hopla.")}


def import_hopla():
    """A fresh import of every hopla module, as a namespace."""
    for name in loaded_hopla():
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module("hopla." + m) for m in MODULES})


def load_expected(workload: str) -> dict:
    path = HERE / "expected" / f"{workload}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def probe() -> float:
    """Seconds taken by fixed pure-Python work of the kind hopla's sign
    kernels do: sorting every permutation of six letters by adjacent swaps.
    It calls nothing in hopla, so only the host's speed moves it."""
    start = perf_counter()
    for perm in itertools.permutations(range(PROBE_LETTERS)):
        line = list(perm)
        for value in range(PROBE_LETTERS - 1, 0, -1):
            pos = line.index(value)
            while pos < value:
                line[pos], line[pos + 1] = line[pos + 1], line[pos]
                pos += 1
    return perf_counter() - start


def speed(probes) -> float:
    """Factor that turns this host's seconds into reference seconds."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def local_speeds(probes) -> list:
    """The speed factor at each job, from the probes of its neighbours: the
    host's speed changes within a round, and one probe alone is jittery."""
    reach = PROBE_WINDOW // 2
    return [speed(probes[max(0, i - reach):i + reach + 1]) for i in range(len(probes))]


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and write the documents, load the expected outputs."""
    workdir.mkdir(parents=True)
    start = perf_counter()
    h = import_hopla()
    inputs = Inputs(workload, seed, workdir, h)
    expected = load_expected(workload)
    return perf_counter() - start, h, inputs, expected


def timed_setup(workload: str, seed: int, workdir: Path) -> float:
    """One more set-up, timed in reference seconds and discarded; the run
    keeps its own modules."""
    saved = loaded_hopla()
    try:
        factor = speed([probe() for _ in range(PROBES_PER_SETUP)])
        return setup(workload, seed, workdir)[0] * factor
    finally:
        for name in loaded_hopla():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()   # not inside the next job


def run_job(h, inputs, job):
    """Run one job; returns (seconds, exit code, stdout, result)."""
    out, err = io.StringIO(), io.StringIO()
    result = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                code = h.cli.main(job.argv)
            else:
                function, key = job.call
                result = getattr(h.equations, function)(*inputs.objects[key])
                code = 0
    except (Exception, SystemExit) as exc:  # a crash is a wrong output, not a stop
        code = f"exception {type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue(), result


class Run:
    """The rounds of one run and the correctness of every job output."""

    def __init__(self, h, inputs, expected, check_expected: bool):
        self.h = h
        self.inputs = inputs
        self.expected = expected if check_expected else None
        self.first = None        # records of the first round
        # traced? -> per round, each job's time in reference seconds
        self.times = {False: [], True: []}
        self.raw_walls = []      # untraced rounds in this host's seconds
        self.speeds = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.passed = 0

    def round(self, tracer=None) -> float:
        """Every job once, each after one probe of the host's speed; returns
        the round's time in this host's seconds."""
        times, probes, records, results = [], [], [], []
        for index, job in enumerate(self.inputs.jobs):
            probes.append(probe())
            if tracer is not None:
                tracer.request = index
            seconds, code, stdout, result = run_job(self.h, self.inputs, job)
            if tracer is not None:
                tracer.end_request()
            times.append(seconds)
            if isinstance(code, str):
                records.append({"exit": code})
            else:
                records.append(checks.make_record(self.h, job, code, stdout, result))
            results.append(result)
        factors = local_speeds(probes)
        self.times[tracer is not None].append([t * f for t, f in zip(times, factors)])
        if tracer is None:
            self.raw_walls.append(sum(times))
            self.speeds.append(speed(probes))
        self._judge(records, results)
        return sum(times) + sum(probes)

    def _judge(self, records, results):
        jobs = self.inputs.jobs
        if self.first is None:
            wrong = [self._first_problems(job, rec, res)
                     for job, rec, res in zip(jobs, records, results)]
            self.first = records
            self.passed = sum(1 for r in records if r.get("exit") == 0)
        else:
            wrong = [[] if rec == first else ["output differs from the first round"]
                     for rec, first in zip(records, self.first)]
        for job, problems in zip(jobs, wrong):
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems]

    def _first_problems(self, job, record, result):
        if isinstance(record.get("exit"), str):
            return [record["exit"]]
        problems = checks.verify(self.h, job, record)
        if job.call is not None and job.call[0] == "circle_bracket":
            f, g = self.inputs.objects[job.call[1]]
            problem = checks.antisymmetry_problem(self.h, f, g, result)
            if problem:
                problems.append(problem)
        if self.expected is not None and self.expected.get(job.name) != record:
            problems.append("output differs from the expected output at the default seed")
        return problems


def wall(rounds) -> float:
    """The median over the rounds of the whole job list's time."""
    return statistics.median(sum(times) for times in rounds)


def end_to_end(run, setups) -> dict:
    rounds = run.times[False]
    latencies = [t for times in rounds for t in times]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall(rounds),
        "job_p50_ms": 1000 * cuts[4],
        "job_p90_ms": 1000 * cuts[8],
        "peak_rss_mb": rss_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run, layer_rounds, spans_per_round) -> dict:
    """Counts from the first traced round (they repeat exactly), times as
    the median over the traced rounds."""
    values = {}
    for name, unit in tracing.METRICS:
        samples = [stats.get(name, 0) for stats in layer_rounds]
        values[name] = samples[0] if unit != "s" else statistics.median(samples)
    values["trace.overhead_s"] = wall(run.times[True]) - wall(run.times[False])
    values["trace.spans"] = spans_per_round
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.METRICS}


def describe(inputs, run) -> dict:
    """Size descriptors of the workload as generated at this seed."""
    sizes = [job.sizes for job in inputs.jobs]
    docs = inputs.documents.values()
    entries = 0
    for text in docs:
        entries += sum(len(op["entries"]) for op in json.loads(text)["operations"])
    return {
        "jobs": len(inputs.jobs),
        "dims": sorted({s["dim"] for s in sizes if "dim" in s}),
        "arities": sorted({a for s in sizes for a in s.get("arities", ())}),
        "caps": sorted({s["cap"] for s in sizes if "cap" in s}),
        "documents": len(inputs.documents),
        "table_entries": entries,
        "document_bytes": sum(len(t) for t in docs),
        "exit0_share": round(run.passed / len(inputs.jobs), 3),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def measure(args, workdir: Path) -> int:
    factor = speed([probe() for _ in range(PROBES_PER_SETUP)])
    setup_s, h, inputs, expected = setup(args.workload, args.seed, workdir / "run")
    setups = [setup_s * factor]
    gc.collect()
    run = Run(h, inputs, expected, check_expected=args.seed == DEFAULT_SEED)
    tracer = tracing.Tracer() if args.trace else None
    layer_rounds, spans_per_round = [], 0
    deadline = perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(run.times[False]) > len(run.times[True])
        if traced:
            tracer.install()
            spans_before = len(tracer.spans)
            try:
                took = run.round(tracer)
            finally:
                tracer.uninstall()
            layer_rounds.append(tracer.take_round())
            spans_per_round = len(tracer.spans) - spans_before
        else:
            took = run.round()
        if len(setups) < SETUPS:
            extra = perf_counter()
            setups.append(timed_setup(args.workload, args.seed, workdir / f"setup{len(setups)}"))
            deadline += perf_counter() - extra
        # stop before a round (a traced run: an untraced and a traced round)
        # that would end past the deadline
        if tracer is None or traced:
            if perf_counter() + took * (2 if traced else 1) > deadline:
                break
    while len(setups) < SETUPS:
        setups.append(timed_setup(args.workload, args.seed, workdir / f"setup{len(setups)}"))

    if tracer is None:
        metrics = end_to_end(run, setups)
    else:
        metrics = per_layer(run, layer_rounds, spans_per_round)
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")

    rounds = len(run.times[False]) + len(run.times[True])
    print(f"workload {args.workload}, seed {args.seed}: {len(inputs.jobs)} jobs x "
          f"{rounds} rounds")
    print("sizes " + json.dumps(describe(inputs, run)))
    for problem in run.problems[:20]:
        print("WRONG " + problem)
    print(f"failed_frac {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted})")
    print(f"host: untraced rounds took {statistics.median(run.raw_walls):.4g} s here "
          f"(median), at {1 / statistics.median(run.speeds):.3f}x the reference probe time")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def record_expected(args, workdir: Path) -> int:
    """Write the expected outputs of every job at the default seed."""
    if args.seed != DEFAULT_SEED:
        print(f"expected outputs are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    workdir.mkdir(parents=True)
    h = import_hopla()
    inputs = Inputs(args.workload, args.seed, workdir, h)
    run = Run(h, inputs, None, check_expected=False)
    run.round()
    if run.problems:
        print("\n".join(run.problems), file=sys.stderr)
        return 1
    expected = {job.name: rec for job, rec in zip(inputs.jobs, run.first)}
    path = HERE / "expected" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(expected)} jobs to {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected/<workload>.json from this program")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hopla" / "__init__.py").is_file():
        print(f"no hopla sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.record_expected:
            return record_expected(args, workdir)
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
