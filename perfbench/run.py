"""dcflow benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload clean-large --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports dcflow from ``src/``
and exits with code 2 when that is missing. It builds the workload's inputs
from ``--seed``, warms up on a tiny copy, then repeats timed passes until
``--seconds`` is used up: a pass starts only if the last one would still
fit, and there are at least two (one of each kind when traced), which
bounds a run's length when the machine is slow.
It prints one line per metric, the share of failed checks, and last a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``total_s``: median pass time;
* ``case_p50_s``/``case_p95_s``: percentiles over every case of every pass,
  where a case is the clean step on clean-large, the whole pass (one
  benchmark case built and scored) on build-score, and one cleaned case on
  suite-small;
* ``peak_rss_mb``: the process's peak resident memory, inputs included;
* ``setup_s``: median time of fresh interpreters importing ``dcflow``,
  ``dcflow.agent`` and ``dcflow.cli``; six are timed before the first pass
  and six after each pass, so the median spans the run rather than one
  moment of a machine whose speed drifts. Their time is not counted
  against ``--seconds``.

It also prints, but leaves out of the JSON, ``replay_s``: the median time
a pass spends replaying (``dcflow replay``: deserialize, load, replay,
write CSV): the silver and the produced workflow on clean-large, one replay
per case on build-score (8) and on suite-small (400, compared in memory,
not written). Its run-to-run spread on suite-small exceeds the largest
bound a metric may have, so it carries no bound.

``--trace 1`` alternates untraced passes with passes traced by wrappers
around dcflow's public functions (see ``layers.py``) and reports per-layer
medians plus the tracing overhead; the spans are written to
``.perfbench/spans-<workload>.jsonl``. ``trace.overhead_frac`` compares the
median traced and untraced pass times; on the workloads whose passes take
over a third of ``--seconds`` it rests on one pass of each kind, so machine
noise can outweigh the overhead (it can even come out negative), and
``trace.bookkeeping_frac`` is the steadier view of the tracer's own cost.

At the default seed each pass's output digest must also match the one
stored in ``reference.json``; a change that alters outputs on purpose
updates that file with the digest the failed check prints.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("clean-large", "build-score", "suite-small")
DEFAULT_SEED = 1
MIN_PASSES = 2
MIN_TRACED_PASSES = 1
SETUP_BATCH = 6

END_TO_END_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "case_p50_s": "s",
    "case_p95_s": "s",
}

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import dcflow, dcflow.agent, dcflow.cli\n"
    "print(time.perf_counter() - start)\n"
)


def time_imports(runs: int) -> list[float]:
    """Import times of ``runs`` fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "dcflow" / "__init__.py").is_file():
        print(f"error: no dcflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dcflow

    if Path(dcflow.__file__).resolve().parent != (SRC / "dcflow").resolve():
        print(f"error: imported dcflow from {dcflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, Checks, NoProbe, PerfBackend

    tiny = args.scale == "tiny"
    setup_times = None
    if args.trace == 0:
        time_imports(1)  # fills the bytecode cache
        setup_times = time_imports(SETUP_BATCH)
    cls = WORKLOADS[args.workload]
    checks = Checks()
    work = OUT / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    untraced, traced, layer_passes = [], [], []
    try:
        workload = cls(work / "run", args.seed, tiny)
        cls(work / "warm", args.seed, True).run_pass(NoProbe(), checks)
        gc.collect()
        began = time.perf_counter()
        while True:
            if tracer is not None and len(traced) < len(untraced):
                span_mark, count_mark = tracer.mark()
                layers.install(tracer, PerfBackend)
                try:
                    result = workload.run_pass(tracer, checks)
                finally:
                    tracer.uninstall()
                layer_passes.append(layers.pass_metrics(
                    tracer.spans[span_mark:], tracer.counts[count_mark:], result.total_s
                ))
                traced.append(result)
            else:
                result = workload.run_pass(NoProbe(), checks)
                untraced.append(result)
            gc.collect()
            if setup_times is not None:
                paused = time.perf_counter()
                setup_times += time_imports(SETUP_BATCH)
                began += time.perf_counter() - paused
            if tracer is None:
                enough = len(untraced) >= MIN_PASSES
            else:
                enough = min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
            elapsed = time.perf_counter() - began
            if enough and elapsed + result.total_s > args.seconds:
                break
        # Every pass must give the same outputs; on build-score this is also
        # the check that inject_errors is a pure function of its inputs.
        passes = untraced + traced
        for result in passes[1:]:
            for key, value in passes[0].digests.items():
                checks.expect(result.digests[key] == value, f"{key}: passes gave different outputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = passes[0].digests[args.workload]
    if args.seed == DEFAULT_SEED and not tiny:
        reference = json.loads(REFERENCE.read_text())
        checks.expect(reference.get(args.workload) == digest,
                      f"output digest {digest} differs from reference.json")

    if tracer is None:
        cases = [s for r in untraced for s in r.case_s]
        metrics = {
            "total_s": statistics.median(r.total_s for r in untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "case_p50_s": statistics.median(cases),
            "case_p95_s": percentile(cases, 95),
        }
        units = END_TO_END_UNITS
    else:
        metrics = layers.median_metrics(layer_passes)
        metrics["trace.overhead_frac"] = (
            statistics.median(r.total_s for r in traced)
            / statistics.median(r.total_s for r in untraced)
            - 1
        )
        units = layers.UNITS
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:<12} {name:<40} {value:>14.6g} {units[name]}")
    if tracer is None:
        replay_s = statistics.median(r.replay_s for r in untraced)
        print(f"{args.workload:<12} {'replay_s':<40} {replay_s:>14.6g} s (not in the JSON)")
    fail_frac = checks.failed / checks.attempted
    print(f"{args.workload:<12} {'fail_frac':<40} {fail_frac:>14.6g} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
