"""Benchmark of the OIP join service, end to end and layer by layer.

    python3 perfbench/run.py --workload longlived-join --seed 1 \
        --seconds 20 --trace 0

Run from a checkout of the repository (the program is imported from its
``src`` directory).  ``--trace 0`` is the timed run and prints the
end-to-end metrics; ``--trace 1`` repeats the served run for the
figures only a server can give, then replays the workload in-process
with each layer's calls timed, and prints the per-layer metrics.  The
last line of standard output is the result as one JSON object; the
lines before it are the run's report.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

import declared  # noqa: E402
import workload_inputs  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(declared.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _environment() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version} flush=fsync on snapshot commits and "
        "journal appends (program default)"
    )


def _report(args, served, replay, values: Dict[str, float], checks) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: {_environment()}")
    info = served.index_info
    print(f"index: {len(served.outer)}+{len(served.inner)} tuples, "
          f"k={info['k_outer']}/{info['k_inner']}, partitions="
          f"{info['outer_partitions']}+{info['inner_partitions']}, "
          f"{info['bytes']} bytes")
    latencies = sorted(served.latencies)
    line = (f"reads: {len(latencies)} {served.spec.op}s in "
            f"{served.read_elapsed_s:.2f} s, setups {['%.3f' % s for s in served.setup_s]} s")
    if len(latencies) >= 100:
        line += f", p90 {statistics.quantiles(latencies, n=10)[-1]:.2f} ms"
    print(line)
    for op in sorted(served.ops.attempted):
        print(f"ops: {op} attempted={served.ops.attempted[op]} failed={served.ops.failed[op]}")
    if served.publishes:
        lateness = [p["lateness_ms"] for p in served.publishes]
        print(f"writer: {len(lateness)} batches, period "
              f"{served.spec.writer_period_s:g} s, late median "
              f"{statistics.median(lateness):.1f} ms, max {max(lateness):.1f} ms")
    print(f"checks: fingerprints checked on {checks['fingerprint_checked']} reads, "
          f"skipped on {checks['fingerprint_skipped']}")
    for note in served.notes:
        print(f"note: {note}")
    if replay is not None:
        ledger = replay.ledger
        print("ledger (median traced in-process query): "
              f"restore {ledger['restore_ms']:.2f} + join {ledger['oipjoin_ms']:.2f} + "
              f"summarize {ledger['summarize_ms']:.2f} + unattributed "
              f"{ledger['unattributed_ms']:.2f} = {ledger['query_ms']:.2f} ms; "
              f"untraced median {ledger['untraced_query_ms']:.2f} ms")
    table = declared.PER_LAYER if args.trace else declared.END_TO_END
    for name, (unit, _) in table.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program is missing: no src/repro under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layer_trace import LayerReplay
    from served_run import SETUPS, ServedRun

    signal.signal(signal.SIGTERM, _on_sigterm)
    # The client and the server each get a core of their own, so the
    # scheduler cannot put them on one core for part of a run.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = cpus[-1:]
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:1])
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    spec = workload_inputs.SPECS[args.workload]
    served = ServedRun(spec, args.seed, args.seconds, workdir, SRC,
                       setups=1 if args.trace else SETUPS, server_cpus=server_cpus)
    replay = None
    try:
        served.run()
        checks = served.check()
        problems = list(served.problems)
        if args.trace:
            replay = LayerReplay(spec, args.seed, workdir, served.ops)
            values = replay.run()
            values.update(served.served_layers())
            problems.extend(replay.problems)
        else:
            values = served.end_to_end()
        metrics = declared.check_metrics(values, bool(args.trace))
        _report(args, served, replay, values, checks)
    except BaseException:
        if served.server is not None:
            sys.stderr.write(f"serve stderr:\n{served.server.stderr_tail()}\n")
        raise
    finally:
        served.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(served.ops.attempted.values()),
        "failed": sum(served.ops.failed.values()),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
