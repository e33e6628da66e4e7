#!/usr/bin/env python3
"""Benchmark of the compliant query path: one command, four workloads.

BENCHMARK.json gates three of them (tpch-disk, tpch-dist, service-mix);
tpch-mem, the in-memory baseline of the TPC-H runs, is run by name.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program from
source (benchmark/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only check the build is current. A run
executes cgq_bench for the workload (starting three cgq_sited processes
for tpch-dist), checks its output apart from the program (SQLite answers,
the SHIP-edge policy check, append durability after reopen), and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (0 for a layer the workload
does not reach). Add --keep to leave the run directory for inspection.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import ship_check  # noqa: E402

WORKLOADS = ("tpch-mem", "tpch-disk", "tpch-dist", "service-mix")
# service-mix runs as this many harness processes in turn, each for a
# share of --seconds, and reports their mean: ten single-process runs of
# 25 s fell into two speed modes about 15% apart (throughput 609-687
# against 724-738 queries/s), decided per process.
SERVICE_PROCESSES = 3
# tpch-dist servers: the five TPC-H locations l1..l5 (ids 0..4).
SITED_HOSTINGS = ("0,1", "2,3", "4")
HARNESS_TIMEOUT_S = 150


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def spec():
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds cgq_bench and cgq_sited."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


class Servers:
    """Three cgq_sited processes on ephemeral loopback ports."""

    def __init__(self, binary, run_dir):
        self.procs = []
        self.logs = []
        ports = []
        for i, hosting in enumerate(SITED_HOSTINGS):
            port_file = os.path.join(run_dir, f"sited-{i}.port")
            log_file = open(os.path.join(run_dir, f"sited-{i}.log"), "w")
            self.logs.append(log_file)
            self.procs.append(subprocess.Popen(
                [binary, f"--locations={hosting}", f"--port-file={port_file}"],
                stdout=log_file, stderr=log_file))
            ports.append(port_file)
        deadline = time.time() + 20
        self.hosts = os.path.join(run_dir, "hosts")
        lines = []
        for port_file, hosting in zip(ports, SITED_HOSTINGS):
            while not (os.path.exists(port_file) and os.path.getsize(port_file)):
                if time.time() > deadline:
                    raise RuntimeError("cgq_sited never reported a port")
                time.sleep(0.05)
            with open(port_file, encoding="utf-8") as f:
                lines.append(f"127.0.0.1:{f.read().strip()} {hosting}")
        with open(self.hosts, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def peak_rss_mb(self):
        total = 0.0
        for p in self.procs:
            try:
                with open(f"/proc/{p.pid}/status", encoding="utf-8") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for f in self.logs:
            f.close()


def digest(lines):
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def check_durability(run_dir, result):
    """Every acknowledged append survives the reopen of the data
    directory: row counts are base + appended, and the recovered tail
    hashes like the rows written."""
    failures = []
    dur = result["durability"]
    if dur.get("reopen") != "OK":
        return [f"reopen failed: {dur.get('reopen')}"]
    for table in ("orders", "lineitem"):
        with open(os.path.join(run_dir, "data", table + ".tsv"),
                  encoding="utf-8") as f:
            base = sum(1 for _ in f) - 1
        with open(os.path.join(run_dir, "appends", table + ".tsv"),
                  encoding="utf-8") as f:
            written = [line.split("\t", 1)[1] for line in f]
        with open(os.path.join(run_dir, "recovered", table + ".tsv"),
                  encoding="utf-8") as f:
            recovered = f.readlines()
        if dur.get(table + "_rows") != base + len(written):
            failures.append(f"{table}: {dur.get(table + '_rows')} rows after "
                            f"reopen, expected {base} + {len(written)}")
        if digest(written) != digest(recovered):
            failures.append(f"{table}: appended rows differ after reopen")
    return failures


def run_harness(args, build_dir, out_dir, seconds):
    """Runs cgq_bench once (with its cgq_sited servers on tpch-dist) and
    returns its result.json, peak RSS of the servers included; None when
    it failed."""
    servers = None
    try:
        cmd = [os.path.join(build_dir, "cgq_bench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={seconds}", f"--trace={args.trace}",
               f"--out={out_dir}"]
        if args.workload == "tpch-dist":
            servers = Servers(os.path.join(build_dir, "cgq_sited"), out_dir)
            cmd.append(f"--hosts={servers.hosts}")
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"cgq_bench exited with {proc.returncode}")
            return None
        sited_rss = servers.peak_rss_mb() if servers else 0.0
    finally:
        if servers is not None:
            servers.stop()
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as f:
        result = json.load(f)
    result["metrics"]["peak_rss_mb"] = (
        result["metrics"].get("peak_rss_mb", 0) + sited_rss)
    return result


def check(workload, out_dir, result):
    """Failures of the checks made apart from the program."""
    failures = list(result["notes"])
    expected = oracle.expected_answers(out_dir, result)
    failures += oracle.check_answers(result, expected)
    grants = ship_check.load_policies(os.path.join(out_dir, "policies.tsv"))
    failures += ship_check.check_edges(result["edges"], grants)
    if not result["answers"] or not result["edges"]:
        failures.append("nothing to check: no answers or no plans")
    if workload == "tpch-disk":
        failures += check_durability(out_dir, result)
    return failures


def combine(parts):
    """One set of metrics from the harness processes of a run: the mean
    of each figure, the median of set-up time, the largest peak RSS."""
    out = {}
    for name in parts[0]:
        values = [p.get(name, 0.0) for p in parts]
        if name == "setup_s":
            out[name] = statistics.median(values)
        elif name == "peak_rss_mb":
            out[name] = max(values)
        else:
            out[name] = statistics.fmean(values)
    return out


def run(args):
    bench = spec()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        parts = SERVICE_PROCESSES if args.workload == "service-mix" else 1
        results, failures = [], []
        for k in range(parts):
            part_dir = run_dir if parts == 1 else os.path.join(run_dir,
                                                               f"part-{k}")
            os.makedirs(part_dir, exist_ok=True)
            result = run_harness(args, build_dir, part_dir,
                                 args.seconds / parts)
            if result is None:
                return 1
            failures += check(args.workload, part_dir, result)
            results.append(result)
        for line in failures[:20]:
            log(f"check failed: {line}")
        metrics = combine([r["metrics"] for r in results])
        wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
        out = {
            "correct": not failures,
            "attempted": sum(int(r["attempted"]) for r in results),
            "failed": sum(int(r["failed"]) for r in results),
            "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                    "unit": m["unit"]} for m in wanted},
        }
    finally:
        if not args.keep:
            shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep the run directory under the build dir")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
