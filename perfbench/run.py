#!/usr/bin/env python3
"""PAB simulator benchmark: build, run one workload, check it, print metrics.

    python3 perfbench/run.py --workload field_2000 --seed 1 --seconds 20 --trace 0

Builds perfbench/pab_perfbench (and the simulator libraries it links) from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the workload in its own process, checks the outputs, and prints as the
last line of stdout one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports every end_to_end metric of BENCHMARK.json,
--trace 1 every per_layer metric and writes a Chrome trace-event file next
to the build (see perfbench/README.md).

Output check: every batch of a run must reproduce the first batch's digest,
the traced replay must reproduce the end-to-end digest, and at the default
seed the digest and continuous outputs must match perfbench/reference.json.
At the held-out seed the digest is printed for a parent-vs-change comparison.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uplink_100bps", "uplink_5kbps", "field_2000", "campaign_timeline")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds pab_perfbench; returns the binary path."""
    bdir = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "--target", "pab_perfbench", "-j4"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "pab_perfbench")


def source_fingerprint():
    """The commit when the tree is a git checkout, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=True, timeout=10).stdout.decode().strip()
        if head:
            return head
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_outputs(report, reference, size):
    """Returns the list of output-check failures of one run's report."""
    errors = []
    if not report["consistent"]:
        errors.append("a batch did not reproduce the first batch's outputs")
    if not report["replay_matches"]:
        errors.append("the traced replay did not reproduce the end-to-end outputs")
    if report["sanity_error"]:
        errors.append(report["sanity_error"])
    if report["seed"] == reference["seed"] and size == "full":
        want = reference["workloads"][report["workload"]]
        if report["digest"] != want["digest"]:
            errors.append(f"digest {report['digest']} != reference {want['digest']}")
        for name, value in want["continuous"].items():
            got = report["continuous"].get(name)
            tolerance = reference["continuous_relative_tolerance"] * abs(value)
            if got is None or abs(got - value) > tolerance:
                errors.append(f"{name} {got} != reference {value}")
    return errors


def declared_metrics(bench, trace):
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))
    seed = reference["seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--size", args.size]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(build_dir(), "traces",
                                  f"{args.workload}-seed{seed}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        log("\n".join(lines))
        raise SystemExit(f"perfbench: {args.workload} exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    units = declared_metrics(bench, args.trace)
    if set(report["metrics"]) != set(units):
        raise SystemExit("perfbench: printed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(report['metrics']) ^ set(units))}")

    fingerprint = dict(report["fingerprint"], commit=source_fingerprint(),
                       cpu=cpu_model(), nproc=os.cpu_count())
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(f"digest {report['digest']} seed {seed} size {args.size} "
          f"continuous {json.dumps(report['continuous'])}")
    if seed == reference["held_out_seed"]:
        print(f"held-out digest {args.workload} {report['digest']} "
              "(compare parent and change)")
    if trace_path:
        print(f"trace written to {trace_path}")

    errors = check_outputs(report, reference, args.size)
    for e in errors:
        log(f"perfbench: output check failed: {e}")
    attempted = max(1, int(report["attempted"]))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else int(report["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(report["metrics"].items())},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
