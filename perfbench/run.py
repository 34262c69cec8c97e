"""Benchmark for rdyck: end-to-end and per-layer costs of the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Workloads (NOTES.md says why each was chosen):

  verify     fresh-process ``verify`` calls: the oracle and every cross-check
  enumerate  fresh-process ``enumerate --force`` calls with large outputs
  count      fresh-process ``count``/``series`` calls: big-integer arithmetic

A run repeats the workload's call list (one "pass") until --seconds are
spent, at least three times, and reports medians over passes.  The seed
shuffles the call order of each pass.  Every output is checked against a reference that does not use the route being
timed.  With --trace 1 untraced and traced passes alternate; the traced ones
give the per-layer figures and the pair gives the tracing overhead.

The second-to-last line of stdout is a JSON report (commit, Python version,
failed_ratio, pass times).  The last line is the result: correct,
attempted, failed and metrics, holding the end-to-end metrics named in
BENCHMARK.json with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from spans import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_PASSES = 3
SETUP_PER_PASS = 2  # set-up launches before every untraced pass, so they sample the whole run
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children still running then are killed
# A traced call whose clock readings and span totals leave more than this share
# of its wall time unexplained is flagged in the report line.
UNEXPLAINED_FLAG = 0.01

CLI_WORKLOADS = {
    "verify": (
        "verify --q 3/4 --nmax 15",  # s = t*r + 1: the bijection branch
        "verify --q 3/2 --nmax 15",  # no such t: the collision branch
    ),
    "enumerate": (
        "enumerate --class q --q 1/1 --n 25 --force",
        "enumerate --class r --q 3/4 --n 28 --force",
        "enumerate --class rt --q 2/3 --n 30 --force",
    ),
    "count": (
        "count --class r --q 3/4 --nmax 4000",
        "count --class q --q 3/4 --nmax 8000",
        "series --q 3/4 --gf compositions --nmax 8000",
        "series --q 1/1 --gf rational --nmax 17000",  # fails today: see OVER_LIMIT
    ),
}
SETUP_CALL = "member --class r --q 1/1 UD"
# Known defect, shown rather than hidden: coefficients above ~16,816 have more
# than 4300 digits, and str() of such an int raises under Python's default limit.
OVER_LIMIT = "series --q 1/1 --gf rational --nmax 17000"
DIGIT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"
# Variables that would change what the CLI does; the benchmark runs it without them.
CLEARED_ENV = ("PYTHONINTMAXSTRDIGITS", "PYTHONUNBUFFERED", "RDYCK_MAX_N")
FAMILIES = {"r": "rational", "rt": "restricted", "q": "quasi"}


class Launch:
    """One child process: its timings (perf_counter seconds), output and report."""

    def __init__(self, start, first, end, code, cpu_s, out, err, report):
        self.start, self.first, self.end, self.code = start, first, end, code
        self.cpu_s, self.out, self.err, self.report = cpu_s, out, err, report

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def launch(child_args: list[str], env: dict, workdir: str, deadline: float) -> Launch:
    report_path = os.path.join(workdir, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    env = dict(env, PERFBENCH_REPORT=report_path)
    with open(os.path.join(workdir, "stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *child_args], stdout=subprocess.PIPE, stderr=err, env=env)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            out = proc.stdout.read1()
            first = time.perf_counter()
            out += proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    report = {}
    if os.path.exists(report_path):
        with open(report_path) as handle:
            report = json.load(handle)
    return Launch(start, first if out else end, end, proc.returncode, usage.ru_utime + usage.ru_stime, out, stderr, report)


class Checker:
    """Judges each call's output; returns "ok", "expected_failure" or a failure text."""

    def __init__(self, workload: str) -> None:
        with open(os.path.join(HERE, "reference.json")) as handle:
            self.reference = json.load(handle)
        self.counts = {}
        if workload == "enumerate":
            # the line count of each call, by the series route rather than by generation
            from rdyck.classes import PathClass
            from rdyck.core import RationalParam
            from rdyck.counting import class_gf, series_coeffs

            for call in CLI_WORKLOADS["enumerate"]:
                words = call.split()
                q = RationalParam.from_string(words[words.index("--q") + 1])
                family = PathClass(FAMILIES[words[words.index("--class") + 1]])
                n = int(words[words.index("--n") + 1])
                self.counts[call] = series_coeffs(class_gf(q, family), n)[n]

    def cli(self, workload: str, call: str, run: Launch) -> str:
        if call == OVER_LIMIT and run.code != 0:
            if run.code == 1 and DIGIT_LIMIT in run.err and not run.out:
                return "expected_failure"
            return f"exit {run.code}, not the known digit-limit failure: {run.err[-300:]!r}"
        if run.code != 0:
            return f"exit {run.code}: {run.err[-300:]!r}"
        if workload == "verify":
            lines = run.out.decode().splitlines()
            bad = [line for line in lines if not line.startswith("ok ")]
            if not lines or bad:
                return f"not all checks ok: {bad[:3]!r}"
        if call == OVER_LIMIT:
            limit = self.reference["over_limit"]
            if not run.out.startswith(limit["prefix"].encode()):
                return "does not start with the 1/1 reference counts"
            digest = limit["stdout_sha256_if_fixed"]
        else:
            digest = self.reference["stdout_sha256"][call]
        if workload == "enumerate":
            problem = self._enumeration(call, run.out)
            if problem:
                return problem
        if hashlib.sha256(run.out).hexdigest() != digest:
            return "stdout differs from the digest pinned at the seed commit"
        return "ok"

    def _enumeration(self, call: str, out: bytes) -> str:
        lines = out.split(b"\n")
        if lines.pop() != b"":
            return "output does not end with a newline"
        if len(lines) != self.counts[call]:
            return f"{len(lines)} lines, the series coefficient is {self.counts[call]}"
        ranked = out.translate(bytes.maketrans(b"UD", b"01")).split(b"\n")[:-1]
        if any(a >= b for a, b in zip(ranked, ranked[1:])):
            return "lines are not distinct and sorted with U < D"
        return ""


class Workload:
    def __init__(self, name: str, seed: int, workdir: str, deadline: float) -> None:
        self.name, self.workdir, self.deadline = name, workdir, deadline
        self.rng = random.Random(seed)
        self.env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        self.env["PYTHONPATH"] = os.path.abspath("src")
        self.checker = Checker(name)

    def child_env(self, traced: bool) -> dict:
        return dict(self.env, PERFBENCH_TRACE="1") if traced else self.env

    def setup_walls(self) -> list[float]:
        walls = []
        for _ in range(SETUP_PER_PASS):
            run = launch(SETUP_CALL.split(), self.env, self.workdir, self.deadline)
            if run.code != 0 or run.out != b"true\n":
                raise RuntimeError(f"set-up call failed: exit {run.code}, {run.err[-300:]!r}")
            walls.append(run.wall_s)
        return walls

    def one_pass(self, traced: bool) -> dict:
        calls = list(CLI_WORKLOADS[self.name])
        self.rng.shuffle(calls)
        runs, verdicts, traces = [], [], []
        for call in calls:
            run = launch(call.split(), self.child_env(traced), self.workdir, self.deadline)
            verdict = self.checker.cli(self.name, call, run)
            if traced and verdict in ("ok", "expected_failure"):
                trace, problem = account(run)
                traces.append(trace)
                verdict = problem or verdict
            verdicts.append(verdict)
            runs.append(run)
        return {
            "verdicts": verdicts,
            "wall_s": sum(run.wall_s for run in runs),
            "cpu_s": sum(run.cpu_s for run in runs),
            "peak_rss_mb": max(run.report.get("peak_rss_kb", 0) for run in runs) / 1024,
            "first_output_s": statistics.median(run.first - run.start for run in runs),
            "output_bytes": sum(len(run.out) for run in runs),
            "traces": traces,
        }


def account(run: Launch) -> tuple[dict, str]:
    """A traced call's span totals with its process time, measured, and the remainder.

    The process time is interpreter start (launch to the child's first
    statement), imports and tracer set-up (to the start of the call) and exit
    (from the final flush to the end of wait4, with the report write).  What
    is left of the wall time after it and the spans' self times is the
    unexplained remainder: the wrapper around the outermost span and the final
    flush.  Spans nest, so the remainder is never negative unless time is
    counted twice; that fails the call.
    """
    trace, clock = run.report.get("trace"), run.report.get("clock", {})
    if trace is None or "run_start" not in clock:
        return {}, "traced call left no span totals or clock readings"
    process_s = (clock["started"] - run.start) + (clock["run_start"] - clock["started"]) + (run.end - clock["exiting"])
    unexplained_s = run.wall_s - process_s - sum(trace["self_s"].values())
    trace = dict(trace, process_s=process_s, unexplained_s=unexplained_s, wall_s=run.wall_s)
    if unexplained_s < -1e-6:
        return trace, f"spans and process time exceed the wall time by {-unexplained_s:.6f} s"
    return trace, ""


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    def median(key):
        return statistics.median(p[key] for p in passes)

    return {
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": setup_s,
        "first_output_s": median("first_output_s"),
    }


def growth_per_n(per_n: dict[int, float]) -> float:
    """Time at the largest n over time at n - 1; 0 when no two consecutive n were traced."""
    top = max((n for n in per_n if per_n.get(n - 1)), default=None)
    return per_n[top] / per_n[top - 1] if top is not None else 0.0


def layers(traced: dict) -> dict:
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    per_n = {"classes.generate": {}, "classes.oracle": {}}
    counters = {"generate_paths": 0, "oracle_candidates": 0, "oracle_accepted": 0}
    hits = misses = entries = 0
    process_s = unexplained_s = 0.0
    for trace in traced["traces"]:
        process_s += trace["process_s"]
        unexplained_s += trace["unexplained_s"]
        for name in SPAN_NAMES:
            calls[name] += trace["calls"][name]
            self_s[name] += trace["self_s"][name]
        for layer, pairs in trace["per_n"].items():
            for n, seconds in pairs:
                per_n[layer][n] = per_n[layer].get(n, 0.0) + seconds
        for key in counters:
            counters[key] += trace["counters"][key]
        hits += trace["cache"]["hits"]
        misses += trace["cache"]["misses"]
        entries = max(entries, trace["cache"]["entries"])
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    candidates = counters["oracle_candidates"]
    values.update(
        {
            "classes.oracle.candidates": candidates,
            "classes.oracle.accept_ratio": counters["oracle_accepted"] / candidates if candidates else 0.0,
            "classes.oracle.growth_per_n": growth_per_n(per_n["classes.oracle"]),
            "classes.generate.paths": counters["generate_paths"],
            "classes.generate.growth_per_n": growth_per_n(per_n["classes.generate"]),
            "classes.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "classes.cache.entries": entries,
            "cli.output_bytes": traced["output_bytes"],
            "trace.wall_s": traced["wall_s"],
            "process.self_s": process_s,
            "trace.unexplained_s": unexplained_s,
        }
    )
    return values


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    # One whole traced pass, the median by wall time, so that its self times
    # add up to its wall; per-metric medians would not.
    middle = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    values = layers(middle)
    values["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in untraced
    )
    return values


def provenance() -> dict:
    digest = hashlib.sha256()
    source = os.path.join("src", "rdyck")
    for name in sorted(os.listdir(source)):
        if name.endswith(".py"):
            with open(os.path.join(source, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {"commit": commit, "source_sha256": digest.hexdigest(), "python": platform.python_version()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(CLI_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "rdyck", "cli.py")):
        print("error: run from the root of an rdyck checkout (src/rdyck/cli.py not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.abspath("src"))
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=".")
    try:
        workload = Workload(args.workload, args.seed, workdir, deadline)
        untraced, traced, setup_walls = [], [], []
        passes_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if not args.trace:
                setup_walls += workload.setup_walls()
            untraced.append(workload.one_pass(False))
            if args.trace:
                traced.append(workload.one_pass(True))
            now = time.perf_counter()
            estimate = now - round_start
            enough = args.trace or len(untraced) >= MIN_PASSES
            if now + estimate > deadline or (enough and now + estimate > passes_start + args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = [v for p in untraced + traced for v in p["verdicts"]]
    failures = [v for v in verdicts if v not in ("ok", "expected_failure")]
    failed_ratio = sum(v != "ok" for v in verdicts) / len(verdicts)
    if args.trace:
        values = per_layer(untraced, traced)
        values["failed_ratio"] = failed_ratio
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, statistics.median(setup_walls))
        wanted = spec["end_to_end"]
    flags = [
        f"call of {t['wall_s']:.3f} s leaves {t['unexplained_s']:.6f} s unexplained"
        for p in traced
        for t in p["traces"]
        if t["unexplained_s"] > UNEXPLAINED_FLAG * t["wall_s"]
    ]
    report = {
        **provenance(),
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "failed_ratio": failed_ratio,
        "expected_failures": verdicts.count("expected_failure"),
        "first_failures": sorted(set(failures))[:5],
        "trace_flags": flags[:5],
        "run_s": time.perf_counter() - began,
    }
    print(json.dumps(report))
    result = {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
