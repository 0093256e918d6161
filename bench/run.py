"""Benchmark for clifford3: a rank-3 grid sweep, refined large-genus queries
and a CLI session, each a closed loop with one client in one thread.

Run from the repository root:

    python3 bench/run.py [--workload grid|refined|session|all] [--seed N]
                         [--seconds S] [--trace 0|1]

``--seconds`` is how long each workload measures; it defaults to
``run_seconds`` of BENCHMARK.json.  The default, ``--workload all``, runs
each workload in a process of its own, so that each peak resident size is
the workload's own, and prints every end-to-end metric of the three.

Each operation's output is checked against an independent reference (see
oracles.py); a wrong value makes ``correct`` false.  An invalid input
without the documented JSON error, and a valid input that hits a known
defect, count as failed but leave ``correct`` true.  ``attempted`` and
``failed`` count distinct operations, so that one seed fails the same
operations on every run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` each operation is run once plain and once traced, and
the metrics are the per-layer ones.  The error share, failed over
attempted, is printed for each workload and is a metric of ``--workload
all``; for a single workload it is left to ``attempted`` and ``failed``,
since a metric that reads 0, as it does on two workloads, has no relative
spread.

Operation times are wall-clock times rescaled by a calibration kernel
(calibrate.py), and set-up times by bare interpreter starts, to a reference
host speed, because on a shared host the raw figures of the same work drift
by up to a half between processes; the raw figures are printed alongside.
The exit status is 2, with no result, when the program's sources are
missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

CHUNK_S = 0.03  # time between two calibration runs
COLD_STARTS = 8  # measured cold starts per run, after one that is discarded
BARE_START_S = 0.045  # `python3 -I -c pass` on the reference host of calibrate.py
PROBE_TIMEOUT_S = 60
LADDER = (99.9, 99.0, 98.0, 90.0, 50.0)
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_METRICS = {
    "krawtchouk": ("calls", "self_s", "terms", "errors"),
    "invariants": ("calls", "self_s", "errors"),
    "bounds": ("calls", "self_s", "errors", "refinement_attempts", "refinement_hit_share"),
    "elmtrans": ("calls", "self_s", "errors"),
    "families": ("calls", "self_s", "errors"),
    "cli": ("calls", "self_s", "bytes_out", "errors"),
}
UNITS = {
    "calls": "count/op",
    "self_s": "s/op",
    "errors": "count/op",
    "terms": "terms/op",
    "refinement_attempts": "count/op",
    "refinement_hit_share": "share",
    "bytes_out": "B/op",
}


def layer_unit(name):
    """The unit of a per-layer metric ``<module>.<metric>``."""
    mod, metric = name.split(".", 1)
    return "share" if mod == "trace" else UNITS[metric]


def percentile(sorted_vals, p):
    """Nearest-rank percentile and the number of samples above it."""
    k = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[k - 1], len(sorted_vals) - k


def tail(sorted_vals, preferred):
    """The workload's tail percentile, or the next lower one on the ladder
    when fewer than ten samples lie beyond it."""
    for p in LADDER:
        if p <= preferred:
            value, beyond = percentile(sorted_vals, p)
            if beyond >= 10 or p == LADDER[-1]:
                return p, value, beyond


class Chunk:
    """Operations run between two calibration samples."""

    def __init__(self):
        self.plain = array("d")  # timed plain latencies
        self.traced = array("d")  # timed traced latencies of the same operations
        self.sums = Counter()  # per-layer sums over traced operations

    def add_traced(self, st, traced_s, out_bytes):
        self.traced.append(traced_s)
        for layer in st.calls:
            self.sums[(layer, "calls")] += st.calls[layer]
            self.sums[(layer, "self_s")] += st.self_s[layer]
            self.sums[(layer, "errors")] += st.errors[layer]
        self.sums[("krawtchouk", "terms")] += st.terms
        self.sums[("bounds", "refinement_attempts")] += st.attempts
        self.sums[("bounds", "hits")] += st.hits
        self.sums[("cli", "bytes_out")] += out_bytes


def _spawn(cmd):
    """Run ``cmd`` to completion: (seconds or None, its stdout or the failure)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, f"timed out after {PROBE_TIMEOUT_S} s"
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, f"failed: {proc.stderr.strip().splitlines()[-1:]}"
    return elapsed, proc.stdout


def cold_start(w, op):
    """One fresh interpreter that imports clifford3, computes ``op`` and
    exits: (rescaled seconds or None, raw seconds, SHA-256 of the output or
    the failure).  The time is rescaled by bare interpreter starts just
    before and after it, the same kind of work as the program's start-up."""
    bare = [sys.executable, "-I", "-c", "pass"]
    before, _ = _spawn(bare)
    elapsed, out = _spawn([sys.executable, "-I", str(HERE / "probe.py"), w.name, json.dumps(op)])
    after, _ = _spawn(bare)
    if elapsed is None or before is None or after is None:
        return None, None, f"cold start {out}"
    return elapsed * BARE_START_S * 2 / (before + after), elapsed, out.strip()


def _execute(w, op, tracer=None, op_id=0):
    """One timed call: (plain value or None, exception or None, seconds)."""
    if tracer:
        tracer.install()
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        out, err = w.execute(op), None
    except Exception as exc:  # a valid input that raises is a failed operation
        out, err = None, exc
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    return (None if err else w.value(out)), err, elapsed


def _canon(w, op, out, err):
    return f"{op} raised {type(err).__name__}" if err else w.canon(op, out)


def measure(w, seconds, tracer, cold_starts):
    """Run ``w`` in a closed loop for ``seconds``; return a result dict.

    ``attempted`` and ``failed`` count distinct operations: a workload that
    cycles through a seeded script runs at least one whole pass of it, and
    an operation that runs again counts once, as failed if any of its runs
    failed.  So ``failed`` depends on the seed alone, not on how many
    operations the host managed in the time.  With a tracer each operation
    runs once plain and once traced, in alternating order.  The cold
    starts, if any, are spread evenly over the run, so that their median
    does not rest on one phase of the host's load."""
    clock = time.perf_counter
    digest = hashlib.sha256()
    digest_n = 0
    fails = Counter()  # (kind, label) -> distinct operations that failed with it
    seen, failed_ops = set(), set()
    executions = n_timed = 0
    min_ops = len(getattr(w, "ops_list", ()))  # one whole pass of a cycled script
    identity_gap = 0.0  # largest |sum of self times - outermost span time|
    by_kind = {}  # operation kind -> traced time, time outside spans, self times
    bytes_out = getattr(w, "bytes_out", None)
    first_op = next(iter(w.ops()))
    setups, setup_hashes = [], set()
    if cold_starts:
        setup_hashes.add(cold_start(w, first_op)[2])  # also compiles bytecode; not counted
    cals = [calibrate.kernel_seconds(w.name)]
    chunks = [Chunk()]
    t_start = chunk_t0 = clock()
    probe_at = [t_start + (k + 0.5) * seconds / cold_starts for k in range(cold_starts)]
    warm_until = t_start + min(0.5, 0.05 * seconds)
    deadline = t_start + seconds
    for i, op in enumerate(w.ops()):
        now = clock()
        if now >= deadline and i >= min_ops and (n_timed or now >= deadline + seconds):
            break
        timed = now >= warm_until
        if tracer and i % 2:
            t_out, t_err, t_lat = _execute(w, op, tracer, i)
            out, err, lat = _execute(w, op)
        else:
            out, err, lat = _execute(w, op)
            if tracer:
                t_out, t_err, t_lat = _execute(w, op, tracer, i)
        executions += 1
        key = repr(op)
        seen.add(key)
        problem = ("wrong", f"{type(err).__name__} raised") if err else w.check(op, out)
        canon = _canon(w, op, out, err)
        if tracer and problem is None and _canon(w, op, t_out, t_err) != canon:
            problem = ("wrong", "traced result differs")
        if problem and key not in failed_ops:
            failed_ops.add(key)
            fails[problem] += 1
        if i == 0:
            first_hash = hashlib.sha256(canon.encode()).hexdigest()
        if i < w.digest_ops:
            digest.update(canon.encode() + b"\n")
            digest_n += 1
        if timed:
            n_timed += 1
            chunks[-1].plain.append(lat)
            if tracer:
                st = tracer.op
                out_bytes = bytes_out(t_out) if bytes_out and st.calls["cli"] else 0
                chunks[-1].add_traced(st, t_lat, out_bytes)
                identity_gap = max(identity_gap, abs(sum(st.self_s.values()) - st.root_s))
                k = by_kind.setdefault(op[0] if isinstance(op[0], str) else w.name, Counter())
                k.update(st.self_s, ops=1, time=t_lat)
                k["outside spans"] += t_lat - st.root_s
        if probe_at and clock() >= probe_at[0]:
            del probe_at[0]
            scaled, raw_s, h = cold_start(w, first_op)
            setup_hashes.add(h)
            if scaled is not None:
                setups.append((scaled, raw_s))
        if clock() - chunk_t0 >= CHUNK_S:
            cals.append(calibrate.kernel_seconds(w.name))
            chunks.append(Chunk())
            chunk_t0 = clock()
    cals.append(calibrate.kernel_seconds(w.name))
    wall = clock() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # rescale each chunk by the calibration samples around it
    reference = calibrate.KERNELS[w.name][1]
    scales = [
        reference / statistics.median(cals[max(0, k - 1) : k + 3]) for k in range(len(chunks))
    ]
    plain = sorted(x * s for c, s in zip(chunks, scales) for x in c.plain)
    raw = sorted(x for c in chunks for x in c.plain)
    tail_p, tail_v, beyond = tail(plain, w.tail_percentile)
    res = {
        "name": w.name,
        "attempted": len(seen),
        "failed": len(failed_ops),
        "executions": executions,
        "fails": fails,
        "timed": len(plain),
        "wall_s": wall,
        "digest": (digest.hexdigest(), digest_n),
        "first_hash": first_hash,
        "ops_per_s": len(plain) / sum(plain),
        "latency_p50_ms": statistics.median(plain) * 1e3,
        "latency_tail_ms": tail_v * 1e3,
        "tail": (tail_p, beyond),
        "raw_p50_ms": statistics.median(raw) * 1e3,
        "raw_ops_per_s": len(raw) / sum(raw),
        "cal": (statistics.median(cals), min(cals), max(cals), len(cals)),
        "peak_rss_mb": peak_rss_mb,
        "setups": setups,
        "setup_s": statistics.median(x for x, _ in setups) if setups else None,
        "setup_hashes": setup_hashes,
    }
    if tracer:
        n = sum(len(c.traced) for c in chunks)
        sums = Counter()
        for c, s in zip(chunks, scales):
            for key, v in c.sums.items():
                sums[key] += v * s if key[1] == "self_s" else v
        layer = {f"{mod}.{m}": sums[(mod, m)] / n for mod, ms in LAYER_METRICS.items() for m in ms}
        attempts = sums[("bounds", "refinement_attempts")]
        hits = sums[("bounds", "hits")]
        layer["bounds.refinement_hit_share"] = hits / attempts if attempts else 0.0
        traced_s = sum(sum(c.traced) * s for c, s in zip(chunks, scales))
        layer["trace.overhead_share"] = traced_s / sum(plain) - 1
        res.update(layer=layer, traced_ops=n, identity_gap=identity_gap, by_kind=by_kind)
    return res


def report(res):
    """Human-readable lines for one workload."""
    tail_p, beyond = res["tail"]
    cal_med, cal_min, cal_max, cal_n = res["cal"]
    lines = [
        f"== {res['name']}: {res['executions']} operations in {res['wall_s']:.1f} s, "
        f"{res['timed']} timed (the rest were warm-up), {res['attempted']} distinct",
        f"  ops_per_s        {res['ops_per_s']:.1f} 1/s   (raw {res['raw_ops_per_s']:.1f})",
        f"  latency_p50_ms   {res['latency_p50_ms']:.4f} ms   (raw {res['raw_p50_ms']:.4f})",
        f"  latency_tail_ms  {res['latency_tail_ms']:.4f} ms   "
        f"(p{tail_p:g} of {res['timed']} samples, {beyond} beyond it)",
    ]
    if res["setups"]:
        lines.append(
            f"  setup_s          {res['setup_s']:.4f} s    "
            f"(median of {len(res['setups'])} cold starts; raw "
            + ", ".join(f"{x:.3f}" for _, x in res["setups"])
            + ")"
        )
    lines += [
        f"  peak_rss_mb      {res['peak_rss_mb']:.1f} MB",
        f"  error_share      {res['failed'] / res['attempted']:.4f}   "
        f"({res['failed']} of {res['attempted']} distinct operations failed)",
    ]
    for (kind, label), count in sorted(res["fails"].items()):
        lines.append(f"    {count:6d} x {kind}: {label}")
    lines.append(
        f"  digest           sha256 {res['digest'][0][:16]} "
        f"over the first {res['digest'][1]} operations"
    )
    lines.append(
        f"  calibration      median {cal_med * 1e3:.3f} ms (min {cal_min * 1e3:.3f}, max "
        f"{cal_max * 1e3:.3f}, {cal_n} runs); times rescaled to the reference"
    )
    if "layer" in res:
        lines.append(f"  per layer, per traced operation ({res['traced_ops']} operations):")
        for name, v in res["layer"].items():
            note = "  (computed as the sum of min(n, r) + 1)" if name.endswith(".terms") else ""
            lines.append(f"    {name:34s} {v:.6g} {layer_unit(name)}{note}")
        lines.append(
            "  self times add up to the outermost spans within "
            f"{res['identity_gap']:.2e} s per operation"
        )
        lines.append("  share of traced time, by operation kind:")
        for kind, k in sorted(res["by_kind"].items()):
            shares = ", ".join(
                f"{name} {k[name] / k['time']:.1%}"
                for name in tracing.LAYERS + ("outside spans",)
                if k[name] > 0.0005 * k["time"]
            )
            mean_ms = k["time"] / k["ops"] * 1e3
            lines.append(f"    {kind:10s} {k['ops']:6d} ops, mean {mean_ms:.3f} ms raw: {shares}")
    return lines


def run_one(w, seconds, trace, seed):
    """Measure one workload; returns (result, correct).  The traced run
    makes no cold starts: set-up time is an end-to-end metric."""
    tracer = tracing.Tracer() if trace else None
    res = measure(w, seconds, tracer, 0 if trace else COLD_STARTS)
    if res["setup_hashes"] - {res["first_hash"]}:
        res["fails"][("wrong", "cold start result differs")] += 1
    correct = not any(kind == "wrong" for kind, _ in res["fails"])
    if tracer:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{w.name}-seed{seed}.jsonl"
        tracer.write_spans(path)
        res["span_file"] = (path.relative_to(ROOT), len(tracer.spans))
    return res, correct


def run_all(args) -> int:
    """Run every workload in a child process and merge their results,
    prefixing each metric with the workload's name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        timeout = 3 * args.seconds + 4 * PROBE_TIMEOUT_S
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"error: workload {name} timed out after {timeout} s", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        metrics = res["metrics"]
        if not args.trace:
            metrics["error_share"] = {"value": res["failed"] / res["attempted"], "unit": "share"}
        total["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "clifford3" / "__init__.py").is_file():
        print(f"error: the clifford3 sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    os.environ.pop("CLIFFORD3_OUTPUT", None)  # the checks parse the default formats
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    res, correct = run_one(w, args.seconds, args.trace, args.seed)
    print("\n".join(report(res)), flush=True)
    if "span_file" in res:
        print(f"  spans            {res['span_file'][1]} kept in {res['span_file'][0]}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layer"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"]}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
