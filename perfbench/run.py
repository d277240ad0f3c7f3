"""nearvec benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src.  One process runs one workload, single-threaded, so the package's
caches start cold and the peak RSS is that workload's own.

--trace 0 prints the end-to-end metrics; --trace 1 installs span and
call-count wrappers (see spans.py) and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record with run metadata goes to perfbench/out/.

--write-reference recomputes the workload's reference digests in
perfbench/reference.json; do that only when a change to the package is
meant to change its output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

# cold set-ups per run: one in this process before the ops, the rest in fresh
# interpreters spread over the run
SETUP_SAMPLES = 7
TAIL_BEYOND = 10        # op_tail_ms is the slowest latency with this many samples above it


def _import_package():
    if not (SRC / "nearvec" / "__init__.py").is_file():
        sys.exit(f"error: no nearvec package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nearvec
    if Path(nearvec.__file__).resolve().parent != SRC / "nearvec":
        sys.exit(f"error: imported nearvec from {nearvec.__file__}, not from {SRC}")


def _workload(name):
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    return WORKLOADS[name](OUT)


def _pool(wl, seed):
    return wl.make_pool(random.Random(f"{wl.name}:{seed}"))


def _timed_setup(wl):
    """Seconds taken by each of the workload's set-up steps, in order."""
    times = []
    for _, step in wl.setup_steps():
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    return times


def _cold_setup_in_child(name):
    """Set-up step times measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _pin_pass(done):
    """Run pass `done` on the next CPU this process may use, round robin;
    with done=None, allow all of them again.

    On a shared virtual machine one CPU can run this code 1.5 times slower
    than the other for stretches of seconds to minutes, and a process
    tends to stay where it started.  Alternating whole passes makes every run measure
    each CPU, instead of whichever one it happened to land on.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS) if done is None else {CPUS[done % len(CPUS)]})


class Runner:
    """Runs whole passes over a pool, timing only the ops.

    gc.collect() runs before each op, outside its timing.  Outputs are
    checked after the pass, so the checks' memory traffic does not land
    between two timed ops.
    """

    def __init__(self, wl, pool, tracer=None):
        self.wl, self.pool, self.tracer = wl, pool, tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.item_digests: list[bytes | None] = [None] * len(pool)
        self.outcomes: list = []            # (item, output, ok) of the first traced pass
        self.done = 0                       # passes run

    def run_passes(self, min_seconds=None, passes=None, between=None):
        """Exactly `passes` more passes, or whole passes until they have
        taken min_seconds of wall time.  `between(elapsed)` runs after each
        pass, on the pass's CPU, and its time does not count."""
        elapsed = 0.0
        start = self.done
        try:
            while True:
                if passes is not None and self.done - start == passes:
                    return
                if passes is None and self.done > start and elapsed >= min_seconds:
                    return
                _pin_pass(self.done)
                t0 = time.perf_counter()
                self._pass()
                elapsed += time.perf_counter() - t0
                self.done += 1
                if between is not None:
                    between(elapsed)
        finally:
            _pin_pass(None)

    def _pass(self):
        wl, tracer = self.wl, self.tracer
        results = []
        for item in self.pool:
            gc.collect()
            output, error = None, None
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            try:
                output = tracer.op("op", wl.run, item) if tracer is not None else wl.run(item)
            except Exception:  # an op that raises counts as failed; keep running
                error = traceback.format_exc()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.on = False
            self.latencies.append(t1 - t0)
            results.append((output, error))
        for i, (item, (output, error)) in enumerate(zip(self.pool, results)):
            ok = False
            if error is None:
                try:
                    ok = bool(wl.check(item, output))
                    digest = hashlib.sha256(wl.canonical(item, output)).digest()
                except Exception:
                    error = traceback.format_exc()
                    ok = False
                else:
                    if self.item_digests[i] is None:
                        self.item_digests[i] = digest
                    elif self.item_digests[i] != digest:
                        ok = False
                        error = f"output of op {i} changed between passes"
            if not ok:
                self.failed += 1
                if self.failed == 1:
                    print(f"first failed op: {item!r:.200}\n{error or 'check failed'}",
                          file=sys.stderr)
            if tracer is not None and self.done == 0:
                self.outcomes.append((item, output, ok))

    def digest(self):
        h = hashlib.sha256()
        for d in self.item_digests:
            h.update(d or b"-")
        return h.hexdigest()


def _reference_digests(wl):
    """Digests of the default-seed pool: its first ops, and the whole pool."""
    from workloads import DEFAULT_SEED
    pool = _pool(wl, DEFAULT_SEED)
    runner = Runner(wl, pool[:wl.reference_ops])
    runner.run_passes(passes=1)
    return runner, pool


def _check_reference(wl, seed, run_digest):
    """(ok, detail): the default-seed reference ops must reproduce their recorded digest."""
    from workloads import DEFAULT_SEED
    recorded = json.loads(REFERENCE.read_text()).get(wl.name, {}) if REFERENCE.is_file() else {}
    runner, _ = _reference_digests(wl)
    detail = {"reference_digest": runner.digest(), "recorded": recorded.get("reference_digest")}
    ok = runner.failed == 0 and detail["reference_digest"] == detail["recorded"]
    if seed == DEFAULT_SEED:
        detail["recorded_pool_digest"] = recorded.get("pool_digest")
        ok = ok and run_digest == recorded.get("pool_digest")
    if not ok:
        print(f"error: {wl.name} output digest differs from {REFERENCE.name}: {detail}",
              file=sys.stderr)
    return ok, detail


def _write_reference(wl):
    wl.setup()
    gc.collect()
    gc.freeze()
    runner, pool = _reference_digests(wl)
    full = Runner(wl, pool)
    full.run_passes(passes=1)
    if runner.failed or full.failed:
        sys.exit("error: reference ops failed their checks; nothing written")
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[wl.name] = {"reference_ops": wl.reference_ops,
                     "reference_digest": runner.digest(),
                     "pool_digest": full.digest()}
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data[wl.name]))


def _best(latencies, n):
    """Each of the pool's n ops at the fastest of its repeats, one per pass."""
    return [min(latencies[i::n]) for i in range(n)]


def _tail(latencies):
    """(value, percentile): the slowest latency with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _git_head():
    """The checked-out commit, from a loose or packed ref; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _meta(args):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_head": _git_head(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _untraced(args, wl, pool):
    setups = [_timed_setup(wl)]
    # everything built so far stays alive for the whole run; freezing it keeps
    # the gc.collect() between ops from rescanning the package's tables
    gc.collect()
    gc.freeze()
    runner = Runner(wl, pool)

    def more_setups(elapsed):
        # the fresh-interpreter set-ups run between passes, spread evenly
        # over the run's time and CPUs like the ops' repeats
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(_cold_setup_in_child(wl.name))
    runner.run_passes(min_seconds=args.seconds, between=more_setups)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_cold_setup_in_child(wl.name))
    lat = runner.latencies
    passed = len(lat) - runner.failed
    # each op's latency is the fastest of its repeats, one per pass, and
    # each set-up step's time the fastest of its cold samples: on a shared
    # machine the slower repeats measure the neighbours, not nearvec
    n = len(pool)
    best = _best(lat, n)
    tail, tail_pct = _tail(best)
    metrics = {
        "ops_per_s": _metric(passed / len(lat) * n / sum(best), "1/s"),
        "op_p50_ms": _metric(statistics.median(best) * 1e3, "ms"),
        "op_tail_ms": _metric(tail * 1e3, "ms"),
        "setup_s": _metric(sum(min(step) for step in zip(*setups)), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": _metric(passed / len(lat), "ratio"),
    }
    raw_tail, raw_tail_pct = _tail(lat)
    details = {
        "passes": runner.done,
        "samples": len(lat),
        "ops": n,
        "tail_percentile": tail_pct,
        "tail_samples": n,
        "tail_samples_beyond": TAIL_BEYOND,
        "setup_steps": [name for name, _ in wl.setup_steps()],
        "setup_samples_s": setups,
        "fail_frac": runner.failed / len(lat),
        "all_repeats": {"ops_per_s": passed / sum(lat),
                        "op_p50_ms": statistics.median(lat) * 1e3,
                        "op_tail_ms": raw_tail * 1e3, "tail_percentile": raw_tail_pct},
        "latencies_ms": [round(t * 1e3, 4) for t in lat],
    }
    return runner, metrics, details


def _traced(args, wl, pool):
    from spans import Tracer, summarize

    tracer = Tracer()
    # set-up spans only: counting wrappers would inflate the witness scan
    tracer.install(counting=False)
    tracer.on = True
    wl.setup()
    tracer.on = False
    tracer.restore()
    setup_spans, tracer.spans = tracer.spans, []
    gc.collect()
    gc.freeze()

    # one pass with the call counters gives the exact counts; its times
    # are thrown away, because every scalar call pays for its counter
    counted = Runner(wl, pool, tracer)
    tracer.install(counting=True)
    try:
        counted.run_passes(passes=1)
    finally:
        tracer.restore()
    counts, steps = summarize(tracer.spans)["count"], tracer.steps
    tracer.spans = []
    # then untraced and span-only passes alternate, so both see the same machine
    plain = Runner(wl, pool)
    traced = Runner(wl, pool, tracer)
    start = time.perf_counter()
    while not plain.done or time.perf_counter() - start < args.seconds / 2:
        plain.run_passes(passes=1)
        tracer.install(counting=False)
        try:
            traced.run_passes(passes=1)
        finally:
            tracer.restore()
    spans = tracer.spans
    n_ops = len(traced.latencies)

    setup = summarize(setup_spans)
    ops = summarize(spans)
    total, self_time, direct = ops["total"], ops["self"], ops["direct"]
    per_op = lambda v: v / n_ops
    per_counted_op = lambda v: v / len(pool)
    calls = {meth: sum(c for (m, _), c in tracer.calls.items() if m == meth)
             for meth in ("mul", "add", "sub", "inv")}
    metrics = {
        "nearfield.build_s": _metric(setup["total"]["nearfield.build_nearfield"], "s"),
        "nearfield.witness_s": _metric(setup["total"]["nearfield.find_witness"], "s"),
    }
    for meth in ("mul", "add", "sub", "inv"):
        metrics[f"nearfield.{meth}_calls"] = _metric(per_counted_op(calls[meth]), "count/op")
    for meth, ns in _scalar_costs(tracer).items():
        metrics[f"nearfield.{meth}_ns"] = _metric(ns, "ns")
    metrics.update({
        "vectors.parse_s": _metric(per_op(total["vectors.matrix_parse"]), "s/op"),
        "vectors.format_s": _metric(per_op(total["vectors.matrix_format"]), "s/op"),
        "cli.self_s": _metric(per_op(self_time["cli.main"]), "s/op"),
        "seeds.build_s": _metric(per_op(total["seeds.build_seed"]), "s/op"),
        "seeds.verify_self_s": _metric(per_op(self_time["seeds.verify_seed"]), "s/op"),
        "ege.ege_s": _metric(per_op(total["ege.ege"]), "s/op"),
        "ege.replay_s": _metric(per_op(total["ege.replay"]), "s/op"),
        "ege.trace_codec_s": _metric(
            per_op(total["ege.trace_to_text"] + total["ege.trace_from_text"]), "s/op"),
        "ege.tricks": _metric(per_counted_op(steps["trick"]), "count/op"),
        "ege.row_ops": _metric(per_counted_op(steps["scale"] + steps["eliminate"]), "count/op"),
        "ege.swaps": _metric(per_counted_op(steps["swap"]), "count/op"),
        "closure.lc_index_s": _metric(per_op(total["closure.lc_index"]), "s/op"),
        "closure.lc_step_calls": _metric(per_counted_op(counts["closure.lc_step"]), "count/op"),
        "closure.lc_step_s": _metric(per_op(total["closure.lc_step"]), "s/op"),
        "closure.gen_closure_s": _metric(per_op(total["closure.gen_closure"]), "s/op"),
        "closure.warmup_s": _metric(
            sum(v for k, v in setup["root"].items() if k.startswith("closure.")), "s"),
        "linmaps.classify_s": _metric(per_op(direct["linmaps.classify"]), "s/op"),
        "linmaps.semantic_linear_s": _metric(per_op(direct["linmaps.linear_violation"]), "s/op"),
        "linmaps.semantic_normal_s": _metric(per_op(direct["linmaps.is_normal"]), "s/op"),
        "linmaps.bijective_s": _metric(per_op(direct["linmaps.is_bijective"]), "s/op"),
        "linmaps.warmup_s": _metric(
            sum(v for k, v in setup["root"].items() if k.startswith("linmaps.")), "s"),
        "counting.enumerate_s": _metric(per_op(direct["counting.enumerate_canonical"]), "s/op"),
        "counting.orbits_s": _metric(per_op(direct["counting.count_subgroup_orbits"]), "s/op"),
        "counting.count_maps_enum_s": _metric(per_op(direct["linmaps.count_maps"]), "s/op"),
    })
    metrics.update(_outcome_metrics(wl, counted.outcomes))
    metrics["trace.overhead_frac"] = _metric(
        sum(_best(traced.latencies, len(pool))) / sum(_best(plain.latencies, len(pool))) - 1,
        "ratio")
    metrics["trace.ops"] = _metric(len(pool), "count")

    with open(OUT / f"spans-{wl.name}-seed{args.seed}.json", "w") as f:
        json.dump({"setup": setup_spans, "ops": spans}, f)
    details = {"passes": traced.done, "samples": n_ops,
               "calls_by_order": {f"{m}@{o}": c for (m, o), c in sorted(tracer.calls.items())}}
    return (counted, plain, traced), metrics, details


OUTCOME_METRICS = {
    "closure.spanning_frac": "ratio", "closure.scan_ops": "count",
    "closure.mean_index": "ratio", "closure.spanning_ops": "count",
    "linmaps.agree_frac": "ratio", "linmaps.map_ops": "count",
}


def _outcome_metrics(wl, outcomes):
    """Outcome ratios with their bases; zero for workloads without them."""
    values = dict.fromkeys(OUTCOME_METRICS, 0.0)
    values.update(wl.outcome_metrics(outcomes))
    return {name: _metric(values[name], unit) for name, unit in OUTCOME_METRICS.items()}


def _scalar_costs(tracer, n=20000, repeats=7):
    """Per-call ns of mul/add/inv from a fixed seeded operand loop at each
    field order the workload used, weighted by that order's traced calls."""
    costs = {}
    for meth in ("mul", "add", "inv"):
        weighted, weights, unweighted = 0.0, 0, []
        for nf in tracer.fields:
            rng = random.Random(f"scalar:{nf.order}")
            lo = 1 if meth == "inv" else 0
            a = [rng.randrange(lo, nf.order) for _ in range(n)]
            b = [rng.randrange(nf.order) for _ in range(n)]
            fn = getattr(nf, meth)
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                if meth == "inv":
                    for x in a:
                        fn(x)
                else:
                    for x, y in zip(a, b):
                        fn(x, y)
                samples.append((time.perf_counter() - t0) / n * 1e9)
            ns = min(samples)
            w = tracer.calls[(meth, nf.order)]
            weighted += ns * w
            weights += w
            unweighted.append(ns)
        costs[meth] = (weighted / weights if weights
                       else statistics.mean(unweighted) if unweighted else 0.0)
    return costs


def main():
    from workloads import WORKLOADS, DEFAULT_SEED
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up and print it (used for the setup_s samples)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default-seed output digests in reference.json")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = _workload(args.workload)
    if args.setup_only:
        print(json.dumps(_timed_setup(wl)))
        return 0
    if args.write_reference:
        _write_reference(wl)
        return 0

    pool = _pool(wl, args.seed)
    if args.trace:
        runners, metrics, details = _traced(args, wl, pool)
    else:
        runner, metrics, details = _untraced(args, wl, pool)
        runners = (runner,)
    run_digest = runners[0].digest()
    if any(r.digest() != run_digest for r in runners):
        print("error: traced and untraced passes gave different outputs", file=sys.stderr)
        runners[-1].failed = len(runners[-1].latencies)
    ref_ok, ref_detail = _check_reference(wl, args.seed, run_digest)

    attempted = sum(len(r.latencies) for r in runners)
    failed = attempted if not ref_ok else sum(r.failed for r in runners)
    if not ref_ok and not args.trace:
        metrics["ops_per_s"]["value"] = 0.0
        metrics["pass_frac"]["value"] = 0.0
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"meta": _meta(args), "result": result, "digest": run_digest,
              "reference": ref_detail, "inputs": wl.properties(pool),
              "details": details}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"{wl.name} seed {args.seed}: digest {run_digest[:16]}, inputs {record['inputs']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
