#!/usr/bin/env python3
"""Benchmark driver for the icoe reproduction.

Run one workload for a fixed time and print its metrics:

    python3 perfbench/run.py --workload paper|whatif|svc-scale \
        --seed N --seconds S --trace 0|1

from the root of a checkout. It builds perfbench/perfbench.exe with dune,
then spawns it again and again, one fresh process per measured batch
(users pay cold caches on every icoe_report call), while the next batch
is expected to end within S seconds. A batch is the whole workload, or on
paper one chunk of its harnesses (PAPER_CHUNKS); a run covers every batch
at least once. Each metric is the median over a batch's processes, summed
over batches, with times scaled by a host reference pass timed next to
each process (see adjusted()). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set (a
traced run alternates untraced and traced processes, so it also reports
the tracing overhead).

Results are also written under _perfbench/ with the host fingerprint.
Two of them are compared with

    python3 perfbench/run.py compare OLD.json NEW.json

which refuses results whose fingerprints differ. The recorded outputs
that the correctness checks compare against are regenerated with

    python3 perfbench/run.py record

See perfbench/README.md for the workloads and which per-layer metric
should move which end-to-end metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
GOLDEN = os.path.join("perfbench", "golden.txt")
GOLDEN_HEADER = """\
# Recorded outputs checked by perfbench: `paper <id> <md5 of the report>`
# and `svc <stream seed> <stream> <policy> <md5 of every sub-stream's
# jobs/s, wait p50 and wait p99 as hex floats>`.
# Regenerate with `python3 perfbench/run.py record`.
"""
OUT_DIR = "_perfbench"
WORKLOADS = ("paper", "whatif", "svc-scale")
SETUP_SAMPLES = 5  # set-up is sampled at least this often per run
# Reported times are scaled to a host on which the reference pass
# (perfbench.exe --host-ref) takes this long; see adjusted().
REF_NOMINAL_S = 0.06
PROCESS_TIMEOUT_S = 170
# svc-scale streams come from one of these recorded seeds (seed mod N),
# so every run is checked against recorded simulator outputs.
SVC_STREAM_SEEDS = 64
# paper runs its harnesses in these chunks, one fresh process each, in
# registry order: a chunk of a few seconds sits between two host
# reference passes, so the scaling follows the host's drift; a single
# ~30 s process does not (one paper process per run spread 0.49 of its
# median over ten runs on a busy host). table3 (Dlearn Mlp) cannot be
# split, since a harness is one call.
PAPER_CHUNKS = (
    ("table1", "fig2", "table2", "table3"),
    ("fig3", "fig6", "fig8", "table4", "table5", "fig9", "cretin", "md",
     "sw4"),
    ("opt",),
    ("kavg", "gpudirect", "cardioid", "hypre", "resilience"),
    ("svc", "topo", "tune"),
)
# what one op is on each workload, for ops_per_s
OP_NAME = {"paper": "harnesses_per_s", "whatif": "evals_per_s",
           "svc-scale": "jobs_per_s"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def child_env():
    env = dict(os.environ)
    # One domain unless set: with a second, idle pool domain every minor
    # collection stops both vCPUs of a shared host, and the table3 chunk
    # took 27% longer with a raw spread of 0.23 (0.09 on one domain).
    env.setdefault("ICOE_DOMAINS", "1")
    return env


def run_exe(args):
    try:
        r = subprocess.run([EXE] + args, env=child_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("process timed out: %s" % " ".join(args))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("process exited %d: %s" % (r.returncode,
                                         r.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def host_ref():
    return run_exe(["--host-ref"])["ref_s"]


def batches(workload):
    """What one process of the workload runs, cycled through in a run:
    the paper chunks, or the whole workload."""
    if workload == "paper":
        return [["--ids", ",".join(c)] for c in PAPER_CHUNKS]
    return [[]]


def spawn(workload, seed, trace, run_id, setup_only=False, chrome=None,
          batch=()):
    """One fresh process; returns its result and its set-up seconds."""
    args = ["--workload", workload, "--seed", str(seed),
            "--golden", GOLDEN, "--trace", str(trace), "--run", str(run_id)]
    args += list(batch)
    if setup_only:
        args.append("--setup-only")
    if chrome:
        args += ["--chrome", chrome]
    spawned_ns = time.monotonic_ns()
    res = run_exe(args)
    # both clocks are CLOCK_MONOTONIC: set-up runs from the spawn to the
    # first timed call
    res["setup_s"] = (int(res["t_first_ns"]) - spawned_ns) / 1e9
    return res


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def process_seed(workload, seed, i):
    """Process i of a run draws its inputs from seed + i. Run medians then
    average over several inputs: svc-scale's cost depends on how deep its
    queues get, which swings with the stream seed."""
    if workload == "svc-scale":
        return (seed + i) % SVC_STREAM_SEEDS
    return seed + i


def measure(workload, seed, seconds, trace):
    """Spawn processes, cycling through the workload's batches, while the
    next one is expected to end within `seconds`, after at least one of
    every batch. A traced run alternates untraced and traced processes,
    each pair on the same inputs. The host reference pass is timed before
    the first process and after each one; a process gets the mean of the
    two passes around it."""
    plain, traced, setup_procs = [], [], []
    todo = batches(workload)

    def chrome(i):
        """Where the first traced process of each batch writes its trace."""
        if i >= len(todo):
            return None
        chunk = "-chunk%d" % i if len(todo) > 1 else ""
        return os.path.join(OUT_DIR, "%s-seed%d%s.trace.json"
                            % (workload, seed, chunk))
    refs = [host_ref()]

    def one(i, kind, **kw):
        res = spawn(workload, process_seed(workload, seed, i),
                    1 if kind is traced else 0, len(refs) - 1,
                    batch=todo[i % len(todo)], **kw)
        refs.append(host_ref())
        res["ref_s"] = (refs[-2] + refs[-1]) / 2
        res["batch"] = i % len(todo)
        kind.append(res)

    def next_step():
        if trace and len(traced) < len(plain):
            return len(traced), traced
        return len(plain), plain

    start = time.monotonic()
    took = {}  # seconds the last process of each batch took, refs included
    while True:
        i, kind = next_step()
        b = i % len(todo)
        cycle_done = (len(plain) >= len(todo)
                      and (not trace or len(traced) >= len(todo)))
        if cycle_done and time.monotonic() - start + took[b] > seconds:
            break
        t = time.monotonic()
        one(i, kind, chrome=chrome(i) if kind is traced else None)
        took[b] = time.monotonic() - t
    if not trace:
        while len(plain) + len(setup_procs) < SETUP_SAMPLES:
            one(len(plain) + len(setup_procs), setup_procs, setup_only=True)
    return plain, traced, plain + traced + setup_procs


def adjusted(res, seconds):
    """`seconds` measured in process `res`, scaled to a host whose
    reference pass takes REF_NOMINAL_S. The shared host's speed drifts by
    tens of percent between runs, and the memory-bound reference pass
    drifts with it; scaling by it keeps that drift out of the metrics.
    The raw values are kept in the result file."""
    return seconds * REF_NOMINAL_S / res["ref_s"]


def fingerprint(procs, seed):
    fps = {json.dumps(dict(p["fingerprint"], seed=seed), sort_keys=True)
           for p in procs}
    if len(fps) != 1:
        fail("processes of one run report different fingerprints")
    return dict(json.loads(fps.pop()), nproc=nproc())


def by_batch(procs):
    out = {}
    for p in procs:
        out.setdefault(p["batch"], []).append(p)
    return [out[b] for b in sorted(out)]


def batch_wall(procs, scale):
    """The workload's wall time: the sum over batches of the median wall
    time of that batch's processes (one batch except on paper)."""
    return sum(median([scale(p, p["wall_s"]) for p in ps])
               for ps in by_batch(procs))


def e2e_metrics(plain, setups, scale):
    """The end-to-end metrics, with times passed through `scale`."""
    wall = batch_wall(plain, scale)
    groups = by_batch(plain)
    if len(groups) == 1:
        ops_per_s = median([p["ops"] / scale(p, p["wall_s"]) for p in plain])
    else:
        # every process of a batch does the same ops
        ops_per_s = sum(ps[0]["ops"] for ps in groups) / wall
    return {
        "wall_s": wall,
        "setup_s": median([scale(p, p["setup_s"]) for p in setups]),
        "ops_per_s": ops_per_s,
    }


def raw_samples(plain, setups):
    return {
        "batch": [p["batch"] for p in plain],
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in setups],
        "ops": [p["ops"] for p in plain],
        "ref_s": [p["ref_s"] for p in setups],
    }


# per-layer values that do not add up over the batches of a run
LAYER_MAX = ("gc.peak_heap_mb", "par.domains")


def layer_value(procs, name):
    """Median over each batch's processes, summed over batches (the
    maximum for LAYER_MAX)."""
    per = [median([p["layers"][name] for p in ps if name in p["layers"]]
                  or [0.0]) for ps in by_batch(procs)]
    return max(per) if name in LAYER_MAX else sum(per)


def print_self_time_table(traced):
    names = []
    for p in traced:
        for s in p["spans"]:
            if s["name"] not in names:
                names.append(s["name"])
    rows = []
    for n in names:
        per = [next((s for s in p["spans"] if s["name"] == n), None)
               for p in traced]
        per = [s for s in per if s]
        rows.append((n, median([s["calls"] for s in per]),
                     median([s["busy_s"] for s in per]),
                     median([s["self_s"] for s in per]),
                     median([s["alloc_mwords"] for s in per])))
    layers = {}
    for n, calls, busy, self_s, alloc in rows:
        layer = n.split(".")[0]
        c, b, s, a = layers.get(layer, (0, 0.0, 0.0, 0.0))
        layers[layer] = (c + calls, b + busy, s + self_s, a + alloc)
    print("per-layer self time (median of %d traced process(es)):"
          % len(traced))
    print("  %-12s %10s %12s %12s %14s" % ("layer", "calls", "busy_s",
                                         "self_s", "alloc_mwords"))
    for layer, (c, b, s, a) in sorted(layers.items(),
                                      key=lambda kv: -kv[1][2]):
        print("  %-12s %10d %12.6f %12.6f %14.3f" % (layer, c, b, s, a))
    print("per-span self time:")
    print("  %-36s %10s %12s %12s %14s" % ("span", "calls", "busy_s",
                                         "self_s", "alloc_mwords"))
    for n, c, b, s, a in rows:
        print("  %-36s %10d %12.6f %12.6f %14.3f" % (n, c, b, s, a))


def run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (expected one of %s)"
             % (args.workload, ", ".join(WORKLOADS)))
    spec = load_spec()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced, setups = measure(
        args.workload, args.seed, args.seconds, args.trace)
    procs = plain + traced
    fp = fingerprint(procs, args.seed)
    if args.workload == "paper":
        run_ids = sorted(i for c in PAPER_CHUNKS for i in c)
        if run_ids != sorted(procs[0]["paper_ids"]):
            fail("paper chunks do not cover the harness registry exactly: "
                 + " ".join(procs[0]["paper_ids"]))
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    errors = sorted({e for p in procs for e in p["errors"]})
    print("perfbench: workload=%s seed=%d processes=%d (%d traced) "
          "fingerprint=%s" % (args.workload, args.seed, len(procs),
                              len(traced), json.dumps(fp, sort_keys=True)))
    for e in errors[:10]:
        print("  error: " + e)
    metrics = {}
    if not args.trace:
        scaled = e2e_metrics(plain, setups, adjusted)
        raw = e2e_metrics(plain, setups, lambda p, s: s)
        print("  host reference pass: median %.6f s (metrics scaled to "
              "%.3f s; raw values in brackets)"
              % (median([p["ref_s"] for p in setups]), REF_NOMINAL_S))
        groups = by_batch(plain)
        for b, ps in enumerate(groups):
            xs = [adjusted(p, p["wall_s"]) for p in ps]
            q1, q3 = quartiles(xs)
            label = ("chunk %s" % ",".join(PAPER_CHUNKS[b])
                     if len(groups) > 1 else "process")
            print("  %s: wall_s median %.6f s of %d, quartiles %.6f..%.6f"
                  % (label, median(xs), len(xs), q1, q3))
        for m in spec["end_to_end"]:
            shown = m["name"]
            if shown == "ops_per_s":
                shown += " (%s)" % OP_NAME[args.workload]
            print("  %-28s %14.6f %-6s [%.6f]"
                  % (shown, scaled[m["name"]], m["unit"], raw[m["name"]]))
            metrics[m["name"]] = {"value": scaled[m["name"]],
                                  "unit": m["unit"]}
        heap = max(median([p["peak_heap_mb"] for p in ps]) for ps in groups)
        print("  %-28s %14.6f %-6s largest process median "
              "(gc.top_heap_words at exit; per-layer gc.peak_heap_mb)"
              % ("peak_heap_mb", heap, "MB"))
        print("  %-28s %14.6f %-6s %d failed of %d attempted"
              % ("error_rate", failed / attempted, "ratio", failed,
                 attempted))
    else:
        print_self_time_table(traced)
        walls = [batch_wall(ps, adjusted) for ps in (traced, plain)]
        overhead = walls[0] - walls[1]
        print("  tracing overhead: traced wall_s %.6f - untraced wall_s "
              "%.6f = %.6f s (scaled by the host reference)"
              % (walls[0], walls[1], overhead))
        derived = {"trace.overhead_s": overhead,
                   "host.ref_s": median([p["ref_s"] for p in procs])}
        for m in spec["per_layer"]:
            name = m["name"]
            v = derived[name] if name in derived else \
                layer_value(traced, name)
            metrics[name] = {"value": v, "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump({"fingerprint": fp, "trace": args.trace,
                   "seconds": args.seconds, "result": result,
                   "errors": errors,
                   "raw_samples": raw_samples(plain, setups)},
                  f, indent=1)
    print(json.dumps(result))


def compare(args):
    spec = load_spec()
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    if old["fingerprint"] != new["fingerprint"]:
        print("perfbench: refusing to compare results with different "
              "fingerprints:\n  old %s\n  new %s"
              % (json.dumps(old["fingerprint"], sort_keys=True),
                 json.dumps(new["fingerprint"], sort_keys=True)))
        sys.exit(3)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = False
    for name, m in new["result"]["metrics"].items():
        if name not in old["result"]["metrics"]:
            continue
        a = old["result"]["metrics"][name]["value"]
        b = m["value"]
        rel = (b - a) / a if a else 0.0
        verdict = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * rel > bounds[name]["bound"]:
                verdict = "WORSE (bound %.2f)" % bounds[name]["bound"]
                worse = True
        print("  %-40s %14.6f -> %14.6f %-8s %+7.1f%% %s"
              % (name, a, b, m["unit"], 100 * rel, verdict))
    sys.exit(1 if worse else 0)


def record(args):
    """Rewrite golden.txt from the current program's outputs: the paper
    report digests and the svc-scale simulator outputs of every stream
    seed."""
    build()
    lines = set()
    for w, seeds in (("paper", [0]), ("svc-scale", range(SVC_STREAM_SEEDS))):
        for s in seeds:
            lines.update(spawn(w, s, 0, 0)["observed"])
            print("recorded %s seed %d" % (w, s), file=sys.stderr)
    key = lambda l: (l.split()[0], int(l.split()[1]) if l.startswith("svc")
                     else 0, l)
    with open(GOLDEN, "w") as f:
        f.write(GOLDEN_HEADER)
        for l in sorted(lines, key=key):
            f.write(l + "\n")


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "record"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "compare":
            p.add_argument("old")
            p.add_argument("new")
            compare(p.parse_args(sys.argv[2:]))
        else:
            record(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args())


if __name__ == "__main__":
    main()
