"""liecodazzi benchmark: one command runs one workload by name and seed.

    python3 perfbench/run.py --workload {audit,derive,sample} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  It needs only the standard library and
the package sources under src/.

Every run of a workload is a fresh interpreter (perfbench/worker.py), so
each pays derivation cold, as a CLI user does.  With --trace 0 the
benchmark starts workers one after another for about S seconds (at least
MIN_WORKERS) and reports the end-to-end metrics, in calibrated seconds
(see calib.py), as medians over the workers.  With --trace 1 it runs one
untraced and two traced workers and reports the per-layer metrics (see
tracer.py); the traced counts must repeat exactly.

Every output is checked against perfbench/refs.json; a wrong output or a
raised exception counts as a failed operation.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
lines before it give each metric with its unit and, as context that no
bound applies to, the raw wall seconds and slice rate of every worker,
the tail percentiles with their sample counts, failed_ratio, and
whether the outputs met pinned references (reference_check).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 150
MIN_WORKERS = 3

# Input sizes.  FULL is the benchmark; TINY keeps every check and metric
# but runs in about a second, for the benchmark's own tests.
FULL_SIZES = {"audit_trials": 200, "derive_requests": 256, "sample_trials": 200,
              "sample_cases": 48, "sample_passes": 3, "oracle_cases": 6}
TINY_SIZES = {"audit_trials": 5, "derive_requests": 24, "sample_trials": 200,
              "sample_cases": 6, "sample_passes": 1, "oracle_cases": 2}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "op_ms_p90": "ms",
                    "peak_rss_mb": "MB"}

# Per-layer metrics in the final JSON: every count and ratio, and each
# self/inclusive time that is non-zero on all three workloads.  Times that
# are structurally zero on some workload (poly.eval_self_s on derive, ...)
# are printed on the context line only.
PER_LAYER_UNITS = {
    "poly.mul_calls": "count", "poly.add_calls": "count", "poly.mul_self_s": "s",
    "poly.eval_calls": "count", "poly.eval_terms": "count",
    "poly.substitute_calls": "count",
    "liealg.make_group_calls": "count", "liealg.make_group_s": "s",
    "liealg.sample_point_calls": "count", "liealg.bracket_calls": "count",
    "connection.make_connection_calls": "count", "connection.levi_civita_calls": "count",
    "connection.self_s": "s", "connection.distinct_ratio": "ratio",
    "tensorcalc.curvature_calls": "count", "tensorcalc.ricci_calls": "count",
    "tensorcalc.cov_deriv_calls": "count", "tensorcalc.torsion_calls": "count",
    "tensorcalc.self_s": "s",
    "classify.build_system_calls": "count", "classify.build_system_s": "s",
    "classify.distinct_system_ratio": "ratio",
    "classify.sample_attempts": "count", "classify.sample_accepted": "count",
    "classify.accept_ratio": "ratio", "classify.check_on_family_calls": "count",
    "classify.rref_calls": "count",
    "trace.overhead_s": "s",
}
CONTEXT_LAYER_UNITS = {
    "poly.eval_self_s": "s", "liealg.sample_point_self_s": "s",
    "classify.sample_necessity_s": "s", "classify.check_s": "s",
    "classify.systems_equivalent_s": "s", "classify.load_data_s": "s",
    "cli.self_s": "s",
}


def _spawn(cfg):
    """Run one worker to completion; returns its result or an error text."""
    cfg = dict(cfg, spawn_t=time.perf_counter())
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(cfg)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {err.strip()[-500:]}"
    return json.loads(lines[-1]), None


def _quantile(values, q):
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"samples": n, "percentile": None, "value": None}
    p = 1 - 10 / n
    return {"samples": n, "percentile": round(100 * p, 2), "value": _quantile(values, p)}


def _calibrated(r, key):
    return r[key] * r["scale"]


def _context_worker(r):
    return {"setup_s": _calibrated(r, "setup_work_s"), "run_s": _calibrated(r, "run_work_s"),
            "setup_wall_s": r["setup_wall_s"], "run_wall_s": r["run_wall_s"],
            "slices_per_s": r["slice_count"] / (r["setup_wall_s"] + r["run_wall_s"]),
            "mean_slice_ms": 1e3 * r["slice_total_s"] / r["slice_count"],
            "scale": r["scale"]}


def end_to_end(results):
    setup = [_calibrated(r, "setup_work_s") for r in results]
    run = [_calibrated(r, "run_work_s") for r in results]
    # op_ms_p90 pools the operations of every worker: per-operation
    # medians would put the 90th percentile in the gaps between cases.
    op_ms = [1e3 * w * r["scale"] for r in results for w in r["op_work_s"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run),
        "ops_per_s": statistics.median(r["units"] / t for r, t in zip(results, run)),
        "op_ms_p90": _quantile(op_ms, 0.9),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in results),
    }
    context = {"run_s_tail": _tail(run), "op_ms_tail": _tail(op_ms),
               "workers": [_context_worker(r) for r in results]}
    return metrics, context


def per_layer(untraced, traced):
    """Per-layer metrics, the mean of the traced workers, in calibrated units."""
    def one(r):
        t = r["trace"]
        stats, counts, scale = t["stats"], t["counts"], r["scale"]

        def calls(name):
            return stats.get(name, [0, 0.0, 0.0])[0]

        def incl(*names):
            return scale * sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

        def self_s(prefix):
            return scale * sum(s[2] for n, s in stats.items() if n.startswith(prefix))

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "poly.mul_calls": calls("poly.mul"), "poly.add_calls": calls("poly.add"),
            "poly.mul_self_s": self_s("poly.mul"), "poly.eval_calls": calls("poly.eval"),
            "poly.eval_terms": counts["eval_terms"], "poly.eval_self_s": self_s("poly.eval"),
            "poly.substitute_calls": calls("poly.substitute"),
            "liealg.make_group_calls": calls("liealg.make_group"),
            "liealg.make_group_s": incl("liealg.make_group"),
            "liealg.sample_point_calls": calls("liealg.sample_constraint_point"),
            "liealg.sample_point_self_s": self_s("liealg.sample_constraint_point"),
            "liealg.bracket_calls": calls("liealg.bracket"),
            "connection.make_connection_calls": calls("connection.make_connection"),
            "connection.levi_civita_calls": calls("connection.levi_civita"),
            "connection.self_s": self_s("connection."),
            "connection.distinct_ratio": ratio(t["distinct_connections"],
                                               calls("connection.make_connection")),
            "tensorcalc.curvature_calls": calls("tensorcalc.curvature"),
            "tensorcalc.ricci_calls": calls("tensorcalc.ricci"),
            "tensorcalc.cov_deriv_calls": calls("tensorcalc.cov_deriv_02"),
            "tensorcalc.torsion_calls": calls("tensorcalc.torsion"),
            "tensorcalc.self_s": self_s("tensorcalc."),
            "classify.build_system_calls": calls("classify.build_system"),
            "classify.build_system_s": incl("classify.build_system"),
            "classify.distinct_system_ratio": ratio(t["distinct_systems"],
                                                    calls("classify.build_system")),
            "classify.sample_attempts": counts["sample_attempts"],
            "classify.sample_accepted": counts["sample_accepted"],
            "classify.accept_ratio": ratio(counts["sample_accepted"], counts["sample_attempts"]),
            "classify.sample_necessity_s": incl("classify.sample_necessity"),
            "classify.check_on_family_calls": calls("classify.check_on_family"),
            "classify.check_s": incl("classify.check_on_family"),
            "classify.systems_equivalent_s": incl("classify.systems_equivalent"),
            "classify.rref_calls": calls("classify._rref"),
            "classify.load_data_s": incl("classify.load_claims", "classify.load_printed_tables",
                                         "classify.load_printed_systems"),
            "cli.self_s": self_s("cli."),
        }

    layers = [one(r) for r in traced]
    metrics = {k: statistics.mean(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = (statistics.mean(_calibrated(r, "run_work_s") for r in traced)
                                   - _calibrated(untraced, "run_work_s"))
    counted = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
    repeat = all(c == counted[0] for c in counted)
    return metrics, repeat


def _emit(metrics, units):
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="liecodazzi benchmark")
    parser.add_argument("--workload", required=True, choices=("audit", "derive", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--refs", default=os.path.join(HERE, "refs.json"),
                        help="correctness references (default: perfbench/refs.json)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "liecodazzi", "__init__.py")):
        print("error: package sources not found under src/liecodazzi", file=sys.stderr)
        return 2
    if not os.path.isfile(args.refs):
        print(f"error: references not found: {args.refs}", file=sys.stderr)
        return 2

    sizes = TINY_SIZES if args.tiny else FULL_SIZES
    # On a seed without pinned sample reports, the run's first worker runs
    # the oracle on every report; the others must match its outputs.
    cfg = {"workload": args.workload, "seed": args.seed, "sizes": sizes,
           "refs": os.path.abspath(args.refs), "trace": False, "run_id": 0,
           "full_oracle": True}

    results, errors, attempted, failed = [], [], 0, 0
    expected_ops = {"audit": 1, "derive": sizes["derive_requests"],
                    "sample": sizes["sample_cases"] * sizes["sample_passes"]}[args.workload]

    def spawn(**extra):
        nonlocal attempted, failed
        r, err = _spawn(dict(cfg, **extra))
        cfg["full_oracle"] = False
        if r is None:
            errors.append(err)
            attempted += expected_ops
            failed += expected_ops
        else:
            attempted += r["ops"]
            failed += r["failed"]
            errors.extend(r["failures"])
        return r

    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        untraced = spawn()
        traced = [spawn(trace=True, run_id=k, spans_path=os.path.join(
                      HERE, "out", f"spans-{args.workload}-seed{args.seed}-run{k}.jsonl"))
                  for k in (1, 2)]
        results = [r for r in (untraced, *traced) if r is not None]
        if untraced is None or None in traced:
            print("error: a worker failed; no per-layer metrics", file=sys.stderr)
            for e in errors:
                print("  " + e, file=sys.stderr)
            return 1
        metrics, repeat = per_layer(untraced, traced)
        if not repeat:
            errors.append("traced counts differ between the two traced runs")
        context = {"layer_times": {k: metrics[k] for k in CONTEXT_LAYER_UNITS},
                   "workers": [_context_worker(r) for r in results]}
        units = PER_LAYER_UNITS
    else:
        start = time.perf_counter()
        walls = []
        while len(walls) < MIN_WORKERS or (
                time.perf_counter() - start + statistics.median(walls) <= args.seconds):
            t0 = time.perf_counter()
            r = spawn()
            walls.append(time.perf_counter() - t0)
            if r is not None:
                results.append(r)
        if not results:
            print("error: every worker failed", file=sys.stderr)
            for e in errors:
                print("  " + e, file=sys.stderr)
            return 1
        metrics, context = end_to_end(results)
        units = END_TO_END_UNITS

    digests = {r["run_digest"] for r in results}
    if len(digests) > 1:
        errors.append("outputs differ between workers run with the same seed")
    correct = failed == 0 and not errors
    context.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   failed_ratio=failed / attempted if attempted else 0.0,
                   reference_check=sorted({r["reference_check"] for r in results}),
                   errors=errors[:10])
    payload = _emit(metrics, units)
    print(f"failed_ratio = {context['failed_ratio']:.6g} ratio ({failed} of {attempted})")
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
