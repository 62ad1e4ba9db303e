"""One measured run of one workload, in a fresh interpreter.

Usage (from run.py):  python3 perfbench/worker.py '<json config>'

The calibration gauge starts before the package is imported.  The worker
builds the workload's inputs (set-up), runs its operations in a closed
loop with one in flight (the measured phase), then checks every output
against the references outside the timed phase.  It prints one JSON
object: raw work seconds, the gauge's slice statistics and the per-op
results; run.py turns those into calibrated metrics.

Work seconds exclude time spent in calibration slices.  The package is
driven only through its public functions.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark's own directory must not be importable from the package.
if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
    del sys.path[0]


def _load(name):
    """Load a benchmark module by path, without registering it in
    sys.modules, so the package under test cannot import it."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- workloads -------------------------------------------------------------
# Each class builds its inputs in __init__ (set-up), yields its operations
# from ops() and checks the outputs in check(), which returns one list of
# problems per operation (empty when the output is right).


class Audit:
    """The real CLI entry point, stdout captured: what users run."""

    def __init__(self, cfg):
        from liecodazzi import cli
        self.cli = cli
        self.seed = cfg["seed"]
        self.trials = cfg["sizes"]["audit_trials"]
        self.argv = ["audit", "--trials", str(self.trials), "--seed", str(self.seed), "--json"]

    def ops(self):
        yield "audit", self._audit

    def units(self, outputs):
        return sum(out is not None for out in outputs)

    def _audit(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(self.argv)
        return rc, buf.getvalue()

    def check(self, outputs, refs):
        ref = refs["audit"]
        problems = []
        for out in outputs:
            if out is None:
                problems.append(["raised"])
                continue
            rc, text = out
            bad = []
            report = json.loads(text)
            if rc != 1:
                bad.append(f"exit code {rc}, expected 1 (non-empty register)")
            verdicts = report["verdicts"]
            if len(verdicts) != 42:
                bad.append(f"{len(verdicts)} verdicts, expected 42")
            status = {v["case"]: v["status"] for v in verdicts}
            if status != ref["verdicts"]:
                wrong = sorted(k for k in set(status) | set(ref["verdicts"])
                               if status.get(k) != ref["verdicts"].get(k))
                bad.append(f"verdict status differs on {wrong[:5]}")
            rows = [[e["location"], e["severity"]] for e in report["register"]["entries"]]
            if rows != ref["register"]:
                bad.append(f"register has {len(rows)} rows; differs from the "
                           f"{len(ref['register'])}-row reference")
            if report["seed"] != self.seed or report["trials_per_case"] != self.trials:
                bad.append("report header does not echo the request")
            problems.append(bad)
        return problems

    def run_digest(self, outputs):
        return _digest("".join(text for _, text in outputs))


class Derive:
    """Every (group, connection, object | structure) request, seeded order,
    no sampling: the derivation layers alone."""

    def __init__(self, cfg):
        from liecodazzi.classify import OBJECTS, STRUCTURES, build_system, compute_object
        from liecodazzi.connection import KINDS
        from liecodazzi.liealg import FAMILIES, make_group
        self.compute_object, self.build_system = compute_object, build_system
        self.structures = STRUCTURES
        groups = [make_group(f, eta=e) for f in FAMILIES
                  for e in ((1, -1) if f == "G4" else (None,))]
        requests = [(L, kind, what) for L in groups for kind in KINDS
                    for what in OBJECTS + STRUCTURES]
        random.Random(cfg["seed"]).shuffle(requests)
        self.requests = requests[:cfg["sizes"]["derive_requests"]]

    def ops(self):
        for L, kind, what in self.requests:
            yield f"{L.label()}/{kind}/{what}", (lambda L=L, kind=kind, what=what:
                                                  self._request(L, kind, what))

    def units(self, outputs):
        return sum(out is not None for out in outputs)

    def _request(self, L, kind, what):
        if what in self.structures:
            return self.build_system(L, kind, what)
        return self.compute_object(L, kind, what)

    @staticmethod
    def canonical(result) -> str:
        if isinstance(result, dict):
            return json.dumps({k: v.text() for k, v in result.items()}, sort_keys=True)
        return json.dumps(result.to_json(), sort_keys=True)

    def check(self, outputs, refs):
        problems = []
        for (L, kind, what), result in zip(self.requests, outputs):
            if result is None:
                problems.append(["raised"])
                continue
            rid = f"{L.label()}/{kind}/{what}"
            want = refs["derive"].get(rid)
            got = _digest(self.canonical(result))
            problems.append([] if got == want else [f"{rid}: digest {got} != reference {want}"])
        return problems

    def run_digest(self, outputs):
        return _digest(sorted(_digest(self.canonical(r)) for r in outputs))


class Sample:
    """sample_necessity on every claim-branch system: evaluation and
    rejection sampling alone; the systems are built in set-up."""

    # How far check() could compare with the references; it says so when
    # the seed has no pinned reports.
    reference_check = "pinned"

    def __init__(self, cfg):
        from liecodazzi.classify import SolutionFamily, build_system, load_claims, sample_necessity
        from liecodazzi.liealg import make_group
        self.make_group, self.build_system = make_group, build_system
        self.sample_necessity = sample_necessity
        self.trials = cfg["sizes"]["sample_trials"]
        self.seed = cfg["seed"]
        systems = []
        for index, claim in enumerate(load_claims()):
            for bi, eta in enumerate(claim.branches()):
                L = make_group(claim.family, eta=eta)
                system = build_system(L, claim.connection, claim.structure)
                specs = {"families": claim.families,
                         "never": claim.recomputed_families}.get(claim.status, ())
                excluded = [SolutionFamily.from_spec(s, eta) for s in specs]
                systems.append((index, bi, claim, L, system, excluded))
        systems = systems[:cfg["sizes"]["sample_cases"]]
        # Several passes over the systems, each with its own trial seeds,
        # so that one worker measures a few seconds of sampling.
        self.cases = [(f"{p}.{index}.{bi}", claim, L, system, excluded,
                       (self.seed * 4 + p) * 100003 + index * 101 + bi)
                      for p in range(cfg["sizes"]["sample_passes"])
                      for index, bi, claim, L, system, excluded in systems]
        self.oracle_cases = cfg["sizes"]["oracle_cases"]
        self.full_oracle = cfg.get("full_oracle", False)

    def ops(self):
        for key, _, _, system, excluded, case_seed in self.cases:
            yield key, (lambda s=system, x=excluded, cs=case_seed:
                        self.sample_necessity(s, x, self.trials, cs))

    def units(self, outputs):
        return sum(r.trials for r in outputs if r is not None)

    def check(self, outputs, refs):
        pinned = refs["sample"]
        ref = pinned["seeds"].get(str(self.seed)) if pinned["trials"] == self.trials else None
        if ref is None:
            self.reference_check = (f"no pinned sample reports for seed {self.seed} at "
                                    f"{self.trials} trials: invariants, the oracle on every "
                                    f"report of the first worker, equal reports in all workers")
        problems = []
        for (key, *_), report in zip(self.cases, outputs):
            if report is None:
                problems.append(["raised"])
                continue
            bad = []
            if report.trials != self.trials:
                bad.append(f"{report.trials} points evaluated, {self.trials} requested")
            if report.violations + report.satisfied != report.trials:
                bad.append("violations + satisfied != trials")
            if (report.witness is None) != (report.violations == 0):
                bad.append("witness present iff some point violates")
            if (report.counterexample is None) != (report.satisfied == 0):
                bad.append("counterexample present iff some point satisfies")
            if ref is not None and _digest(report.to_json()) != ref.get(key):
                bad.append(f"case {key}: report differs from the seed-{self.seed} reference")
            problems.append(bad)
        # independent oracle: rebuild the cases on the numeric instance at
        # the reported point and compare the residuals; every case when the
        # reports are not pinned and full_oracle is set, else a seeded subset
        done = [i for i, r in enumerate(outputs) if r is not None]
        chosen = (done if ref is None and self.full_oracle else
                  random.Random(self.seed).sample(done, min(self.oracle_cases, len(done))))
        for i in chosen:
            _, claim, L, _, _, _ = self.cases[i]
            report = outputs[i]
            for point, expected in ((report.witness, report.witness_residuals),
                                    (report.counterexample, None)):
                if point is None:
                    continue
                numeric = self.build_system(
                    self.make_group(L.family, eta=L.eta, numeric_params=point),
                    claim.connection, claim.structure)
                for k, p in numeric.entries.items():
                    want = expected[k] if expected is not None else 0
                    if not p.is_constant() or p.constant_value() != want:
                        problems[i].append(f"case {self.cases[i][0]}: numeric instance "
                                           f"residual {k} = {p.text()}, report says {want}")
                        break
        return problems

    def run_digest(self, outputs):
        return _digest([r.to_json() for r in outputs])


WORKLOADS = {"audit": Audit, "derive": Derive, "sample": Sample}


# -- the run -----------------------------------------------------------------


def run(cfg, gauge):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import liecodazzi.classify
    import liecodazzi.cli
    import liecodazzi.connection
    import liecodazzi.liealg
    import liecodazzi.poly
    import liecodazzi.tensorcalc

    tracer = None
    if cfg["trace"]:
        tracer = _load("tracer").Tracer(gauge, cfg["run_id"])
        tracer.install([liecodazzi.poly, liecodazzi.liealg, liecodazzi.connection,
                        liecodazzi.tensorcalc, liecodazzi.classify, liecodazzi.cli],
                       liecodazzi.poly.Polynomial)
    workload = WORKLOADS[cfg["workload"]](cfg)

    clock = time.perf_counter
    t_first = clock()
    slices_first = gauge.total_s
    names, outputs, op_work, errors = [], [], [], {}
    for name, op in workload.ops():
        c0 = gauge.total_s
        t0 = clock()
        try:
            out = op()
        except Exception as exc:  # counted as a failed operation, run goes on
            out = None
            errors[len(names)] = f"{name}: {type(exc).__name__}: {exc}"
        t1 = clock()
        op_work.append(t1 - t0 - (gauge.total_s - c0))
        names.append(name)
        outputs.append(out)
    t_end = clock()
    slices_end = gauge.total_s
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.summary()
        if cfg.get("spans_path"):
            with open(cfg["spans_path"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "run"),
                                                 span))) + "\n")

    with open(cfg["refs"], encoding="utf-8") as fh:
        refs = json.load(fh)
    try:
        problems = workload.check(outputs, refs)
        run_digest = workload.run_digest(outputs) if not errors else None
    except Exception as exc:  # a malformed output that the checks cannot read
        problems = [[f"check raised {type(exc).__name__}: {exc}"] for _ in outputs]
        run_digest = None
    for i, msg in errors.items():
        problems[i] = [msg]
    failures = [p[0] for p in problems if p]
    return {
        "workload": cfg["workload"],
        "seed": cfg["seed"],
        "setup_wall_s": t_first - cfg["spawn_t"],
        "setup_work_s": t_first - cfg["spawn_t"] - slices_first,
        "run_wall_s": t_end - t_first,
        "run_work_s": t_end - t_first - (slices_end - slices_first),
        "op_work_s": op_work,
        "ops": len(outputs),
        "units": workload.units(outputs),
        "failed": len(failures),
        "failures": failures[:5],
        "run_digest": run_digest,
        "rss_kb": rss_kb,
        "slice_count": gauge.count,
        "slice_total_s": gauge.total_s,
        "scale": gauge.scale(),
        "reference_check": getattr(workload, "reference_check", "pinned"),
        "trace": trace,
    }


def main():
    gauge = _load("calib").Gauge()
    gauge.start()
    try:
        result = run(json.loads(sys.argv[1]), gauge)
    finally:
        gauge.stop()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
