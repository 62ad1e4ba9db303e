"""Regenerate perfbench/refs.json, the correctness references.

Run from the repository root:  python3 perfbench/make_refs.py

Run it only on a commit whose audit passes the acceptance tests: the
references pin that commit's outputs, and every later run is checked
against them.

- audit: the (case, status) map of the 42 verdicts and the 56 register
  rows as (location, severity).  Neither depends on the seed.
- derive: a digest of the canonical text of each of the 256 results.
- sample: a digest of each of the 48 SampleReports at 200 trials, for
  benchmark seeds 0..SAMPLE_SEEDS-1.  Other seeds are checked by the
  invariants and by the numeric-instance oracle on every report.
"""

import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Benchmark seeds whose sample reports are pinned digest by digest.
SAMPLE_SEEDS = 64


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    worker = _load("worker")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from liecodazzi.classify import verify_paper_theorems

    sizes = _load("run").FULL_SIZES
    verdicts, register = verify_paper_theorems(trials_per_case=sizes["audit_trials"], seed=0)
    refs = {"audit": {"verdicts": {v.case_id: v.status for v in verdicts},
                      "register": [[e.location, e.severity] for e in register]}}

    derive = worker.Derive({"seed": 0, "sizes": sizes})
    refs["derive"] = {f"{L.label()}/{kind}/{what}": worker._digest(
        worker.Derive.canonical(derive._request(L, kind, what)))
        for L, kind, what in derive.requests}

    seeds = {}
    for seed in range(SAMPLE_SEEDS):
        sample = worker.Sample({"seed": seed, "sizes": sizes})
        seeds[str(seed)] = {key: worker._digest(op().to_json())
                            for key, op in sample.ops()}
    refs["sample"] = {"trials": sizes["sample_trials"], "seeds": seeds}

    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
