"""Command line interface.

Five subcommands, each one `_add_command` row with its options and a
`--json` twin: list the groups and cases, compute a connection-derived
object, check a candidate solution family, sample admissible points for
a necessity argument, and audit the published tables by recomputation.
`main` decides Greek output once and maps exits in one handler: 0 (success),
1 (finding reported), 2 (usage or environment error), 3 (sampler starvation).
"""

import argparse
import json
import os
import re
import sys

from .poly import quoted
from .liealg import (
    FAMILIES, PAIRS, FrameVector, SamplerStarvation, branches, make_group,
)
from .connection import KINDS, display_name
from .classify import (
    OBJECTS,
    REPORT_SCHEMA,
    STRUCTURES,
    SolutionFamily,
    build_system,
    case_id,
    check_on_family,
    compute_object,
    register_json,
    sample_necessity,
    verify_paper_theorems,
)

# the most sampled points --trials may ask for, per case
MAX_TRIALS = 10_000

_EPILOG = (
    "parameter names: a = alpha, b = beta, g = gamma, d = delta "
    "(Greek spellings are accepted anywhere a name is read); "
    "h denotes the metric sign eta = +1 or -1 of G4"
)


def _greek_ok() -> bool:
    enc = getattr(sys.stdout, "encoding", None) or ""
    try:
        "αẽ".encode(enc)
        return True
    except (LookupError, UnicodeEncodeError):
        return False


def _parse_eta(text):
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError("eta must be +1 or -1")


def _int(text) -> int:
    # an optional sign and ASCII digits only: int() also reads "1_0" and "١"
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}")
    return int(text)


def _trials(text):
    """A --trials value: an integer from 1 to MAX_TRIALS."""
    n = _int(text)
    if not 1 <= n <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"must be an integer from 1 to {MAX_TRIALS}")
    return n


def _seed(text):
    """A --seed value: an integer >= 0; random.seed would read -n as n."""
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be an integer >= 0")
    return n


def _group(args):
    return make_group(args.family, eta=args.eta)


def _report(payload: dict) -> str:
    """A JSON report: the payload under the report schema, keys sorted."""
    return json.dumps({"schema": REPORT_SCHEMA, **payload}, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict):
    sys.stdout.write(_report(payload))


def _case_rows():
    for family in FAMILIES:
        for kind in (k for k in KINDS if k != "levi_civita"):
            for structure in STRUCTURES:
                yield case_id(family, kind, structure)


def _cmd_list(args) -> int:
    groups = [make_group(family, eta=e) for family in FAMILIES for e in branches(family)]
    if args.json:
        _emit({
            "families": [L.to_json() for L in groups],
            "connections": sorted(display_name(kind) for kind in KINDS),
            "structures": list(STRUCTURES),
            "cases": list(_case_rows()),
        })
        return 0
    for L in groups:
        print(L.label())
        for x, y in PAIRS:
            e = "ẽ" if args.greek else "e"
            print(f"  [{e}{x},{e}{y}] = {L.brackets[x, y].text(greek=args.greek)}")
        conds = [f"{p.text(greek=args.greek)} = 0" for p in L.constraints.equalities]
        conds += [f"{p.text(greek=args.greek)} {'≠' if args.greek else '!='} 0"
                  for p in L.constraints.inequations]
        if conds:
            print("  where " + ", ".join(conds))
    print()
    print("cases (family/connection/structure):")
    for row in _case_rows():
        print("  " + row)
    return 0


def _cmd_compute(args) -> int:
    L = _group(args)
    table = compute_object(L, args.connection, args.object)
    if args.json:
        _emit({
            "family": L.label(),
            "connection": display_name(args.connection),
            "object": args.object,
            "entries": {key: value.to_json() if isinstance(value, FrameVector)
                        else value.text() for key, value in table.items()},
        })
    else:
        print(f"{args.object} of {L.label()} ({display_name(args.connection)})")
        for key, value in table.items():
            print(f"  ({key}): {value.text(greek=args.greek)}")
    return 0


def _cmd_check(args) -> int:
    L = _group(args)
    system = build_system(L, args.connection, args.structure)
    family = SolutionFamily.from_text(args.solution, eta=L.eta)
    result = check_on_family(system, family)
    if args.json:
        _emit({
            "case": system.case_id,
            "solution": family.to_json(),
            **result.to_json(),
        })
    else:
        verb = "holds on" if result.holds else "fails on"
        print(f"{system.case_id} {verb} [{family.describe(greek=args.greek)}]")
        for (x, y, j), p in sorted(result.residuals.items()):
            print(f"  f({x},{y},{j}) = {p.text(greek=args.greek)}")
    return 0 if result.holds else 1


def _excluded_family(text: str, eta) -> SolutionFamily:
    """The family that --exclude text names.  An inequation that is a
    constant on the family (its assignment substituted) decides nothing
    about a point: ValueError when one is 0 ("0!=0", "a=0,a!=0"), since
    the family is then empty and excludes no point, and when the text has
    no assignment and only such constants ("1!=0", "h!=0" on G4, or no
    condition at all), since it then excludes every point."""
    family = SolutionFamily.from_text(text, eta=eta)
    nonzero = [q.substitute(family.assignment) for q in family.extra_inequations]
    if not all(nonzero):
        raise ValueError(f"--exclude {quoted(text)} can never hold, so it would "
                         "exclude no point")
    if not family.assignment and all(q.is_constant() for q in nonzero):
        raise ValueError(f"--exclude {quoted(text)} states no condition, so it would "
                         "exclude every point")
    return family


def _cmd_sample(args) -> int:
    L = _group(args)
    excluded = [_excluded_family(text, L.eta) for text in args.exclude]
    system = build_system(L, args.connection, args.structure)
    report = sample_necessity(system, excluded, args.trials, args.seed)
    if args.json:
        _emit({"case": system.case_id, "seed": args.seed, **report.to_json()})
        return 0
    print(f"{system.case_id}: {report.violations} of {report.trials} sampled "
          f"points violate the system (seed {args.seed})")
    if report.counterexample is not None:
        print("  system holds at " + report.counterexample.text())
    elif report.witness is not None:
        print("  example witness: " + report.witness.text())
    return 0


def _cmd_audit(args) -> int:
    verdicts, register = verify_paper_theorems(trials_per_case=args.trials,
                                               seed=args.seed)
    text = _report({
        "seed": args.seed,
        "trials_per_case": args.trials,
        "verdicts": [v.to_json() for v in verdicts],
        "register": register_json(register),
    })
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        sys.stdout.write(text)
    else:
        for v in verdicts:
            print(f"{v.case_id:45s} {v.anchor:22s} {v.status}")
        print()
        print(f"discrepancy register: {len(register)} entries")
        for e in register:
            print(f"  [{e.severity}] {e.location}")
            print(f"      printed:    {e.printed}")
            print(f"      recomputed: {e.recomputed}")
    return 1 if len(register) else 0


def _add_case_arguments(sub, with_structure: bool):
    sub.add_argument("--family", required=True, choices=FAMILIES)
    sub.add_argument("--eta", type=_parse_eta, default=None,
                     help="metric sign for G4: +1 or -1")
    sub.add_argument("--connection", required=True,
                     metavar="KIND", help="levi-civita, bott, canonical or "
                     "kobayashi-nomizu (aliases: lc, b, c, k, kn)")
    if with_structure:
        sub.add_argument("--structure", required=True, choices=STRUCTURES)


def _add_command(subs, name: str, text: str, func):
    """A subcommand with its help text, the shared epilog and its function."""
    sub = subs.add_parser(name, help=text, epilog=_EPILOG)
    sub.set_defaults(func=func)
    return sub


def _default_seed():
    return os.environ.get("LIECODAZZI_SEED", "0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecodazzi",
        description="Codazzi and quasi-statistical structures on the "
                    "Lorentzian Lie groups G1..G7, computed exactly.",
        epilog=_EPILOG)
    parser.add_argument("--ascii", action="store_true",
                        help="force ASCII parameter names in human output")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = [_add_command(subs, *spec) for spec in (
        ("list", "show the groups, constraints and case ids", _cmd_list),
        ("compute", "print one derived object of a connection", _cmd_compute),
        ("check", "decide a residual system on a solution family", _cmd_check),
        ("sample", "evaluate a system at random admissible points", _cmd_sample),
        ("audit", "recompute every published table and verdict", _cmd_audit))]
    _, compute, check, sample, audit = commands
    _add_case_arguments(compute, with_structure=False)
    compute.add_argument("--object", default="connection", choices=OBJECTS)

    _add_case_arguments(check, with_structure=True)
    check.add_argument("--solution", required=True,
                       help='e.g. "a=0,b=0" or "a=2*h,g!=0"; = assigns, != 0 restricts')

    _add_case_arguments(sample, with_structure=True)
    sample.add_argument("--exclude", action="append", default=[],
                        metavar="SOLUTION", help="family to sample outside of; repeatable")
    sample.add_argument("--trials", type=_trials, default=200)
    sample.add_argument("--seed", type=_seed, default=_default_seed())

    audit.add_argument("--trials", type=_trials, default=200,
                       help="sampled points per classification case")
    audit.add_argument("--seed", type=_seed, default=_default_seed())

    # --json after each subcommand's own options, and audit's --out after it
    for sub in commands:
        sub.add_argument("--json", action="store_true")
    audit.add_argument("--out", metavar="FILE", help="also write the JSON report here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    args.greek = not args.ascii and _greek_ok()
    try:
        return args.func(args)
    except (SamplerStarvation, ValueError) as exc:  # PolyError, ConstraintViolation too
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SamplerStarvation) else 2


if __name__ == "__main__":
    sys.exit(main())
