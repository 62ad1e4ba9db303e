"""Source hygiene: every imported name in the package and the tests is read,
every private module-level definition of the package is read, zero tests
go through vanishes_at, term merges seed no zero, the package runs
generated code in one place, only the sampling entry points build a
random generator, only the three samplers draw from one, and the ring
operations of Polynomial name no Fraction."""

import ast
import pathlib
import random

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "liecodazzi").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import and never read; names listed in __all__
    count as read, and `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from x import y as z, w\n__all__ = ['w']\nprint(sys)\n")
    assert unused_imports(source) == [(2, "os"), (3, "z")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_definitions(sources: dict) -> list:
    """Module-level functions, classes and constants with a private name
    (a leading underscore, not a dunder) that no module in `sources` (name
    -> source text) reads, by name or as an attribute; as (module, line, name)."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_")
                        and not (name.startswith("__") and name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_scan_finds_unused_private_definitions():
    sources = {
        "a": ("__all__ = []\n_LIMIT = 3\n_SEEN: int = 0\ndef _helper():\n    return _LIMIT\n"
              "def _left_over():\n    pass\nclass _Old:\n    _inner = 1\n"),
        "b": "from a import _helper\nimport a\n_helper()\nprint(a._SEEN)\na._Old = 1\n",
    }
    assert unused_private_definitions(sources) == [("a", 6, "_left_over"), ("a", 8, "_Old")]


def test_no_unused_private_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unused_private_definitions(sources) == []


def zero_tests_through_eval_at(source: str) -> list:
    """Lines where an eval_at(...) value is only tested for zero: compared
    with 0, negated with `not`, the element of any()/all(), or the test of
    an if, while, assert or conditional expression.  Polynomial.vanishes_at
    is the one zero test; eval_at is for the values a report shows."""

    def is_eval(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "eval_at")

    def is_zero(node):
        return isinstance(node, ast.Constant) and node.value == 0

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hit = any(map(is_eval, operands)) and any(map(is_zero, operands))
        elif isinstance(node, ast.UnaryOp):
            hit = isinstance(node.op, ast.Not) and is_eval(node.operand)
        elif isinstance(node, ast.Call):
            hit = (isinstance(node.func, ast.Name) and node.func.id in ("any", "all")
                   and len(node.args) == 1
                   and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp, ast.SetComp))
                   and is_eval(node.args[0].elt))
        elif isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            hit = is_eval(node.test)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_zero_tests_through_eval_at():
    source = ("v = p.eval_at(pt)\n"
              "if p.eval_at(pt) == 0: pass\n"
              "ok = 0 != q.eval_at(pt)\n"
              "bad = not p.eval_at(pt)\n"
              "any(p.eval_at(pt) for p in ps)\n"
              "all([p.eval_at(pt) for p in ps])\n"
              "while p.eval_at(pt): pass\n"
              "x = 1 if p.eval_at(pt) else 2\n"
              "same = p.eval_at(pt) == q.eval_at(pt)\n"
              "vals = {k: p.eval_at(pt) for k, p in ps}\n"
              "z = p.vanishes_at(pt) and not q.vanishes_at(pt)\n")
    assert zero_tests_through_eval_at(source) == [2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_zero_tests_go_through_vanishes_at(path):
    assert zero_tests_through_eval_at(path.read_text(encoding="utf-8")) == []


def zero_seeded_merges(source: str) -> list:
    """Lines where a .get(key, zero) lookup is an operand of arithmetic: a
    term merge that seeds each new entry with a built zero (Fraction(0),
    Fraction() or 0) and adds to it.  The ring operations insert a new
    coefficient as it is and add only when two terms meet."""

    def is_zero(node):
        if isinstance(node, ast.Constant):
            return node.value == 0 and not isinstance(node.value, bool)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction" and not node.keywords
                and len(node.args) <= 1 and all(map(is_zero, node.args)))

    def is_seeded_get(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) == 2
                and is_zero(node.args[1]))

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp)
                  and (is_seeded_get(node.left) or is_seeded_get(node.right)))


def test_scan_finds_zero_seeded_merges():
    source = ("s = merged.get(exps, Fraction(0)) + c\n"
              "t = c1 * c2 + prod.get(exps, Fraction())\n"
              "u = terms.get(e, 0) - c\n"
              "v = terms.get(e, Fraction(0))\n"
              "w = terms.get(e, Fraction(1)) + c\n"
              "x = terms.get(e) + c\n"
              "y = [p.terms.get(m, Fraction(0)) for m in monos]\n"
              "z = merged[exps] + c if exps in merged else c\n")
    assert zero_seeded_merges(source) == [1, 2, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_ring_merges_seed_no_zero(path):
    assert zero_seeded_merges(path.read_text(encoding="utf-8")) == []


def nodes_named(source: str, name_of) -> list:
    """Nodes that name_of(node) names, as (line, enclosing function or
    None, name); name_of returns None for any other node."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = name_of(child)
            if name:
                found.append((child.lineno, function, name))
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found)


def calls_named(source: str, name_of) -> list:
    """Calls whose callee name_of(func node) names, as (line, enclosing
    function or None, name); name_of returns None for any other call."""
    return nodes_named(source, lambda node: name_of(node.func)
                       if isinstance(node, ast.Call) else None)


def dynamic_code_calls(source: str) -> list:
    """Calls of eval, exec or compile by name, as (line, enclosing
    function or None, name)."""
    return calls_named(source, lambda f: f.id if isinstance(f, ast.Name)
                       and f.id in ("eval", "exec", "compile") else None)


def test_scan_finds_dynamic_code_calls():
    source = ("def build(text):\n    exec(text, {}, {})\n"
              "def other():\n    x = eval('1')\n    return compile('1', 'f', 'eval')\n"
              "re.compile('x')\nexec('y = 1')\n")
    assert dynamic_code_calls(source) == [(2, "build", "exec"), (4, "other", "eval"),
                                          (5, "other", "compile"), (7, None, "exec")]


def test_generated_code_runs_only_in_the_kernel_builder():
    calls = [(path.name, function, name) for path in PACKAGE
             for _, function, name in dynamic_code_calls(path.read_text(encoding="utf-8"))]
    assert calls == [("poly.py", "_make_kernel", "exec")]


def rng_constructions(source: str) -> list:
    """Calls of random.Random or a bare Random, as (line, enclosing
    function or None, name)."""

    def name_of(f):
        if (isinstance(f, ast.Attribute) and f.attr == "Random"
                and isinstance(f.value, ast.Name) and f.value.id == "random"):
            return "random.Random"
        return "Random" if isinstance(f, ast.Name) and f.id == "Random" else None

    return calls_named(source, name_of)


def test_scan_finds_rng_constructions():
    source = ("import random\nfrom random import Random\n"
              "def draw(seed, rng: random.Random):\n    return random.Random(seed)\n"
              "def other():\n    x = Random(1)\n    return rng.random()\n"
              "RNG = random.Random(0)\nrandom.seed(3)\n")
    assert rng_constructions(source) == [(4, "draw", "random.Random"), (6, "other", "Random"),
                                         (8, None, "random.Random")]


def test_only_the_sampling_entry_points_build_a_generator():
    # every other verdict is exact; seeded draws start in these two places
    calls = [(path.name, function) for path in PACKAGE
             for _, function, _ in rng_constructions(path.read_text(encoding="utf-8"))]
    assert calls == [("classify.py", "sample_necessity"), ("classify.py", "_audit_branch")]


# every public method of a random.Random that reads its state to draw
DRAW_METHODS = frozenset(name for name in dir(random.Random) if not name.startswith("_")) - {
    "VERSION", "seed", "getstate", "setstate"}


def generator_draws(source: str) -> list:
    """Reads of an attribute named like a draw method of a random.Random
    (DRAW_METHODS: getrandbits, random, randint, choice, shuffle, ...),
    whether called or bound to a name, as (line, enclosing function or
    None, name)."""
    return nodes_named(source, lambda node: node.attr if isinstance(node, ast.Attribute)
                       and node.attr in DRAW_METHODS else None)


def test_scan_finds_generator_draws():
    source = ("import random\n"
              "def pair(rng: random.Random):\n    bits = rng.getrandbits\n    return bits(5)\n"
              "def coin(rng):\n    return rng.random() < 0.5 or random.random()\n"
              "x = random.Random(1).getrandbits(4)\ny = rng.randint(1, 2)\n"
              "def pick(rng, xs):\n    rng.seed(3)\n    rng.shuffle(xs)\n"
              "    return rng.choice(xs), rng.getstate(), args.seed\n")
    assert generator_draws(source) == [(3, "pair", "getrandbits"), (6, "coin", "random"),
                                       (6, "coin", "random"), (7, None, "getrandbits"),
                                       (8, None, "randint"), (11, "pick", "shuffle"),
                                       (12, "pick", "choice")]
    assert {"randrange", "choices", "sample", "uniform", "gauss", "randbytes"} <= DRAW_METHODS


def test_only_the_three_samplers_draw():
    # the draw stream has one implementation: _rand_pair, the G7 branch
    # coin of sample_constraint_point and the zero coin of
    # sample_family_member; a copy of _rand_pair elsewhere would have to
    # repeat its rejection rules exactly
    draws = {(path.name, function) for path in PACKAGE
             for _, function, _ in generator_draws(path.read_text(encoding="utf-8"))}
    assert draws == {("liealg.py", "_rand_pair"), ("liealg.py", "sample_constraint_point"),
                     ("classify.py", "sample_family_member")}


# the Polynomial methods (and their module helper) that do the ring
# arithmetic on the stored integer numerators and denominator
INTEGER_CORE = frozenset({"__add__", "__sub__", "_merge", "__neg__", "__mul__", "scale",
                          "__pow__", "_normal", "_integer_form"})


def fraction_names(source: str) -> list:
    """Reads of the name Fraction, bare or as an attribute (fractions.Fraction),
    as (line, enclosing function or None, name)."""
    return nodes_named(source, lambda node: "Fraction" if (
        isinstance(node, ast.Name) and node.id == "Fraction"
        or isinstance(node, ast.Attribute) and node.attr == "Fraction") else None)


def test_scan_finds_fraction_names():
    source = ("import fractions\nfrom fractions import Fraction\n"
              "def scale(p, c):\n    return p * Fraction(c)\n"
              "def half():\n    return fractions.Fraction(1, 2)\n"
              "def typed(c: Fraction) -> int:\n    return isinstance(c, Fraction)\n"
              "def fine(c):\n    return c.numerator, 'Fraction'\n")
    # an import binds the name without reading it; an annotation reads it
    assert fraction_names(source) == [(4, "scale", "Fraction"), (6, "half", "Fraction"),
                                      (7, "typed", "Fraction"), (8, "typed", "Fraction")]


def test_the_integer_core_names_no_fraction():
    # the ring operations keep int numerators over one int denominator;
    # a Fraction there would bring its per-operation gcd and allocation back
    source = (ROOT / "src" / "liecodazzi" / "poly.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert INTEGER_CORE <= defined, sorted(INTEGER_CORE - defined)
    assert [found for found in fraction_names(source) if found[1] in INTEGER_CORE] == []
