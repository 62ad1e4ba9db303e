"""Source hygiene: every imported name in the package and the tests is read,
every private module-level definition of the package is read, every
public module-level function and class of the package is read by the
package or named by the benchmark, zero tests
go through vanishes_at, term merges seed no zero, no function but
poly._sum_of_products adds up products or builds a product chain in
nested loops, the package runs
generated code in one place and compiles kernels for the condition
tests alone, only the sampling entry points build a random generator,
only the three samplers draw from one, the ring operations and the
evaluator of Polynomial and the span comparison name no Fraction, the
package reads no Polynomial.terms view, and it imports no dataclasses."""

import ast
import inspect
import pathlib
import random
import re
import textwrap

import pytest

from conftest import reference_substitute

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


def definitions_and_reads(sources: dict) -> tuple:
    """The module-level functions, classes and constants of the modules in
    `sources` (name -> source text), as (module, line, name, node), and
    the names any of them reads, by name or as an attribute."""
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
            defined += [(module, node.lineno, name, node) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
    return defined, read


def unused_private_definitions(sources: dict) -> list:
    """Module-level functions, classes and constants with a private name
    (a leading underscore, not a dunder) that no module in `sources` (name
    -> source text) reads, by name or as an attribute; as (module, line, name)."""
    defined, read = definitions_and_reads(sources)
    return sorted((module, line, name) for module, line, name, _ in defined
                  if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                  and name not in read)


def test_scan_finds_unused_private_definitions():
    sources = {
        "a": ("__all__ = []\n_LIMIT = 3\n_SEEN: int = 0\ndef _helper():\n    return _LIMIT\n"
              "def _left_over():\n    pass\nclass _Old:\n    _inner = 1\n"),
        "b": "from a import _helper\nimport a\n_helper()\nprint(a._SEEN)\na._Old = 1\n",
    }
    assert unused_private_definitions(sources) == [("a", 6, "_left_over"), ("a", 8, "_Old")]


def unused_public_definitions(sources: dict, outside=frozenset()) -> list:
    """Module-level functions and classes with a public name (no leading
    underscore) that no module in `sources` (name -> source text) reads,
    by name or as an attribute, and that `outside` does not name as
    "module.name"; as (module, line, name).  Methods are not scanned: a
    read by name cannot tell which class's method it reaches."""
    defined, read = definitions_and_reads(sources)
    return sorted((module, line, name) for module, line, name, node in defined
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not name.startswith("_") and name not in read
                  and f"{module}.{name}" not in outside)


def benchmark_names() -> set:
    """Every "module.name" string written in perfbench/run.py: the names
    whose calls and times the benchmark, the package's one outside caller,
    reports.  The tracer's own list of hot names is left out: it may name
    a function the package no longer has, and would let that function
    come back unread."""
    text = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    return set(re.findall(r'"(\w+\.\w+)"', text))


def test_scan_finds_unused_public_definitions():
    sources = {
        "a": ("LIMIT = 3\ndef helper():\n    return LIMIT\ndef left_over():\n    pass\n"
              "class Old:\n    def method(self):\n        pass\n"
              "async def waited():\n    pass\ndef sampled():\n    pass\ndef _own():\n    pass\n"),
        "b": ("import a\nfrom a import helper\nhelper()\nprint(a.Old)\na.left_over = 1\n"
              "class Fresh:\n    pass\n"),
    }
    # b.left_over names no definition of a; only a.sampled is read from outside
    outside = {"a.sampled", "b.left_over"}
    assert unused_public_definitions(sources, outside) == [
        ("a", 4, "left_over"), ("a", 9, "waited"), ("b", 6, "Fresh")]
    assert ("a", 11, "sampled") in unused_public_definitions(sources)


def test_no_unused_private_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unused_private_definitions(sources) == []


def test_no_unused_public_definitions():
    # the package ships what it runs: a function or class that only the
    # tests read belongs in tests/conftest.py
    assert "liealg.sample_constraint_point" in benchmark_names()
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unused_public_definitions(sources, benchmark_names()) == []


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


def product_loops(source: str) -> list:
    """Lines where a product is added up, or a product chain is built,
    within nested for loops, as (line, enclosing function or None): a +
    or - with a * operand and an accumulator (a name or subscript)
    operand, a += or -= of a *, and a chain x = x * ... or x *= ....
    That is a sum of products computed term by term, which is what
    poly._sum_of_products is for; a loop of binary ring operations
    (Polynomial.remainder's while) has one product per step."""

    def is_product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    def accumulates(node):
        if isinstance(node, ast.AugAssign):
            return (isinstance(node.op, ast.Mult)
                    or isinstance(node.op, (ast.Add, ast.Sub)) and is_product(node.value))
        if isinstance(node, ast.Assign):
            # a chain: the target is a factor of the product it is given
            return is_product(node.value) and ast.unparse(node.targets[0]) in (
                ast.unparse(node.value.left), ast.unparse(node.value.right))
        return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and any(is_product(a) and isinstance(b, (ast.Name, ast.Subscript))
                        for a, b in ((node.left, node.right), (node.right, node.left))))

    found = set()

    def visit(node, function, depth):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, 0)
                continue
            inner = depth + isinstance(child, ast.For)
            if inner >= 2 and accumulates(child):
                found.add((child.lineno, function))
            visit(child, function, inner)

    visit(ast.parse(source), None, 0)
    return sorted(found)


def test_scan_finds_product_loops():
    source = ("def mul(p, q):\n"
              "    for e1, n1 in p.items():\n"
              "        for e2, n2 in q.items():\n"
              "            s = prod[e1 + e2] + n1 * n2\n"
              "def bilinear(X, Y, table):\n"
              "    for i, x in enumerate(X):\n"
              "        for j, y in enumerate(Y):\n"
              "            for m, t in enumerate(table[i, j]):\n"
              "                out[m] = out[m] + t * (x * y)\n"
              "def pairing(f, T, w):\n"
              "    for key in f:\n"
              "        for k, t in enumerate(T[key]):\n"
              "            total -= t * w[k]\n"
              "def remainder(p, divisors):\n"
              "    for divisor in divisors:\n"
              "        while p:\n"
              "            p = p - q * divisor\n"
              "def flat(nums):\n"
              "    for e, n in nums:\n"
              "        total += n * e\n"
              "        for k in e:\n"
              "            y = k * 2\n"
              "def substitute(nums, subs):\n"
              "    for exps, n in nums:\n"
              "        term = n\n"
              "        for i, e in enumerate(exps):\n"
              "            if e and i in subs:\n"
              "                term = term * subs[i] ** e\n"
              "            coeff[i] = subs[i] * coeff[i]\n"
              "            scaled *= e\n"
              "            other = term * e\n"
              "    for e in nums:\n"
              "        out = out * e\n")
    assert product_loops(source) == [(4, "mul"), (9, "bilinear"), (13, "pairing"),
                                     (28, "substitute"), (29, "substitute"),
                                     (30, "substitute")]
    # the term-by-term substitution that the kernel sum replaced
    lines, start = inspect.getsourcelines(reference_substitute)
    chain = next(i for i, line in enumerate(lines, start) if "term = term *" in line)
    assert product_loops(textwrap.dedent("".join(lines))) == [
        (chain - start + 1, "reference_substitute")]


def test_only_the_kernel_adds_up_products():
    # every product of polynomials is a _sum_of_products call: p * q
    # hands it one triple, a sum of products one triple per product, and
    # a substitution one triple per term; the kernel's own two lines are
    # its sum of n1 * n2 and its chain n1 *= s
    loops = [(path.name, function) for path in PACKAGE
             for _, function in product_loops(path.read_text(encoding="utf-8"))]
    assert loops == [("poly.py", "_sum_of_products")] * 2


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


def kernel_builds(source: str) -> list:
    """Calls of _make_kernel, bare or as an attribute, as (line,
    enclosing function or None, name)."""
    return calls_named(source, lambda f: "_make_kernel" if (
        isinstance(f, ast.Name) and f.id == "_make_kernel"
        or isinstance(f, ast.Attribute) and f.attr == "_make_kernel") else None)


def test_scan_finds_kernel_builds():
    source = ("def _condition_kernel(c):\n    return _make_kernel(c)\n"
              "class P:\n    def value(self):\n        return poly._make_kernel(self.form)()\n"
              "k = _make_kernel('0')\nbuild = _make_kernel\n")
    assert kernel_builds(source) == [(2, "_condition_kernel", "_make_kernel"),
                                     (5, "value", "_make_kernel"), (6, None, "_make_kernel")]


def test_only_the_condition_tests_compile_a_kernel():
    # a compiled kernel repays its build only in the sampling loops, which
    # call one condition test thousands of times; a value shown once is
    # computed from the integer form directly (Polynomial._integer_value)
    calls = [(path.name, function) for path in PACKAGE
             for _, function, _ in kernel_builds(path.read_text(encoding="utf-8"))]
    assert calls == [("poly.py", "_condition_kernel")]


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
    # the draw stream has one implementation: the bits of the _rand_pairs
    # generator; the other two samplers read only their coins, the G7
    # branch coin of _admissible_ints and the zero coin of
    # sample_family_member.  A copy of _rand_pairs elsewhere would have to
    # repeat its rejection rules exactly
    draws = {(path.name, function, method) for path in PACKAGE
             for _, function, method in generator_draws(path.read_text(encoding="utf-8"))}
    assert draws == {("liealg.py", "_rand_pairs", "getrandbits"),
                     ("liealg.py", "_admissible_ints", "random"),
                     ("classify.py", "sample_family_member", "random")}


# the Polynomial methods (and their module helper) that do the ring
# arithmetic and the evaluation on the stored integer numerators and
# denominator
INTEGER_CORE = frozenset({"__add__", "__sub__", "_merge", "__neg__", "__mul__", "scale",
                          "__pow__", "_normal", "_sum_of_products", "_integer_form",
                          "_integer_value"})


def fraction_name(node) -> str | None:
    """"Fraction" when node reads that name, bare or as an attribute
    (fractions.Fraction), else None."""
    return "Fraction" if (isinstance(node, ast.Name) and node.id == "Fraction"
                          or isinstance(node, ast.Attribute)
                          and node.attr == "Fraction") else None


def fraction_names(source: str) -> list:
    """Reads of the name Fraction, bare or as an attribute (fractions.Fraction),
    as (line, enclosing function or None, name)."""
    return nodes_named(source, fraction_name)


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


def fraction_names_within(source: str, functions) -> list:
    """Reads of the name Fraction anywhere inside the module-level
    functions named in functions, nested functions included, as (line,
    module-level function)."""
    return sorted((node.lineno, top.name) for top in ast.parse(source).body
                  if isinstance(top, ast.FunctionDef) and top.name in functions
                  for node in ast.walk(top) if fraction_name(node))


def test_scan_finds_fraction_names_within_functions():
    source = ("def _rref(rows):\n    def pivot(x):\n        return Fraction(x)\n"
              "    return [pivot(r[0]) for r in rows]\n"
              "def other():\n    return Fraction(1)\n"
              "def span(ps):\n    return fractions.Fraction(len(ps))\n")
    assert fraction_names_within(source, {"_rref", "span"}) == [(3, "_rref"), (8, "span")]


def test_the_span_comparison_names_no_fraction():
    # _rref reduces the integer rows fraction-free; a Fraction pivot would
    # bring its per-entry gcd and allocation back
    source = (ROOT / "src" / "liecodazzi" / "classify.py").read_text(encoding="utf-8")
    functions = {"_rref", "systems_equivalent"}
    assert {top.name for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)} >= functions
    assert fraction_names_within(source, functions) == []


def terms_reads(source: str) -> list:
    """Reads of an attribute named terms, as (line, enclosing function or
    None, name); a write or a method named terms is no read."""
    return nodes_named(source, lambda node: "terms" if isinstance(node, ast.Attribute)
                       and node.attr == "terms" and isinstance(node.ctx, ast.Load) else None)


def test_scan_finds_terms_reads():
    source = ("def render(p):\n    return sorted(p.terms.items())\n"
              "def size(p):\n    return len(p.terms), p.sorted_terms(), p._nums\n"
              "class Poly:\n    @property\n    def terms(self):\n        return self._nums\n"
              "x = [c for c in q.terms.values()]\np.terms = {}\nterms = 3\n")
    assert terms_reads(source) == [(2, "render", "terms"), (4, "size", "terms"),
                                   (9, None, "terms")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_the_package_reads_no_terms_view(path):
    # the integer form is the only stored form: rendering, hashing and
    # span comparison read _nums and _den, and terms is built anew on
    # each read, for callers outside the package
    assert terms_reads(path.read_text(encoding="utf-8")) == []


def dataclasses_imports(source: str) -> list:
    """Lines that import the dataclasses module, or a name from it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "dataclasses")


def test_scan_finds_dataclasses_imports():
    source = ("import os, dataclasses\nfrom dataclasses import dataclass, field\n"
              "def late():\n    import dataclasses as dc\n    return dc\n"
              "from typing import Optional\nfrom .dataclasses import x\n"
              "dataclass = None\nimport dataclasses_json\n")
    assert dataclasses_imports(source) == [1, 2, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_the_package_imports_no_dataclasses(path):
    # importing dataclasses (and the inspect module it loads) was the
    # largest part of a cold start that the package controls; records
    # derive from liealg._Record instead
    assert dataclasses_imports(path.read_text(encoding="utf-8")) == []
