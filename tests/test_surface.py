"""A ratchet on the library surface: every function or method defined in
src/qsphere is referenced by src/qsphere itself or by perfbench/.  A
function counts as referenced by a name, an attribute or (in perfbench/) a
dotted string; a method defined in a class only by an attribute read
(`obj.method`) in src/qsphere or a "Class.method" string in perfbench/, so
a local variable of the same name keeps no method alive.  Imports do not
count as references, so the re-exports of __init__.py keep nothing alive,
and neither does a function calling itself.  A function only tests reach
fails here; delete it or wire it into a certificate.  More
ratchets cap the `@` products, the library square-root calls and the
`workdps` uses of each module, keep mpf objects out of the package and
libmp out of the code that computes through a scalar context, keep
numpy.linalg to action.py, keep numpy out of every module but the float
ones when it loads, keep mpmath to `mpscalar` and `mpscalar` out of every
module when it loads, keep the imports of src/ and tests/ to what CI
installs, keep the adjoint action's letters to its one table,
keep every exact check to one prefix-trie walker and the exact walks off
the float tensor class, and keep the implementer sign and the adjoint step
to their one derivation in `LabelRep.step`."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qsphere"

# name -> why it stays without a caller in src/qsphere or perfbench/
ALLOWED = {
    "parse": "documented user API: text to polynomial",
    "format_poly": "documented user API: polynomial to text, parse's inverse",
    "load_matrix": "documented user API: reads the files --dump writes",
}


class _References(ast.NodeVisitor):
    """Names and attributes read in modules, outside the body of the
    function they name: `names` every one, `attrs` those read as attributes.
    With `strings`, dotted string constants count too, each part in
    `names` and each adjacent pair in `dotted`: perfbench names its wrap
    points as "module", "Class.method" strings."""

    def __init__(self, strings: bool):
        self.names, self.attrs, self.dotted = set(), set(), set()
        self.strings = strings
        self._enclosing = []

    def _ref(self, name, attr=False):
        if name not in self._enclosing:
            self.names.add(name)
            if attr:
                self.attrs.add(name)

    def visit_FunctionDef(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._ref(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._ref(node.attr, attr=True)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str):
            parts = node.value.split(".")
            for part in parts:
                self._ref(part)
            self.dotted |= set(zip(parts, parts[1:]))


def _unreached(src: dict, bench: list) -> list:
    """"module:line name" of each function defined in the modules `src`
    (module name -> text) that neither they nor the perfbench texts `bench`
    reach, bare functions by any reference and methods by an attribute in
    `src` or a "Class.method" string in `bench` (`_References`).  The
    definitions of __init__.py are checked, its references not counted."""
    here, there = _References(False), _References(True)
    for module, text in src.items():
        if module != "__init__.py":
            here.visit(ast.parse(text))
    for text in bench:
        there.visit(ast.parse(text))
    unreached = []
    for module, text in src.items():
        tree = ast.parse(text)
        owner = {id(fn): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, cls = node.name, owner.get(id(node))
            if cls is None:
                reached = name in here.names or name in there.names
            else:
                reached = name in here.attrs or (cls, name) in there.dotted
            if not (reached or name in ALLOWED or _is_dunder(name)):
                unreached.append(f"{module}:{node.lineno} {name}")
    return unreached


def _is_dunder(name: str) -> bool:
    # called by Python itself (__init__, __add__, __missing__, ...)
    return name.startswith("__") and name.endswith("__")


def test_every_function_is_reached_outside_tests():
    src = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text()
             for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unreached = _unreached(src, bench)
    assert not unreached, unreached
    # a method is kept by an attribute read or a "Class.method" string, not
    # by a bare name, a local variable or another class's method string;
    # a bare function by any of them
    toy = {"m.py": ("class C:\n    def kmin(self): pass\n"
                    "    def step(self): pass\n    def tip(self): pass\n"
                    "    def read(self): return self.tip()\n"
                    "def f(kmin, step):\n    kmin = step\n    return kmin\n"
                    "def h(): pass\nf(1, 2)\n")}
    assert sorted(_unreached(toy, ['"D.step"', "x = m.read"])) == [
        "m.py:2 kmin", "m.py:3 step", "m.py:5 read", "m.py:9 h"]
    assert _unreached(toy, ['"C.step"', '"m.C.kmin"', '"m.h"', "C.read"]
                      ) == ["m.py:5 read"]
    # __init__.py's functions are checked, but its references keep nothing
    assert _unreached({"__init__.py": "def g(): pass\nh()\n",
                       "m.py": "def h(): pass\n"}, []) == [
        "__init__.py:1 g", "m.py:1 h"]


def test_allowlist_names_exist():
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert set(ALLOWED) <= defined


# `@` products per module of src/qsphere: dense products on operators that
# are sums of weighted shifts go as the walk engine replaces them, so these
# counts may only fall (the float engine in reps.py has none, and neither do
# the casimir and theorem2 certificates)
MATMUL_CEILING = {"action": 2}


def test_matmul_counts_only_fall():
    counts = {path.stem: sum(isinstance(node, ast.MatMult)
                             for node in ast.walk(ast.parse(path.read_text())))
              for path in sorted(SRC.glob("*.py"))}
    assert counts["reps"] == 0
    over = {name: n for name, n in counts.items()
            if n > MATMUL_CEILING.get(name, 0)}
    assert not over, over


# library square-root calls per module of src/qsphere (`math.sqrt`,
# `np.sqrt`, `mp.sqrt` or a bare imported `sqrt`; a renamed import, libmp's
# `mpf_sqrt` or a scalar context's `ctx.sqrt` is not counted): every square
# root of a (1 +- q^...) factor goes through qcore._sqrt_coeff, so these
# counts may only fall (invariance has none: the adjoint action's scales and
# the ladder's coefficients take their roots in the walk's context; reps'
# is the spin-1/2 sqrt(q), cli's the residual column norms)
SQRT_CEILING = {"invariance": 0, "reps": 1, "cli": 1}
SQRT_OWNERS = {"math", "np", "numpy", "mp", "mpmath"}


def _sqrt_calls(tree) -> int:
    def is_sqrt(f):
        if isinstance(f, ast.Name):
            return f.id == "sqrt"
        return (isinstance(f, ast.Attribute) and f.attr == "sqrt"
                and isinstance(f.value, ast.Name)
                and f.value.id in SQRT_OWNERS)
    return sum(isinstance(node, ast.Call) and is_sqrt(node.func)
               for node in ast.walk(tree))


def test_sqrt_counts_only_fall():
    counts = {path.stem: _sqrt_calls(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    over = {name: n for name, n in counts.items()
            if n > SQRT_CEILING.get(name, 0)}
    assert not over, over


# `workdps` uses per module of src/qsphere (an attribute or a bare name):
# every operation of `mpscalar.MPCtx` is bound to its own precision, so no
# module needs an ambient one; these counts may only fall
WORKDPS_CEILING: dict = {}


def _workdps_uses(tree) -> int:
    return sum((isinstance(node, ast.Attribute) and node.attr == "workdps")
               or (isinstance(node, ast.Name) and node.id == "workdps")
               for node in ast.walk(tree))


def test_workdps_counts_only_fall():
    counts = {path.stem: _workdps_uses(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    over = {name: n for name, n in counts.items()
            if n > WORKDPS_CEILING.get(name, 0)}
    assert not over, over
    assert _workdps_uses(ast.parse(
        "with mp.workdps(9):\n    workdps(3)\nmp.workdps")) == 3


# mpf objects: the exact kernel computes on raw values through its scalar
# context, which builds q and q^x with libmp too, so no module imports the
# mpmath package itself (only `mpmath.libmp`) or reads `mp.mpf`,
# `mp.power` or a value's `._mpf_`; these counts may only fall
MPF_CEILING: dict = {}
MPF_NAMES = {"mpf", "power", "make_mpf", "mpc"}


def _mpf_uses(tree) -> int:
    imports = sum(
        (isinstance(node, ast.Import)
         and any(a.name in ("mpmath", "mpmath.mp") for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "mpmath")
        for node in ast.walk(tree))
    return imports + sum(
        isinstance(node, ast.Attribute) and (
            node.attr == "_mpf_" or node.attr in MPF_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in ("mp", "mpmath"))
        for node in ast.walk(tree))


def test_mpf_object_counts_only_fall():
    counts = {path.stem: _mpf_uses(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    over = {name: n for name, n in counts.items()
            if n > MPF_CEILING.get(name, 0)}
    assert not over, over
    assert _mpf_uses(ast.parse(
        "import mpmath as mp\nfrom mpmath import mpf\n"
        "from mpmath.libmp import fone\nmp.mpf(1)._mpf_\nmp.power(2, 3)"
        "\nnp.power(2, 3)")) == 5


# the code that computes through a scalar context (the coefficient
# formulas, the step tables and the trie walkers) reads only its interface,
# so the same walk runs in any context: none of it names a libmp function
# or constant, the mpmath package, or a raw value's precision
SCALAR_INTERFACE_ONLY = {
    "qcore": ("_sqrt_coeff", "tau_of", "lam_inv_of", "lam_of"),
    "ncalg": ("_expand_recipe",),
    "labels": ("LabelRep", "_z_steps", "rep_podles", "rep_bl",
               "_tensor_terms", "_StepTable", "_SegmentTables", "_label_trie",
               "tensor_residuals", "trie_walks", "combos_residuals"),
    "invariance": ("_half_lam", "combo_ad", "lambda_s",
                   "ladder_coeff", "spin2l_laws", "invariance_defects"),
}


def _libmp_names(tree) -> set:
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("mpmath")
            for a in node.names}


def _foreign_reads(node, names) -> set:
    """The names of `names`, `mp` and `mpmath`, and the attributes `prec`,
    `_mpf_` and `workdps`, read anywhere in `node`."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and (
                sub.id in names or sub.id in ("mp", "mpmath")):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and sub.attr in (
                "prec", "_mpf_", "workdps"):
            found.add(sub.attr)
    return found


def test_scalar_interface_code_names_no_libmp():
    libmp = set()
    trees = {stem: ast.parse((SRC / f"{stem}.py").read_text())
             for stem in SCALAR_INTERFACE_ONLY}
    for path in sorted(SRC.glob("*.py")):
        libmp |= _libmp_names(ast.parse(path.read_text()))
    assert {"mpf_mul", "fone", "round_nearest"} <= libmp
    for stem, names in SCALAR_INTERFACE_ONLY.items():
        defs = {node.name: node for node in trees[stem].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert set(names) <= set(defs), stem
        wrong = {name: _foreign_reads(defs[name], libmp) for name in names}
        assert not any(wrong.values()), wrong
    assert _foreign_reads(ast.parse(
        "def f(t):\n    mpf_mul(t.prec, fone)\n    mp.workdps\n"
        "    ctx.mul(a, b)._mpf_"), {"mpf_mul", "fone"}) == {
            "mpf_mul", "fone", "prec", "mp", "workdps", "_mpf_"}


def _linalg_reads(tree) -> list:
    """Line numbers where a module reads numpy.linalg: an attribute named
    linalg, or an import of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.linalg") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.linalg")
                or any(a.name == "linalg" for a in node.names)):
            lines.append(node.lineno)
    return lines


def test_linalg_only_in_action():
    # the ergodic rank decisions (SVD) and the kernel residual are the only
    # dense linear algebra; every other certificate walks weighted shifts
    reads = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.stem != "action"
             for line in _linalg_reads(ast.parse(path.read_text()))]
    assert not reads, reads
    assert _linalg_reads(ast.parse("import numpy as np\nnp.linalg.eigh(a)"))


# the modules that import numpy when they load; every other module loads
# without it, so the commands that certify in mpmath alone (relations on
# label representations, theta, functional) never import numpy
FLOAT_MODULES = {"reps", "action", "casimir", "morita"}


def _load_imports(tree) -> set:
    """The modules a module imports when it loads, by top-level name (the
    stem of a sibling for a relative import); an import inside a function
    waits for its call and does not count."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= ({node.module.split(".")[0]} if node.module
                      else {a.name for a in node.names})
        found |= _load_imports(node)
    return found


def test_numpy_loads_only_with_the_float_modules():
    loads = {path.stem: _load_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert FLOAT_MODULES <= set(loads)
    wrong = {stem: names & (FLOAT_MODULES | {"numpy"})
             for stem, names in loads.items() if stem not in FLOAT_MODULES}
    assert not any(wrong.values()), wrong
    assert _load_imports(ast.parse(
        "import numpy.linalg\nfrom . import reps\nfrom .casimir import f\n"
        "def g():\n    import scipy\nclass C:\n    import json\n"
        "if g:\n    from mpmath.libmp import fone")) == {
            "numpy", "reps", "casimir", "json", "mpmath"}


# the one module that imports mpmath; no module imports it when it loads,
# so `import qsphere.cli` and the commands that walk only floats or compute
# no operator never load mpmath (the command line imports it in `run`)
MPMATH_MODULE = "mpscalar"


def _imports(tree) -> set:
    """Every module a module imports, when it loads or in a call, by
    top-level name (the stem of a sibling for a relative import)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= ({node.module.split(".")[0]} if node.module
                      else {a.name for a in node.names})
    return found


def test_mpmath_loads_only_with_its_module():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    imports = {stem: _imports(tree) for stem, tree in trees.items()}
    assert "mpmath" in imports[MPMATH_MODULE]
    wrong = sorted(stem for stem, names in imports.items()
                   if "mpmath" in names and stem != MPMATH_MODULE)
    assert not wrong, wrong
    loads = sorted(stem for stem, tree in trees.items()
                   if MPMATH_MODULE in _load_imports(tree))
    assert not loads, loads
    toy = ast.parse("def f():\n    from mpmath.libmp import fone\n"
                    "    from . import mpscalar\nimport json")
    assert _imports(toy) == {"mpmath", "mpscalar", "json"}
    assert _load_imports(toy) == {"json"}


# the CI job installs only what its pip line names; a package that is on
# the development machine but not on that line (scipy, sympy) must not be
# imported by src/ or tests/, unless the import is guarded by an `except
# ImportError` (conftest.py's libcst)
CI_WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TESTS = ROOT / "tests"


def _ci_packages(text: str) -> set:
    """The import names of the packages the workflow's pip line installs."""
    for line in text.splitlines():
        if "pip install" in line:
            words = line.split("pip install", 1)[1].split()
            return {w.split("==")[0].lower().replace("-", "_")
                    for w in words if not w.startswith("-")}
    raise AssertionError("the workflow has no pip install line")


def _third_party_imports(tree, local: set) -> set:
    """The top-level names a module imports, anywhere in it, that are not
    the standard library's, a relative import or a name of `local`;
    imports inside a `try` that catches ImportError do not count."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                isinstance(h.type, ast.Name)
                and h.type.id in ("ImportError", "ModuleNotFoundError")
                for h in node.handlers):
            guarded |= {id(sub) for stmt in node.body
                        for sub in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - local


def test_imports_stay_within_what_ci_installs():
    installed = _ci_packages(CI_WORKFLOW.read_text())
    assert {"numpy", "mpmath", "hypothesis", "pytest"} <= installed
    local = {"qsphere"} | {path.stem for path in TESTS.glob("*.py")}
    wrong = {}
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        extra = _third_party_imports(ast.parse(path.read_text()), local)
        if extra - installed:
            wrong[path.name] = sorted(extra - installed)
    assert not wrong, wrong
    assert _ci_packages("run: python -m pip install numpy==2.4.6 "
                        "Py-Yaml\n") == {"numpy", "py_yaml"}
    toy = ("import scipy.linalg, os\nfrom . import m\nfrom mine import f\n"
           "try:\n    import libcst.x\nexcept ImportError:\n    pass\n"
           "def g():\n    import sympy\n    from numpy import eye")
    assert _third_party_imports(ast.parse(toy), {"mine"}) == {
        "scipy", "sympy", "numpy"}


def _mpc_imports(tree) -> list:
    """Line numbers where a module imports a complex (mpc_) function from
    mpmath.libmp."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("mpmath.libmp")
            and any(a.name.startswith("mpc_") for a in node.names)]


def test_exact_kernel_is_real():
    # the exact walks are real: every coefficient that reaches them is, and
    # a complex one is refused, so no module needs libmp's complex functions
    reads = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _mpc_imports(ast.parse(path.read_text()))]
    assert not reads, reads
    assert _mpc_imports(ast.parse(
        "from mpmath.libmp import fone, mpc_add\nfrom mpmath import mpf"))


def _suite_references(tree) -> dict:
    """suite_* function of a module -> the top-level functions that read
    its name (\"<module>\" for a read outside every function)."""
    suites = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("suite_")}
    refs = {name: set() for name in suites}
    for top in tree.body:
        where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id in suites
                    and isinstance(node.ctx, ast.Load)):
                refs[node.id].add(where)
    return refs


def test_each_suite_has_one_call():
    # single commands and `all` call every suite through cli._suite_calls;
    # `all` reaches ergodic through the handler that keeps the other
    # suites' reports when its monomials are dependent
    refs = _suite_references(ast.parse((SRC / "cli.py").read_text()))
    assert len(refs) == 10
    wrong = {name: where for name, where in refs.items()
             if "_suite_calls" not in where or not where <= (
                 {"_suite_calls", "_all_ergodic"}
                 if name == "suite_ergodic" else {"_suite_calls"})}
    assert not wrong, wrong
    assert _suite_references(ast.parse(
        "def suite_a(): pass\ndef _suite_calls(): suite_a\n"
        "def run(): suite_a()")) == {"suite_a": {"_suite_calls", "run"}}


def _implementer_letters(tree) -> int:
    """Tuples (<str literal>, True): a letter written as an implementer
    segment."""
    return sum(isinstance(node, ast.Tuple) and len(node.elts) == 2
               and isinstance(node.elts[0], ast.Constant)
               and isinstance(node.elts[0].value, str)
               and isinstance(node.elts[1], ast.Constant)
               and node.elts[1].value is True
               for node in ast.walk(tree))


def test_adjoint_action_letters_only_in_its_table():
    # the adjoint action's letters are written once, as plain letters in
    # `invariance._AD`, and turned into implementer segments there; no module
    # spells an implementer letter out
    counts = {path.stem: _implementer_letters(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    assert not any(counts.values()), counts
    assert _implementer_letters(ast.parse(
        'a = [("Z", True), ("X", False), (g, True), ("Zi", 1)]')) == 1


# the per-identity exact residual loop that the prefix-trie walk of
# `labels.combos_residuals` replaced, the per-path walk that the invariant
# functional's trie walk replaced, and the branching walk on the tensor
# labels and its step tables that the spin blocks of
# `labels.tensor_residuals` replaced; tests/reference_residual.py and
# tests/reference_functional.py keep them
REPLACED = ("_exact_residual", "_termwise_residual", "_combo_column",
            "_branch_walk", "walk_path", "segment_path", "_branch_trie",
            "_tensor_step")
# the second derivations of the implementer sign (float shifts, exact
# tables) and of the adjoint step that `labels.LabelRep.step` replaced
REDERIVED = ("absorb_sign", "_absorbed_step", "_adjoint_of")
TRIE_WALKERS = ("_label_trie",)
# every exact check that walks paths walks them through this one function
SHARED_WALKER = "trie_walks"
EXACT_CHECKS = ["combos_residuals", "invariance_defects"]


def _callers(tree, name) -> list:
    """The functions that call `name` by its bare name, other than `name`
    itself, once per call."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name != name:
            inner = {id(n) for sub in ast.walk(fn) if sub is not fn
                     and isinstance(sub, ast.FunctionDef)
                     for n in ast.walk(sub)}
            out += [fn.name for node in ast.walk(fn)
                    if id(node) not in inner and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == name]
    return out


def test_exact_residuals_walk_one_trie():
    # the replaced per-identity loop and per-path walk are gone from the
    # package, each trie walker is entered only from the shared walker,
    # and the shared walker only from the exact checks
    texts = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    left = {(stem, name): text.count(name) for stem, text in texts.items()
            for name in REPLACED if name in text}
    assert not left, left

    def callers(name):
        return sorted(c for text in texts.values()
                      for c in _callers(ast.parse(text), name))
    for name in TRIE_WALKERS:
        assert callers(name) == [SHARED_WALKER], (name, callers(name))
    assert callers(SHARED_WALKER) == EXACT_CHECKS
    assert _callers(ast.parse(
        "def f(): g(); h.g()\ndef g(): g()\n"
        "def k():\n    def m(): g()\n    g()"), "g") == ["f", "k", "m"]


# the modules of the exact walks, which walk label representations only:
# the coaction-tensored representation is a float class of `reps`
LABEL_ONLY = ("labels", "invariance", "mpscalar")


def test_exact_walks_name_no_tensor_representation():
    # the exact walks reach the tensor with the coaction through its spin
    # blocks on the base (`labels.tensor_residuals`) alone: no exact module
    # names the float tensor class, and the adjoint action's checks import
    # nothing from the float walks
    for stem in LABEL_ONLY:
        assert "TensorRep" not in (SRC / f"{stem}.py").read_text(), stem
    tree = ast.parse((SRC / "invariance.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "reps"]


def test_label_steps_are_derived_in_one_place():
    # the implementer sign and the adjoint step are derived by
    # `labels.LabelRep.step` alone: no module defines a second derivation
    defined = {node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & set(REDERIVED), defined & set(REDERIVED)
    assert "_adjoint_step" in defined
