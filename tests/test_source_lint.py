"""Static checks of ``src/oodbench`` with the standard library's ``ast``:
every import of a module is used in it, every module-level function,
class and assigned name is used somewhere in the package, so a name that
only tests read fails, every text-mode ``open`` or ``os.fdopen`` names its encoding, so no
file's bytes depend on the locale, ``cli`` writes files only through
``write_csv`` and ``write_json``, only ``numeric_core`` touches
``numpy.random``, so every draw comes from a keyed ``RngStream``, the
training stacks stay behind their boundary: ``objectives`` builds them from
plain environments, and ``trainer`` neither builds nor names one, an
``EnvDataset`` is built in one place, ``generate_env``, a sweep draws
each data seed's training and test environments in one place, for every
method, and no module compares anything with an example's name: every
per-example decision reads the example's record in
``sem_generators.EXAMPLES``."""

import ast
import pathlib

import pytest

import oodbench
from oodbench.cli import EXAMPLE_CHOICES

SOURCES = sorted(pathlib.Path(oodbench.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in SOURCES}


def _used_names(tree):
    """Names a module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_every_function_and_class_is_used_in_the_package():
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    defined = [f"{module}.{node.name}" for module, tree in TREES.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [name for name in defined if name.partition(".")[2] not in used] == []


def _module_assignments(tree):
    """Names a module binds by assignment at its top level, but
    ``__all__``: the names its plain and annotated assignments store to,
    tuple targets unpacked; an attribute or item stored to binds none."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    for target in targets:
        for node in ast.walk(target):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id != "__all__"):
                yield node.id


def test_assignment_check_reads_only_module_level_names():
    tree = ast.parse("A = 1\n"
                     "B, (C, D) = 2, (3, 4)\n"
                     "E: int = 5\n"
                     "F = G = 6\n"
                     "__all__ = ['A']\n"
                     "x.attr = 7\n"
                     "table[key] = 8\n"
                     "def f():\n"
                     "    H = 9\n"
                     "    return H\n"
                     "class K:\n"
                     "    I = 10\n")
    assert list(_module_assignments(tree)) == ["A", "B", "C", "D", "E", "F", "G"]


def test_every_module_level_name_is_read_in_the_package():
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    assigned = [f"{module}.{name}" for module, tree in TREES.items()
                for name in _module_assignments(tree)]
    assert [name for name in assigned if name.partition(".")[2] not in used] == []


def _opens(tree):
    """(line, mode, keywords) of each ``open(...)`` and ``os.fdopen(...)``
    call of a module: its mode argument's node, None if it passes none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "fdopen"):
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            yield node.lineno, mode, keywords


def _text_opens_without_encoding(tree):
    """Line numbers of the ``open(...)`` and ``os.fdopen(...)`` calls of a
    module that open a file in text mode and pass no ``encoding=``."""
    for line, mode, keywords in _opens(tree):
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        if not binary and "encoding" not in keywords:
            yield line


def test_encoding_check_flags_only_text_mode_without_encoding():
    tree = ast.parse("open(p)\n"
                     "os.fdopen(fd, 'w', newline='')\n"
                     "open(p, mode='a')\n"
                     "open(p, 'rb')\n"
                     "os.fdopen(fd, mode='wb')\n"
                     "open(p, 'w', encoding='utf-8')\n")
    assert sorted(_text_opens_without_encoding(tree)) == [1, 2, 3]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_text_open_names_its_encoding(module):
    assert list(_text_opens_without_encoding(TREES[module])) == []


def _writing_opens(tree):
    """Line numbers of the ``open(...)`` and ``os.fdopen(...)`` calls of a
    module that may write: a mode holding w, a, x or +, or a mode that is
    not a literal."""
    for line, mode, _ in _opens(tree):
        if mode is not None and (not isinstance(mode, ast.Constant)
                                 or set("wax+") & set(mode.value)):
            yield line


def test_write_check_flags_every_writing_mode():
    tree = ast.parse("open(p)\n"
                     "open(p, 'w', encoding='utf-8')\n"
                     "open(p, mode='a')\n"
                     "open(p, 'rb')\n"
                     "open(p, 'x')\n"
                     "open(p, 'r+')\n"
                     "os.fdopen(fd, 'wb')\n"
                     "open(p, m)\n"
                     "open(p, encoding='utf-8')\n")
    assert sorted(_writing_opens(tree)) == [2, 3, 5, 6, 7, 8]


def test_cli_writes_files_only_through_the_writers():
    # Every file the CLI writes goes through reporting.write_csv or
    # write_json, so a timer around write_csv covers every CSV it writes.
    tree = TREES["cli"]
    assert "atomic_write_text" not in _used_names(tree) | set(_imported_names(tree))
    assert list(_writing_opens(tree)) == []


def _numpy_random_uses(tree):
    """Line numbers where a module reaches ``numpy.random``: as the
    attribute ``np.random`` or ``numpy.random``, or by an import of it or of
    anything in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.random") for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            if (node.module.startswith("numpy.random") or node.module == "numpy"
                    and any(alias.name == "random" for alias in node.names)):
                yield node.lineno


def test_numpy_random_check_flags_every_way_in():
    tree = ast.parse("x = np.random.default_rng(0)\n"
                     "import numpy.random\n"
                     "from numpy.random import Generator\n"
                     "from numpy import random as npr\n"
                     "y = numpy.random.rand()\n"
                     "import random\n"
                     "z = rng.random(3)\n"
                     "from numpy import linalg\n")
    assert sorted(_numpy_random_uses(tree)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("module", sorted(set(TREES) - {"numeric_core"}))
def test_only_numeric_core_touches_numpy_random(module):
    assert list(_numpy_random_uses(TREES[module])) == []


def _package_imports(tree):
    """(package module, name) for each name a module imports from the
    package, at any depth: ``from .objectives import f`` and ``from
    oodbench.objectives import f`` give ("objectives", "f"), and ``from .
    import trainer`` or ``import oodbench.trainer`` give ("trainer", "*")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "oodbench":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, "*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == "oodbench" and module:
                    yield module.partition(".")[0], "*"


def test_package_import_check_reads_every_form():
    tree = ast.parse("from .objectives import EnvStack, f\n"
                     "from . import trainer\n"
                     "from oodbench.sem_generators import EnvDataset\n"
                     "import oodbench.trainer\n"
                     "import numpy.linalg\n"
                     "from numpy import linalg\n"
                     "def g():\n"
                     "    from .sem_generators import gen_2d\n")
    assert sorted(_package_imports(tree)) == [
        ("objectives", "EnvStack"), ("objectives", "f"),
        ("sem_generators", "EnvDataset"), ("sem_generators", "gen_2d"),
        ("trainer", "*"), ("trainer", "*")]


STACKS = ("EnvStack", "MomentStack")


def test_trainer_neither_imports_nor_names_a_stack():
    tree = TREES["trainer"]
    assert [name for _, name in _package_imports(tree) if name in STACKS] == []
    assert sorted(_used_names(tree) & set(STACKS)) == []


# What only entropy_lab should know of a pmf batch's padded layout and of
# the random draws that fill it.
PMF_LAYOUT = ("PmfBatch", "LabeledMixture", "row_sums", "batch_random", "to_interval")


def test_cli_neither_imports_nor_names_the_pmf_layout():
    tree = TREES["cli"]
    assert [name for _, name in _package_imports(tree) if name in PMF_LAYOUT] == []
    assert sorted(_used_names(tree) & set(PMF_LAYOUT)) == []


def test_objectives_imports_nothing_from_trainer_or_generators():
    assert [(module, name) for module, name in _package_imports(TREES["objectives"])
            if module in ("trainer", "sem_generators")] == []


def _calls_of(trees, name):
    """(module, enclosing top-level function or class, line) of each call
    of ``name``, bare or as an attribute; None outside any definition."""
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    yield module, getattr(top, "name", None), node.lineno


def test_call_check_finds_every_form():
    tree = ast.parse("def f():\n"
                     "    return EnvDataset(1)\n"
                     "class C:\n"
                     "    def g(self):\n"
                     "        return sg.EnvDataset(2)\n"
                     "x = EnvDataset\n"
                     "y = EnvDataset(3)\n")
    assert list(_calls_of({"m": tree}, "EnvDataset")) == [
        ("m", "f", 2), ("m", "C", 5), ("m", None, 7)]


def test_env_dataset_is_built_only_in_generate_env():
    assert [(module, top) for module, top, _ in _calls_of(TREES, "EnvDataset")] \
        == [("sem_generators", "generate_env")]


def test_a_sweep_draws_each_seed_in_one_place():
    # One call each, in the seed-major sweep: a second call site would be a
    # second draw of a seed's data, such as one per method.  ``generate``
    # writes the one draw of its own command.
    assert [(module, top) for module, top, _ in
            _calls_of(TREES, "generate_training_envs")] == \
        [("cli", "cmd_generate"), ("trainer", "_run_batch")]
    assert [(module, top) for module, top, _ in
            _calls_of(TREES, "default_test_envs")] == [("trainer", "_run_batch")]


def _example_name_comparisons(tree):
    """Line numbers where a module compares anything with an example's
    name, plain or scrambled: a name literal as an operand of a comparison
    or an element of a tuple, list or set operand, or as a ``case``
    pattern."""
    def named(node):
        return isinstance(node, ast.Constant) and node.value in EXAMPLE_CHOICES

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(named(elt) for op in operands
                   for elt in (op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set))
                               else [op])):
                yield node.lineno
        elif isinstance(node, ast.MatchValue) and named(node.value):
            yield node.lineno


def test_example_name_check_finds_every_form():
    tree = ast.parse("a = spec.example == 'ex1'\n"
                     "b = 'twod' != name\n"
                     "c = x in ('ex2', 'ex3')\n"
                     "d = x not in {'xor'}\n"
                     "e = x in ['ex1s']\n"
                     "match spec.example:\n"
                     "    case 'xor':\n"
                     "        pass\n"
                     "f = spec.example == 'ex9'\n"
                     "g = EXAMPLES['ex1']\n"
                     "h = x == name\n"
                     "i = task == 'regression'\n")
    assert sorted(_example_name_comparisons(tree)) == [1, 2, 3, 4, 5, 7]


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_compares_with_an_example_name(module):
    assert list(_example_name_comparisons(TREES[module])) == []
