"""The package names the benchmark harness reads still exist.

perfbench/selftest.py runs the harness end to end but is too slow for the
default test run; this catches a renamed or deleted name in a second.  The
names are read from perfbench's own source, so a new read is checked too.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chain(node):
    """The dotted parts of a Name.attr.attr... expression, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _reads(tree, reads):
    aliases = {}  # local name -> the padicsums path it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "padicsums":
                    aliases[a.asname or "padicsums"] = a.name if a.asname else "padicsums"
                    reads.add(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "padicsums":
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
                reads.add(f"{node.module}.{a.name}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "import padicsums" in node.value:
            _reads(ast.parse(node.value), reads)  # code run in a subprocess, such as run.py's SETUP_CODE
    for node in ast.walk(tree):
        parts = _chain(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in aliases:
            reads.add(".".join([aliases[parts[0]], *parts[1:]]))


def perfbench_reads() -> set[str]:
    """Every padicsums.* chain that perfbench/*.py imports or reads through an imported name."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        _reads(ast.parse(path.read_text(), str(path)), reads)
    return reads


def resolve(dotted: str):
    """The object a padicsums.* chain names, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def test_perfbench_reads_existing_names():
    reads = perfbench_reads()
    assert {"padicsums.verify.check_carry_bound", "padicsums.polysum.IntPolynomial.monomial"} <= reads
    missing = []
    for dotted in sorted(reads):
        try:
            resolve(dotted)
        except (ImportError, AttributeError):
            missing.append(dotted)
    assert not missing, f"perfbench reads names padicsums no longer has: {missing}"
    # tracer.py names its targets by module and function strings
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    orig = tracer.originals()
    assert set(orig) == {t.name for t in tracer.TARGETS} and all(map(callable, orig.values()))
