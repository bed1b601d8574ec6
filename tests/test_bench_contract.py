"""What the benchmark under perfbench/ needs from the package.

The benchmark wraps functions by name and drives the command line with a
fixed argv.  A rename or removal here that it still relies on would only
show as a crashed traced child, so these checks fail first and say so.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from hcomplex import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHANGE_BENCH_FIRST = "a benchmark change (perfbench/) must come first"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child_report_argv(size="8"):
    """The report argv perfbench/child.py passes to ``cli.main``, with each
    computed element (the size) replaced by ``size``."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.List)
            and node.elts
            and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value == "report"
        ):
            return [e.value if isinstance(e, ast.Constant) else size for e in node.elts]
    raise AssertionError(f"perfbench/child.py passes no report argv; {CHANGE_BENCH_FIRST}")


def test_every_traced_name_resolves():
    tracer = _tracer()
    for module, name in tracer.SPANNED + tracer.COUNTED:
        target = getattr(importlib.import_module(f"hcomplex.{module}"), name, None)
        assert callable(target), (
            f"perfbench/tracer.py traces hcomplex.{module}.{name}, which is gone; "
            f"{CHANGE_BENCH_FIRST}"
        )


def test_the_benchmark_report_argv_parses():
    argv = _child_report_argv()
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit:
        raise AssertionError(
            f"hcomplex {' '.join(argv)} no longer parses; {CHANGE_BENCH_FIRST}"
        ) from None
    assert (args.n_max, args.format) == (8, "json")
