"""The package's top-level names, and the names the benchmark binds.

The benchmark in ``bench/`` reads the library through ``liptriv.<name>``
and traces the public module-level functions of each layer by name, so
a rename or a narrowed export would break it silently.  These checks
read the bench files as text and never import or change them.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import liptriv

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC = [
    "INCONCLUSIVE",
    "LIPSCHITZ",
    "NOT_LIPSCHITZ",
    "AnalyzeOptions",
    "AuditError",
    "RingContext",
    "Verdict",
    "analyze",
    "normal_form",
    "normal_space_basis",
    "parse_matrix_germ",
    "random_direction",
    "reproduce_catalog_table",
    "unfolding_double_ideal",
    "verify_inclusion_certificate",
    "verify_witness_dense",
    "__version__",
]


def _bench_call_names() -> set[str]:
    """``layer.function`` names in ``TIMED`` (keys) and ``EXPECTED_CALLS``."""
    wanted = ("COMMON_CALLS", "TABLE_CALLS", "EXPECTED_CALLS", "TIMED")
    tree = ast.parse((BENCH / "run.py").read_text())
    body = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in wanted for t in node.targets)
    ]
    namespace: dict = {"__builtins__": {}}
    exec(compile(ast.Module(body=body, type_ignores=[]), "run.py", "exec"), namespace)
    names = set(namespace["TIMED"])
    for calls in namespace["EXPECTED_CALLS"].values():
        names.update(calls)
    return names


def test_all_is_the_documented_surface():
    assert liptriv.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(liptriv, name)


def test_bench_workload_names_resolve():
    text = (BENCH / "workloads.py").read_text()
    names = set(re.findall(r"(?<![\w.])lt\.([A-Za-z_]\w*)", text))
    assert names
    assert sorted(n for n in names if not hasattr(liptriv, n)) == []


@pytest.mark.parametrize("qualified", sorted(_bench_call_names()))
def test_bench_traced_function_is_public(qualified):
    layer, name = qualified.split(".")
    module = importlib.import_module(f"liptriv.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
    assert fn.__module__ == module.__name__


def _spans_counted_methods() -> tuple:
    """``COUNTED_METHODS`` of ``bench/spans.py``, read as a literal."""
    for node in ast.parse((BENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COUNTED_METHODS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no COUNTED_METHODS")


@pytest.mark.parametrize("layer,cls_name,key", _spans_counted_methods())
def test_bench_counted_class_defines_mul(layer, cls_name, key):
    cls = getattr(importlib.import_module(f"liptriv.{layer}"), cls_name)
    assert "__mul__" in vars(cls)


def test_bench_result_hook_names_resolve():
    text = (BENCH / "spans.py").read_text()
    names = set(re.findall(r"(?<![\w.])lt\.(\w+)\.([A-Za-z_]\w*)", text))
    assert ("curves", "Witness") in names
    for layer, name in names:
        assert hasattr(importlib.import_module(f"liptriv.{layer}"), name)


def test_bench_verdict_reads_are_fields():
    text = (BENCH / "workloads.py").read_text()
    reads = set(re.findall(r"(?<![\w.])verdict\.([A-Za-z_]\w*)", text))
    fields = {f.name for f in dataclasses.fields(liptriv.Verdict)}
    assert reads and reads <= fields
