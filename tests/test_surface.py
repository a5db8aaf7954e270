"""The package's export surface stays documented and holds what the bench reads.

README's export list names, in backticks, exactly the names in
``partition_oracle.__all__``, and each of them resolves, so the surface
cannot grow back, or shrink, unnoticed.  The benchmark's workloads reach
the package as ``po.<name>``, so each of those names must stay an
attribute of the package while the surface shrinks.  Inside the package,
the engine reaches the seed context only through its public names.
"""
from __future__ import annotations

import ast
import re

import partition_oracle
import partition_oracle.cli  # noqa: F401  (bench/run.py imports it; workloads read po.cli)

from conftest import REPO_ROOT


def test_every_export_is_named_in_readme_and_the_bench_still_resolves():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"exports\s+these\s+names\s+and\s+no\s+others:\n\n(.*?)\n\n", readme, re.S)
    assert listed
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == set(partition_oracle.__all__)
    for name in partition_oracle.__all__:
        assert hasattr(partition_oracle, name), name
    workloads = (REPO_ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")
    bench_names = set(re.findall(r"\bpo\.(\w+)", workloads))
    assert bench_names
    for name in sorted(bench_names):
        assert hasattr(partition_oracle, name), f"po.{name}"


def test_the_engine_reads_no_private_attribute_of_the_seed_context():
    """``oracle.py`` reads phases and walk lengths through the seed
    context's public tables: no ``ctx._name`` or ``self.ctx._name``, and no
    name private to ``SeedContext`` anywhere in the module."""
    tree = ast.parse((REPO_ROOT / "src/partition_oracle/oracle.py").read_text(encoding="utf-8"))
    params = partition_oracle.derive_params(0.1, 4, "explicit", {})
    ctx = partition_oracle.SeedContext(0, params)
    private = {name for name in {*vars(ctx), *vars(type(ctx))}
               if name.startswith("_") and not name.endswith("__")}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        owner = node.value
        via_ctx = (isinstance(owner, ast.Name) and owner.id == "ctx"
                   or isinstance(owner, ast.Attribute) and owner.attr == "ctx")
        assert not via_ctx and node.attr not in private, (node.lineno, node.attr)


def test_only_main_writes_a_command_output_and_times_it():
    """Each ``cmd_*`` in ``cli.py`` returns its text and exit code, and
    ``main`` alone writes that text and reads the clock, so the output
    contract lives in one place.  No other function there reads
    ``sys.stdout`` or ``time.perf_counter`` or prints to stdout."""
    tree = ast.parse((REPO_ROOT / "src/partition_oracle/cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    contract = {"sys.stdout", "time.perf_counter"}

    def reads(function: ast.FunctionDef) -> set[str]:
        found = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found.add(f"{node.value.id}.{node.attr}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print"
                  and not any(k.arg == "file" for k in node.keywords)):
                found.add("sys.stdout")
        return found

    assert len([name for name in functions if name.startswith("cmd_")]) == 6
    for name, function in functions.items():
        if name != "main":
            assert not reads(function) & contract, name
    assert reads(functions["main"]) >= contract
    assert not {"_emit_json", "_emit_csv", "_resolved_config"} & set(functions)
