"""The package's public surface and the documents that point into it.

Every exported name exists, the README's import works, every example
command of the README parses and validates, every command the benchmark
issues parses and validates, every function the benchmark's tracer
patches still exists, and a CLI run loads no dependency but numpy.
"""

import ast
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import zsections
from zsections.cli import build_parser, config_from_args

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
WORKER = ROOT / "perfbench" / "worker.py"


def readme_example_commands() -> list:
    """The argv of every `zsections ...` line in the README's Examples block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", text, re.S)
    assert block, "README has no Examples: ```sh block"
    return [shlex.split(line)[1:] for line in block.group(1).splitlines()
            if line.startswith("zsections ")]


def tracer_targets() -> list:
    """(module, attribute) of every entry of the tracer's TARGETS, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def benchmark_commands() -> list:
    """Every argv the benchmark can pass to the CLI: its workloads' commands and the warm-up.

    workloads.py imports only the standard library, so its source is run for
    all_commands(); worker.py's WARMUP is read with ast.  Neither is imported.
    """
    namespace = {"__name__": "workloads"}
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), namespace)
    commands = namespace["all_commands"]()
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["WARMUP"]:
            return commands + [ast.literal_eval(node.value)]
    raise AssertionError(f"{WORKER} assigns no WARMUP")


def test_every_exported_name_resolves():
    missing = [name for name in zsections.__all__ if not hasattr(zsections, name)]
    assert not missing, f"zsections.__all__ names missing attributes: {missing}"
    assert len(set(zsections.__all__)) == len(zsections.__all__)


def test_cli_loads_no_dependency_but_numpy(tmp_path):
    # numpy is the one runtime dependency: a CLI run that builds order 20,000,
    # the largest, loads no module outside the standard library but numpy's
    # and the package's own.
    src = str(Path(zsections.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "k.csv"
    code = f"""import sys
before = set(sys.modules)
import zsections.cli
assert zsections.cli.main(["coeffs", "--n", "20000", "--out", {str(out)!r}]) == 0
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
assert loaded - set(sys.stdlib_module_names) == {{"numpy", "zsections"}}, loaded
"""
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert out.stat().st_size > 0


def test_readme_library_import_block_imports():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(from zsections import \(.*?\)\n)", library, re.S)
    assert block, "README's Library section has no `from zsections import (...)` block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert "scan_zeros" in namespace


@pytest.mark.parametrize("argv", readme_example_commands(), ids=" ".join)
def test_readme_example_parses_and_validates(argv):
    # Parsing and validation only: nothing is evaluated or written.
    config = config_from_args(build_parser().parse_args(argv))
    assert config.command == argv[0]


@pytest.mark.parametrize("argv", benchmark_commands(), ids=" ".join)
def test_benchmark_command_parses_and_validates(argv):
    # The worker adds --out; a command refused here would fail the benchmark run.
    config = config_from_args(build_parser().parse_args(argv + ["--out", "bench.csv"]))
    assert config.command == argv[0]


def test_readme_has_examples_of_every_command():
    commands = {argv[0] for argv in readme_example_commands()}
    assert commands == {"eval", "figure", "zeros", "conjecture", "error-decay", "coeffs"}


def traced_layers(argv: list) -> dict:
    """The benchmark tracer's per-layer metrics of one CLI run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from zsections.cli import main

    with tracer.Tracer() as spans:
        assert main(argv) == 0
    return tracer.layer_metrics([spans.totals()], 1, [1.0])


def test_tracer_sees_each_scan_and_match_of_a_comparison(tmp_path):
    # The benchmark's per-layer metrics come from these wrapped names; a scan
    # path that bypassed scan_zeros or _greedy_match would read 0 there.
    layers = traced_layers(["zeros", "--range", "412:414:0.1", "--scheme", "em,spira",
                            "--out", str(tmp_path / "z.csv")])
    assert layers["zero_scanner.scan_zeros.calls"]["value"] == 2
    assert layers["zero_scanner.greedy_match.calls"]["value"] == 1
    assert layers["zero_scanner.brackets"]["value"] == 2  # one _bisect call per scan


def test_tracer_sees_the_coefficient_cache_of_an_accelerated_scan(tmp_path):
    # Every run of the accelerated section asks accelerated_coefficients for
    # its order, so the cache's calls and hit ratio reach the benchmark.
    layers = traced_layers(["zeros", "--range", "2000:2004:0.1", "--scheme", "acc",
                            "--out", str(tmp_path / "z.csv")])
    assert layers["acceleration_engine.accelerated_coefficients.calls"]["value"] > 0
    assert 0.0 < layers["acceleration_engine.accelerated_coefficients.cache_hit_ratio"][
        "value"] <= 1.0


@pytest.mark.parametrize("module, attribute", tracer_targets())
def test_tracer_target_resolves(module, attribute):
    owner = importlib.import_module(f"zsections.{module}")
    for name in attribute.split("."):
        assert hasattr(owner, name), f"zsections.{module} has no {attribute}"
        owner = getattr(owner, name)
    assert callable(owner)
