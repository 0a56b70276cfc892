"""The invocation list of scripts/output_matrix.py stays valid CLI input
(the parser may refuse only a usage-error entry), and its committed
manifest covers the same entries. So do the command lines of the
benchmark's workloads (perfbench/workloads.py)."""

import importlib.util
import sys
from pathlib import Path

import hypnls.expcli as cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_matrix.py"
MANIFEST = SCRIPT.with_name("output_manifest.txt")
WORKLOADS = SCRIPT.parent.parent / "perfbench" / "workloads.py"


def _matrix():
    spec = importlib.util.spec_from_file_location("output_matrix", SCRIPT)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return matrix


def test_output_matrix_entries_parse():
    matrix = _matrix()
    names = [name for name, _ in matrix.MATRIX]
    assert len(set(names)) == len(names)
    parser = cli.build_parser()
    for k, (name, argv) in enumerate(matrix.MATRIX):
        try:
            args = parser.parse_args([*argv, "--out", "unused"])
        except cli.UsageError:
            # a usage-error entry may be one the parser refuses
            assert name.startswith("err_")
            continue
        if args.command == "plotdata":
            # the input is a file that an earlier entry writes
            assert args.input.split("/")[1] in names[:k]
        else:
            cli.resolve_config(args)


def test_benchmark_operations_parse(monkeypatch):
    # a flag cut that would make a benchmark run exit 2 fails here first
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))  # for its `import checks`
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    operations = [op for name in workloads.WORKLOADS for seed in range(3)
                  for op in workloads.build(name, seed)]
    assert len(operations) == 33
    parser = cli.build_parser()
    for op in operations:
        cli.resolve_config(parser.parse_args([*op.argv, "--out", "unused"]))


def test_manifest_covers_the_matrix():
    stamp, *lines = MANIFEST.read_text().splitlines()
    assert stamp.startswith("# numpy=")
    files = {line.split("  ", 1)[1] for line in lines}
    assert len(files) == len(lines)
    names = {name for name, _ in _matrix().MATRIX}
    assert {f.split("/")[0] for f in files} == names
    for name in names:
        for kept in ("stdout.txt", "stderr.txt", "exit_code.txt"):
            assert f"{name}/{kept}" in files
