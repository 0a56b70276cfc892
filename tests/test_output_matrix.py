"""The invocation list of scripts/output_matrix.py stays valid CLI input."""

import importlib.util
from pathlib import Path

import hypnls.expcli as cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_matrix.py"


def test_output_matrix_entries_parse():
    spec = importlib.util.spec_from_file_location("output_matrix", SCRIPT)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    names = [name for name, _ in matrix.MATRIX]
    assert len(set(names)) == len(names)
    parser = cli.build_parser()
    for k, (_, argv) in enumerate(matrix.MATRIX):
        args = parser.parse_args([*argv, "--out", "unused"])
        if args.command == "plotdata":
            # the input is a file that an earlier entry writes
            assert args.input.split("/")[1] in names[:k]
        else:
            cli.resolve_config(args)
