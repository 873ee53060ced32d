"""README against the code: the quickstart runs as doctest examples, and the
CLI synopsis, defaults, exit codes and golden-call counts match what they
describe.  Each check reads a fenced block or a line, never a sentence."""

import argparse
import doctest
import importlib.util
import re
from pathlib import Path

from twoatom import cli, entanglement, qmat

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _line(prefix: str) -> str:
    (line,) = [line for line in TEXT.splitlines() if line.startswith(prefix)]
    return line


def _subparsers() -> dict:
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _argument(choices, takes_value: bool) -> str:
    """What follows a flag: its choices joined by '|', VALUE for a metavar, '' for none."""
    return "|".join(choices) if choices else "VALUE" if takes_value else ""


def test_quickstart_examples_give_the_values_shown():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 20


def test_synopsis_lists_every_subcommand_flag_and_choice():
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", TEXT, re.S | re.M).group(1)
    documented = {}
    for line in block.splitlines():
        if line.startswith("twoatom "):
            _, command, line = line.split(None, 2)
            usage = documented[command] = {}
        for optional, item in re.findall(r"(\[?)([^\s\[\]]+(?: [^\s\[\]]+)?)\]?", line):
            name, _, arg = item.partition(" ")
            if not name.startswith("--"):  # a positional: its choices
                name, arg = "POSITIONAL", name
            usage[name] = (not optional, _argument(arg.split("|") if "|" in arg else None, bool(arg)))
    actual = {}
    for command, parser in _subparsers().items():
        actual[command] = {
            (a.option_strings[0] if a.option_strings else "POSITIONAL"):
                (a.required, _argument(a.choices, a.nargs != 0))
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
    assert documented == actual


def test_defaults_line_gives_every_default():
    documented = dict(re.findall(r"`(--[\w-]+) ([^`]+)`", _line("Defaults: ")))
    seen = set()
    for parser in _subparsers().values():
        for a in parser._actions:
            if not a.option_strings or a.required or a.nargs == 0:
                continue
            flag = a.option_strings[0]
            if a.default is None:
                # a default that depends on another flag is named in the help
                if flag in documented:
                    assert a.help == f"default {documented[flag]}"
                    seen.add(flag)
                continue
            value = documented[flag]
            assert (a.type(value) if a.type else value) == a.default, flag
            seen.add(flag)
    assert seen == set(documented)


def test_exit_codes_are_the_constants():
    start = TEXT.index("\nExit codes")
    documented = {
        name: int(code)
        for code, name in re.findall(r"^\* `(\d+)` `(EXIT_\w+)`:", TEXT[start:], re.M)
    }
    assert documented == {k: v for k, v in vars(cli).items() if k.startswith("EXIT_")}


def test_golden_counts_match_the_script(tmp_path):
    calls, output, stdin = map(int, re.search(
        r"# (\d+) calls: (\d+) with --output, (\d+) on stdin$",
        _line("python scripts/golden_cli.py OTHER_TREE  "),
    ).groups())
    spec = importlib.util.spec_from_file_location("golden_cli", ROOT / "scripts" / "golden_cli.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    argvs = golden.golden_argvs(tmp_path)
    assert (calls, output, stdin) == (
        len(argvs), sum("--output" in a for a in argvs), sum("<" in a for a in argvs)
    )


def test_names_no_private_function_of_qmat_or_entanglement():
    """Those modules' docstrings are the one place that names their paths and checks."""
    private = [
        name for module in (qmat, entanglement) for name in vars(module)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private
    assert [name for name in private if re.search(rf"(?<!\w){re.escape(name)}(?!\w)", TEXT)] == []
