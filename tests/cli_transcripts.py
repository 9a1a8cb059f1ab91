"""Command-line transcripts: every pinned output of `reeb`, in one file.

`cli_transcripts.txt` holds the cases. Each case runs in a fresh directory
and names its files by relative paths. Its lines:

    === test_name        starts a case; cases named `test_name[id]` share
                         one parametrized test
    > Y.txt              a literal file: the `|` lines below it are its text
    + gen Y -o Y.txt     a fixture command: it exits 0 and prints nothing
    $ diagram Y.txt      a command, split by `shlex` and run without a shell
                         (consecutive `$` lines expect the same of each);
    | Ord0 1 2           the `|` lines below it are its exact stdout,
    ! Error: .*          its stderr, one regex per line, each matching its
                         whole line (no `!` line: stderr is empty),
    ? 0                  and its exit code, which every command states

The `>` and `+` lines above the first case set up every case's directory.
Blank lines and lines starting with `#` are skipped; any other line is an
error that names its line number. No command's stderr may hold a
`Traceback`.

`tests/test_cli.py` runs each case in-process, through click's `CliRunner`.
Run as a script, this file runs every case through the command prefix given
as its arguments, and exits 1 if any case fails:

    python tests/cli_transcripts.py reeb
    python tests/cli_transcripts.py python -m reebmetrics.cli
"""

from __future__ import annotations

import difflib
import os
import re
import shlex
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.txt")


@dataclass
class Command:
    runs: list[tuple[int, list[str]]]  # (line number, arguments) of each command line
    stdout: list[str] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)
    exit_code: Optional[int] = None


@dataclass
class Case:
    name: str
    files: dict[str, list[str]] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)


def parse(text: str) -> list[Case]:
    """The cases of a transcript; a line it cannot place is a `ValueError`
    that names the line."""
    setup = Case("")
    cases: list[Case] = []
    body: Optional[list[str]] = None  # where the next `|` line goes
    command: Optional[Command] = None  # what the next `$`, `!` or `?` line is for
    for lineno, line in enumerate(text.splitlines(), 1):
        tag, _, rest = line.partition(" ")
        case = cases[-1] if cases else setup

        def error(reason: str) -> ValueError:
            return ValueError(f"line {lineno}: {reason}: {line!r}")

        if not line.strip() or line.startswith("#"):
            continue
        if tag == "===":
            if any(case.name == rest for case in cases):
                raise error("a second case of this name")
            cases.append(Case(rest))
            body, command = None, None
        elif tag == "|" and body is not None:
            body.append(rest)
        elif tag == ">":
            body, command = [], None
            case.files[rest] = body
        elif tag in ("$", "+") and (cases or tag == "+"):
            try:
                run = (lineno, shlex.split(rest))
            except ValueError as exc:
                raise error(str(exc)) from exc
            if tag == "$" and command is not None and body == [] and body is command.stdout:
                command.runs.append(run)  # one more command that expects the same
                continue
            command = Command([run])
            case.commands.append(command)
            body = command.stdout
            if tag == "+":
                command.exit_code, body, command = 0, None, None
        elif tag == "!" and command is not None and command.exit_code is None:
            command.stderr.append(rest)
            body = None
        elif tag == "?" and command is not None and command.exit_code is None:
            if not re.fullmatch(r"-?\d+", rest):
                raise error("an exit code is an integer")
            command.exit_code, body = int(rest), None
        else:
            raise error("not a line of a case here" if cases else "outside a case")
    for case in cases:
        for command in case.commands:
            if command.exit_code is None:
                raise ValueError(f"line {command.runs[0][0]}: a command with no exit-code line")
        case.files = {**setup.files, **case.files}
        case.commands = setup.commands + case.commands
    return cases


# runs `reeb <arguments>` in a directory: (exit code, stdout, stderr)
Run = Callable[[list[str], Path], tuple[int, str, str]]


def run_case(case: Case, run: Run, directory: Path) -> list[str]:
    """Run one case in `directory`: the failures of its first failing
    command, none when it passes."""
    for name, lines in case.files.items():
        (directory / name).write_text("".join(f"{line}\n" for line in lines))
    for command in case.commands:
        expected = "".join(f"{line}\n" for line in command.stdout)
        for lineno, args in command.runs:
            code, stdout, stderr = run(args, directory)
            errors = stderr.splitlines()
            failures = []
            if stdout != expected:
                diff = difflib.unified_diff(
                    expected.splitlines(True), stdout.splitlines(True), "expected", "stdout"
                )
                failures.append("stdout differs:\n" + "".join(diff))
            if code != command.exit_code:
                failures.append(f"exit code {code}, expected {command.exit_code}")
            if "Traceback" in stderr:
                failures.append("a Traceback on stderr")
            if len(errors) != len(command.stderr) or not all(
                re.fullmatch(pattern, line) for pattern, line in zip(command.stderr, errors)
            ):
                failures.append("stderr does not match its `!` lines:\n" + stderr)
            if failures:
                where = f"{case.name}, line {lineno}: reeb {shlex.join(args)}"
                return [f"{where}: {failure}" for failure in failures]
    return []


def in_process(args: list[str], directory: Path) -> tuple[int, str, str]:
    """`reeb <args>` through click's `CliRunner`; an exception other than
    an exit goes to stderr as its traceback."""
    # imported here: run as a script, through a command prefix, this file
    # needs neither
    from click.testing import CliRunner

    from reebmetrics.cli import main

    cwd = os.getcwd()
    os.chdir(directory)
    try:
        result = CliRunner().invoke(main, args, prog_name="reeb")
    finally:
        os.chdir(cwd)
    stderr = result.stderr
    if not isinstance(result.exception, (SystemExit, type(None))):
        stderr += "".join(traceback.format_exception(*result.exc_info))
    return result.exit_code, result.stdout, stderr


def through(prefix: list[str]) -> Run:
    """Runs each command as `<prefix> <args>` in a child process."""

    def run(args: list[str], directory: Path) -> tuple[int, str, str]:
        child = subprocess.run(
            [*prefix, *args], cwd=directory, capture_output=True, text=True, timeout=600
        )
        return child.returncode, child.stdout, child.stderr

    return run


def main(prefix: list[str]) -> int:
    if not prefix:
        print("usage: python tests/cli_transcripts.py <command prefix>, e.g. reeb", file=sys.stderr)
        return 2
    cases = parse(TRANSCRIPTS.read_text())
    failed = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as directory:
            failures = run_case(case, through(prefix), Path(directory))
        if failures:
            failed += 1
            print(*failures, sep="\n")
    print(f"{len(cases) - failed} of {len(cases)} cases passed through {shlex.join(prefix)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
