"""The byte pins of the CI workflow, run in-process.

The workflow writes each pinned output with a `drinfeld ... > file`,
`>> file` or `--out file` line and checks it with an
`echo "<sha256>  file" | sha256sum -c -` line.  This test reads both kinds
of line from the workflow itself, so each hash has one copy, runs the
commands in order through cli.main in a temporary directory and checks
every pin but the full certification bundle's: that run takes 6-8 s and
is left to the workflow."""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

from drinfeld.cli import main

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
REDIRECT = re.compile(r"drinfeld (.+?) (>>?) (\S+)")
OUT = re.compile(r"drinfeld (.* --out (\S+))")
PIN = re.compile(r'echo "([0-9a-f]{64})  (\S+)" \| sha256sum -c -')
FULL_BUNDLE = ["certify-all", "--out"]


def workflow_steps():
    """("run", argv, stdout file or None, append) and ("pin", sha256, file)
    in workflow order."""
    steps = []
    for line in WORKFLOW.read_text().splitlines():
        line = line.strip()
        if m := REDIRECT.fullmatch(line):
            steps.append(("run", shlex.split(m[1]), m[3], m[2] == ">>"))
        elif m := OUT.fullmatch(line):
            steps.append(("run", shlex.split(m[1]), None, False))
        elif m := PIN.fullmatch(line):
            steps.append(("pin", m[1], m[2]))
    return steps


def test_workflow_byte_pins_hold(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = workflow_steps()
    pins = [step for step in steps if step[0] == "pin"]
    assert len(pins) >= 34, "the workflow pins fewer outputs than expected"
    skipped = set()
    checked = 0
    for step in steps:
        if step[0] == "run":
            _, argv, stdout_file, append = step
            if argv[:2] == FULL_BUNDLE and len(argv) == 3:
                skipped.add(argv[2])
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code == 0, f"drinfeld {shlex.join(argv)} exited {code}"
            if stdout_file is not None:
                with open(stdout_file, "a" if append else "w") as fh:
                    fh.write(out.getvalue())
        else:
            _, digest, name = step
            if name in skipped:
                continue
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, f"{name}: sha256 {got}, pinned {digest}"
            checked += 1
    assert skipped and checked == len(pins) - len(skipped)
