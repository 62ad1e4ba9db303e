"""The examples of README.md run as documented: every command of the
"Command line" block with its exit code, the "Typical output"
transcripts verbatim, and the "Library" block."""

import pathlib
import re
import shlex

import pytest

from liecodazzi.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# the exit code each documented subcommand returns: audit reports its
# non-empty discrepancy register
EXIT_CODES = {"list": 0, "compute": 0, "check": 0, "sample": 0, "audit": 1}


def section_blocks(heading: str) -> list:
    """The fenced code blocks of a "## heading" section, as (language, body)."""
    body = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```(\w*)\n(.*?)^```$", body, flags=re.M | re.S)


def command_lines() -> list:
    (lang, body), *_ = section_blocks("Command line")
    assert lang == "sh"
    return [shlex.split(line, comments=True) for line in body.splitlines()
            if line.startswith("liecodazzi ")]


def transcripts() -> list:
    """The "Typical output" examples, as (argv, expected stdout)."""
    (_, body), = [b for b in section_blocks("Command line") if b[0] == ""]
    out = []
    for chunk in body.strip("\n").split("\n\n"):
        command, *lines = chunk.splitlines()
        assert command.startswith("$ liecodazzi ")
        out.append((shlex.split(command[2:]), "".join(line + "\n" for line in lines)))
    return out


COMMANDS = command_lines()
TRANSCRIPTS = transcripts()


def test_readme_documents_every_subcommand():
    assert sorted(argv[1] for argv in COMMANDS) == sorted(EXIT_CODES)
    assert len(TRANSCRIPTS) == 2


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == EXIT_CODES[argv[1]]
    assert capsys.readouterr().err == ""
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()


@pytest.mark.parametrize("argv, expected", TRANSCRIPTS,
                         ids=[" ".join(argv) for argv, _ in TRANSCRIPTS])
def test_typical_output_is_verbatim(argv, expected, capsys):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == expected


def test_library_example_runs(capsys):
    (lang, body), = section_blocks("Library")
    assert lang == "python"
    exec(body, {"__name__": "readme_library"})
    assert capsys.readouterr().out == "True\n"
