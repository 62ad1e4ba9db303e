"""The command line's outputs, pinned as one digest.

Each invocation below runs through main(argv) in process; the SHA-256 of
the JSON list of [argv, exit code, stdout, stderr] over all of them is
pinned.  The matrix covers every subcommand except a successful audit
(the audit report has its own pinned hashes), JSON and human output,
Greek and ASCII text, every connection spelling and object, and each
exit path: 0, 1, 2 from argparse and from a ValueError, and 3 from
sampler starvation.  --help is left out.
"""

import hashlib
import json

from liecodazzi.cli import main

G1_BOTT = ("--family", "G1", "--connection", "bott", "--structure", "codazzi")
G2_BOTT = ("--family", "G2", "--connection", "bott", "--structure", "codazzi")
G3_BOTT = ("--family", "G3", "--connection", "bott", "--structure", "codazzi")
G4_PLUS = ("--family", "G4", "--eta", "+1")
G4_MINUS = ("--family", "G4", "--eta", "-1")

INVOCATIONS = [
    # list
    ("list", "--json"),
    ("list",),
    ("--ascii", "list"),
    # compute: every object once, every connection spelling once
    ("compute", "--family", "G1", "--connection", "lc", "--object", "connection", "--json"),
    ("compute", "--family", "G2", "--connection", "b", "--object", "curvature"),
    ("compute", "--family", "G3", "--connection", "c", "--object", "ricci", "--json"),
    ("compute", "--family", "G5", "--connection", "kn", "--object", "ricci-sym"),
    ("compute", "--family", "G6", "--connection", "levi-civita",
     "--object", "nabla-ricci-sym", "--json"),
    ("compute", "--family", "G7", "--connection", "kobayashi-nomizu", "--object", "torsion"),
    ("compute", "--family", "G1", "--connection", "k", "--object", "torsion", "--json"),
    ("compute", *G4_MINUS, "--connection", "canonical"),
    ("compute", *G4_PLUS, "--connection", "canonical", "--json"),
    ("--ascii", "compute", *G4_PLUS, "--connection", "bott", "--object", "torsion"),
    # check: a holding family and a failing one, JSON and human, h on G4
    ("check", *G2_BOTT, "--solution", "a=0,b=0", "--json"),
    ("check", "--family", "G2", "--connection", "b", "--structure", "codazzi",
     "--solution", "a=0,b=0"),
    ("check", *G1_BOTT, "--solution", "b=0", "--json"),
    ("check", *G1_BOTT, "--solution", "b=0"),
    ("--ascii", "check", *G1_BOTT, "--solution", "b=0"),
    ("check", *G4_PLUS, "--connection", "canonical", "--structure", "codazzi",
     "--solution", "b=a/2+h"),
    ("check", *G4_MINUS, "--connection", "canonical", "--structure", "codazzi",
     "--solution", "b=a/2+h", "--json"),
    ("check", "--family", "G3", "--connection", "kn", "--structure", "quasistatistical",
     "--solution", "a=0"),
    # sample: JSON and human, with and without --exclude, the default seed
    ("sample", *G1_BOTT, "--trials", "30", "--seed", "7", "--json"),
    ("sample", *G2_BOTT, "--seed", "0"),
    ("sample", *G2_BOTT, "--exclude", "a=0,b=0", "--trials", "30", "--seed", "7", "--json"),
    ("sample", *G2_BOTT, "--exclude", "a=0,b=0", "--trials", "30", "--seed", "7"),
    ("--ascii", "sample", *G2_BOTT, "--exclude", "a=0", "--exclude", "b!=0",
     "--trials", "20", "--seed", "3"),
    ("sample", *G4_MINUS, "--connection", "kn", "--structure", "quasistatistical",
     "--trials", "20", "--seed", "3", "--json"),
    ("sample", "--family", "G5", "--connection", "c", "--structure", "codazzi",
     "--trials", "10", "--json"),
    ("sample", *G1_BOTT, "--trials", "5", "--seed", "1"),
    # exit 2 from argparse: the usage line and the message
    (),
    ("list", "--ascii"),
    ("compute", "--family", "G1"),
    ("sample", *G1_BOTT, "--trials", "0"),
    ("sample", *G1_BOTT, "--seed", "-7", "--json"),
    ("audit", "--trials", "0"),
    ("audit", "--seed", "1_0", "--json"),
    # exit 2 from a ValueError
    ("compute", "--family", "G4", "--connection", "bott"),
    ("compute", "--family", "G1", "--connection", "bott", "--eta", "+1"),
    ("compute", "--family", "G1", "--connection", "weyl", "--json"),
    ("check", *G1_BOTT, "--solution", "a=0"),
    ("check", *G1_BOTT, "--solution", "a+b", "--json"),
    ("check", *G4_PLUS, "--connection", "bott", "--structure", "codazzi", "--solution", "h=0"),
    ("check", *G2_BOTT, "--solution", "a=1,alpha=0,b=0"),
    ("check", *G1_BOTT, "--solution", "a=b^13"),
    ("sample", *G1_BOTT, "--exclude", "1!=0"),
    ("sample", *G1_BOTT, "--exclude", "0!=0", "--json"),
    ("sample", *G3_BOTT, "--exclude", ",", "--trials", "5"),
    # exit 3: sampler starvation
    ("sample", *G3_BOTT, "--exclude", "a^2+1!=0", "--trials", "5"),
    ("sample", *G1_BOTT, "--exclude", "a!=0", "--trials", "50", "--json"),
]

OUTPUTS_SHA256 = "24fbb5a7ba955632689cfa0c8d839be60f411445e4046009e6934fc75684f049"


def test_command_line_outputs_are_pinned(capsys, monkeypatch):
    assert len(set(INVOCATIONS)) == len(INVOCATIONS) >= 40
    # the seed default is read from the environment; argparse wraps its
    # usage line at the terminal width, and where it breaks the line can
    # differ between Python versions, so the line is kept whole
    monkeypatch.delenv("LIECODAZZI_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "1000")
    records = []
    for argv in INVOCATIONS:
        code = main(list(argv))
        captured = capsys.readouterr()
        records.append([list(argv), code, captured.out, captured.err])
    assert sorted({code for _, code, _, _ in records}) == [0, 1, 2, 3]
    text = json.dumps(records, ensure_ascii=False)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == OUTPUTS_SHA256
