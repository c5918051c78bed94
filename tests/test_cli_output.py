"""Pinned output of every CLI verb, byte for byte.

Each verb runs on small fixed inputs, in text and with ``--json``; the
exit code and the whole of stdout are compared with the expected text
written here.  Input errors pin the exit code 2 and the stderr message.
"""

import pytest

from tcspace.cli import _build_parser, run

FILES = {
    "line.metric": "3\n1 3\n2\n",
    "far.metric": "4\n1 10 11\n9 10\n1\n",
    "a4.metric": "# family a n=4 points v1 v2 v3 v4\n4\n2 3 4\n9/2 11/2\n20/3\n",
    "f.problem": "# two units leave point 0\n0 1\n0 1  # repeated, summed\n1 -1\n\n2 -1\n",
    "g.edges": "0 1 -1\n0 2 -1/2\n# repeated, summed\n0 2 -1/2\n",
    "far.problem": "0 3/2\n1 -1/2\n2 1/2\n3 -3/2\n",
    "wide.problem": "0 1\n5 -1\n",
    "badindex.problem": "x 1\n",
    "short.problem": "0\n",
    "badindex.edges": "0 x 1\n",
    "backwards.edges": "2 1 1\n",
    "unbalanced.problem": "0 1\n",
    "tri.metric": "3\n1/2 3\n1/3\n",
    "zero.metric": "3\n1 0\n1\n",
    # superscript digits pass str.isdigit but are not decimal
    "sup.metric": "\u00b2\n",
    "sup.problem": "\u00b9 -1\n",
    "sup.edges": "0 \u00b9 1\n",
}

# (argv, exit code, stdout)
VERB_OUTPUT = [
    (
        ["validate", "line.metric"],
        0,
        """\
OK n=3
delta 1
diameter 3
""",
    ),
    (
        ["validate", "line.metric", "--json"],
        0,
        """\
{
  "delta": "1",
  "diameter": "3",
  "n": 3,
  "ok": true
}
""",
    ),
    (
        ["validate", "a4.metric"],
        0,
        """\
OK n=4
delta 2
diameter 20/3
""",
    ),
    (
        ["validate", "a4.metric", "--json"],
        0,
        """\
{
  "delta": "2",
  "diameter": "20/3",
  "n": 4,
  "ok": true
}
""",
    ),
    (
        ["tcnorm", "line.metric", "f.problem"],
        0,
        """\
norm 4
move 0 -> 1 amount 1
move 0 -> 2 amount 1
""",
    ),
    (
        ["tcnorm", "line.metric", "f.problem", "--json"],
        0,
        """\
{
  "norm": "4",
  "plan": [
    {
      "amount": "1",
      "sink": 1,
      "source": 0
    },
    {
      "amount": "1",
      "sink": 2,
      "source": 0
    }
  ]
}
""",
    ),
    (
        ["tcnorm", "far.metric", "far.problem"],
        0,
        """\
norm 12
move 0 -> 1 amount 1/2
move 0 -> 3 amount 1
move 2 -> 3 amount 1/2
""",
    ),
    (
        ["tcnorm", "far.metric", "far.problem", "--json"],
        0,
        """\
{
  "norm": "12",
  "plan": [
    {
      "amount": "1/2",
      "sink": 1,
      "source": 0
    },
    {
      "amount": "1",
      "sink": 3,
      "source": 0
    },
    {
      "amount": "1/2",
      "sink": 3,
      "source": 2
    }
  ]
}
""",
    ),
    (
        ["l1norm", "f.problem"],
        0,
        """\
l1 4
""",
    ),
    (
        ["l1norm", "f.problem", "--json"],
        0,
        """\
{
  "l1": "4"
}
""",
    ),
    (
        ["dual", "line.metric", "f.problem"],
        0,
        """\
value 4
h 0 0
h 1 -1
h 2 -3
""",
    ),
    (
        ["dual", "line.metric", "f.problem", "--json"],
        0,
        """\
{
  "base": 0,
  "h": [
    "0",
    "-1",
    "-3"
  ],
  "value": "4"
}
""",
    ),
    (
        ["dual", "line.metric", "f.problem", "--base", "2"],
        0,
        """\
value 4
h 0 3
h 1 2
h 2 0
""",
    ),
    (
        ["dual", "line.metric", "f.problem", "--base", "2", "--json"],
        0,
        """\
{
  "base": 2,
  "h": [
    "3",
    "2",
    "0"
  ],
  "value": "4"
}
""",
    ),
    (
        ["dual", "far.metric", "far.problem", "--base", "3"],
        0,
        """\
value 12
h 0 11
h 1 10
h 2 1
h 3 0
""",
    ),
    (
        ["dual", "far.metric", "far.problem", "--base", "3", "--json"],
        0,
        """\
{
  "base": 3,
  "h": [
    "11",
    "10",
    "1",
    "0"
  ],
  "value": "12"
}
""",
    ),
    (
        ["quotient", "line.metric", "g.edges"],
        0,
        """\
norm 4
rep 0 1 -1
rep 0 2 -1
""",
    ),
    (
        ["quotient", "line.metric", "g.edges", "--json"],
        0,
        """\
{
  "norm": "4",
  "representative": [
    {
      "edge": [
        0,
        1
      ],
      "value": "-1"
    },
    {
      "edge": [
        0,
        2
      ],
      "value": "-1"
    }
  ]
}
""",
    ),
    (
        ["quotient", "far.metric", "g.edges"],
        0,
        """\
norm 11
rep 0 1 -1
rep 0 2 -1
""",
    ),
    (
        ["quotient", "far.metric", "g.edges", "--json"],
        0,
        """\
{
  "norm": "11",
  "representative": [
    {
      "edge": [
        0,
        1
      ],
      "value": "-1"
    },
    {
      "edge": [
        0,
        2
      ],
      "value": "-1"
    }
  ]
}
""",
    ),
    (
        ["matching", "far.metric", "--vertices", "0,1,2,3"],
        0,
        """\
weight 2
edge 0 1
edge 2 3
""",
    ),
    (
        ["matching", "far.metric", "--vertices", "0,1,2,3", "--json"],
        0,
        """\
{
  "edges": [
    [
      0,
      1
    ],
    [
      2,
      3
    ]
  ],
  "weight": "2"
}
""",
    ),
    (
        ["matching", "a4.metric", "--vertices", "3, 0,1,2"],
        0,
        """\
weight 17/2
edge 0 2
edge 1 3
""",
    ),
    (
        ["matching", "a4.metric", "--vertices", "3, 0,1,2", "--json"],
        0,
        """\
{
  "edges": [
    [
      0,
      2
    ],
    [
      1,
      3
    ]
  ],
  "weight": "17/2"
}
""",
    ),
    (
        ["nested-check", "far.metric", "--pairs", "0:1,2:3"],
        0,
        """\
PASS 2 prefixes
""",
    ),
    (
        ["nested-check", "far.metric", "--pairs", "0:1,2:3", "--json"],
        0,
        """\
{
  "depth": 2,
  "result": "PASS"
}
""",
    ),
    (
        ["nested-check", "a4.metric", "--pairs", "0:1,2:3"],
        1,
        """\
FAIL at n=2
prescribed weight 26/3
witness weight 17/2
edge 0 2
edge 1 3
""",
    ),
    (
        ["nested-check", "a4.metric", "--pairs", "0:1,2:3", "--json"],
        1,
        """\
{
  "depth": 2,
  "prescribed_weight": "26/3",
  "result": "FAIL",
  "witness_edges": [
    [
      0,
      2
    ],
    [
      1,
      3
    ]
  ],
  "witness_weight": "17/2"
}
""",
    ),
    (
        ["l1check", "far.metric", "--pairs", "0:1,2:3"],
        0,
        """\
PASS 4 patterns
norm 2 in every pattern
""",
    ),
    (
        ["l1check", "far.metric", "--pairs", "0:1,2:3", "--json"],
        0,
        """\
{
  "expected": "2",
  "patterns": 4,
  "result": "PASS"
}
""",
    ),
    (
        ["l1check", "far.metric", "--pairs", "0:1,2:3", "--coeffs", "2,3/1"],
        0,
        """\
PASS 4 patterns
norm 5 in every pattern
""",
    ),
    (
        ["l1check", "far.metric", "--pairs", "0:1,2:3", "--coeffs", "2,3/1", "--json"],
        0,
        """\
{
  "expected": "5",
  "patterns": 4,
  "result": "PASS"
}
""",
    ),
    (
        ["l1check", "a4.metric", "--pairs", "0:1,2:3"],
        1,
        """\
FAIL pattern ++
achieved 79/40 expected 2
""",
    ),
    (
        ["l1check", "a4.metric", "--pairs", "0:1,2:3", "--json"],
        1,
        """\
{
  "achieved": "79/40",
  "expected": "2",
  "pattern": "++",
  "result": "FAIL"
}
""",
    ),
    (
        ["family", "--family", "a", "--n", "4"],
        0,
        """\
# family a n=4 points v1 v2 v3 v4
4
2 3 4
9/2 11/2
20/3
""",
    ),
    (
        ["family", "--family", "a", "--n", "4", "--json"],
        0,
        """\
{
  "family": "a",
  "labels": [
    "v1",
    "v2",
    "v3",
    "v4"
  ],
  "metric": "4\\n2 3 4\\n9/2 11/2\\n20/3\\n",
  "n": 4
}
""",
    ),
    (
        ["family", "--family", "e", "--n", "3"],
        0,
        """\
# family e n=3 points v1 v2 v3
3
2 11/6
19/12
""",
    ),
    (
        ["family", "--family", "e", "--n", "3", "--json"],
        0,
        """\
{
  "family": "e",
  "labels": [
    "v1",
    "v2",
    "v3"
  ],
  "metric": "3\\n2 11/6\\n19/12\\n",
  "n": 3
}
""",
    ),
    (
        ["quad-check", "--family", "b", "--max", "6"],
        0,
        """\
PASS 15 quadruples
""",
    ),
    (
        ["quad-check", "--family", "b", "--max", "6", "--json"],
        0,
        """\
{
  "family": "b",
  "max_index": 6,
  "quadruples": 15,
  "result": "PASS"
}
""",
    ),
    (
        ["selftest"],
        0,
        """\
selftest seed=271828 norms=24 matchings=12
norm 00 n=4 value 5/2 ok
norm 01 n=4 value 89/4 ok
norm 02 n=6 value 41/3 ok
norm 03 n=4 value 35/9 ok
norm 04 n=3 value 19/12 ok
norm 05 n=5 value 10 ok
norm 06 n=6 value 4 ok
norm 07 n=4 value 59/6 ok
norm 08 n=4 value 7/2 ok
norm 09 n=5 value 4 ok
norm 10 n=4 value 6 ok
norm 11 n=5 value 10 ok
norm 12 n=5 value 108/5 ok
norm 13 n=4 value 11 ok
norm 14 n=5 value 109/45 ok
norm 15 n=6 value 7/2 ok
norm 16 n=3 value 109/36 ok
norm 17 n=6 value 15/2 ok
norm 18 n=3 value 40/3 ok
norm 19 n=6 value 14/3 ok
norm 20 n=4 value 27/8 ok
norm 21 n=6 value 6 ok
norm 22 n=6 value 113/16 ok
norm 23 n=5 value 4/5 ok
matching 00 size=4 weight 17/6 ok
matching 01 size=4 weight 13/6 ok
matching 02 size=2 weight 2 ok
matching 03 size=6 weight 3 ok
matching 04 size=4 weight 14/5 ok
matching 05 size=4 weight 2 ok
matching 06 size=6 weight 3 ok
matching 07 size=4 weight 9/4 ok
matching 08 size=4 weight 5/2 ok
matching 09 size=4 weight 19/6 ok
matching 10 size=2 weight 1 ok
matching 11 size=6 weight 10/3 ok
SELFTEST PASS
""",
    ),
    (
        ["selftest", "--json"],
        0,
        """\
{
  "checks": [
    {
      "check": "norm 00",
      "ok": true
    },
    {
      "check": "norm 01",
      "ok": true
    },
    {
      "check": "norm 02",
      "ok": true
    },
    {
      "check": "norm 03",
      "ok": true
    },
    {
      "check": "norm 04",
      "ok": true
    },
    {
      "check": "norm 05",
      "ok": true
    },
    {
      "check": "norm 06",
      "ok": true
    },
    {
      "check": "norm 07",
      "ok": true
    },
    {
      "check": "norm 08",
      "ok": true
    },
    {
      "check": "norm 09",
      "ok": true
    },
    {
      "check": "norm 10",
      "ok": true
    },
    {
      "check": "norm 11",
      "ok": true
    },
    {
      "check": "norm 12",
      "ok": true
    },
    {
      "check": "norm 13",
      "ok": true
    },
    {
      "check": "norm 14",
      "ok": true
    },
    {
      "check": "norm 15",
      "ok": true
    },
    {
      "check": "norm 16",
      "ok": true
    },
    {
      "check": "norm 17",
      "ok": true
    },
    {
      "check": "norm 18",
      "ok": true
    },
    {
      "check": "norm 19",
      "ok": true
    },
    {
      "check": "norm 20",
      "ok": true
    },
    {
      "check": "norm 21",
      "ok": true
    },
    {
      "check": "norm 22",
      "ok": true
    },
    {
      "check": "norm 23",
      "ok": true
    },
    {
      "check": "matching 00",
      "ok": true
    },
    {
      "check": "matching 01",
      "ok": true
    },
    {
      "check": "matching 02",
      "ok": true
    },
    {
      "check": "matching 03",
      "ok": true
    },
    {
      "check": "matching 04",
      "ok": true
    },
    {
      "check": "matching 05",
      "ok": true
    },
    {
      "check": "matching 06",
      "ok": true
    },
    {
      "check": "matching 07",
      "ok": true
    },
    {
      "check": "matching 08",
      "ok": true
    },
    {
      "check": "matching 09",
      "ok": true
    },
    {
      "check": "matching 10",
      "ok": true
    },
    {
      "check": "matching 11",
      "ok": true
    }
  ],
  "result": "PASS"
}
""",
    ),
]

# (argv, stderr), with the data directory written as DIR; exit code 2
INPUT_ERRORS = [
    (
        ["tcnorm", "line.metric", "wide.problem"],
        "error: support point 5 out of range for n=3\n",
    ),
    (
        ["tcnorm", "line.metric", "badindex.problem"],
        "error: DIR/badindex.problem: line 1: bad point index 'x'\n",
    ),
    (
        ["tcnorm", "line.metric", "short.problem"],
        "error: DIR/short.problem: line 1: expected 'index value'\n",
    ),
    (
        ["l1norm", "unbalanced.problem"],
        "error: DIR/unbalanced.problem: values must sum to zero\n",
    ),
    (
        ["quotient", "line.metric", "badindex.edges"],
        "error: DIR/badindex.edges: line 1: bad edge indices '0' 'x'\n",
    ),
    (
        ["quotient", "line.metric", "backwards.edges"],
        "error: DIR/backwards.edges: line 1: edge must satisfy i < j\n",
    ),
    (
        ["dual", "line.metric", "f.problem", "--base", "7"],
        "error: base point 7 out of range for n=3\n",
    ),
    (
        ["dual", "line.metric", "wide.problem"],
        "error: support point 5 out of range for n=3\n",
    ),
    (
        ["matching", "far.metric", "--vertices", "0,9"],
        "error: vertex 9 out of range for n=4\n",
    ),
    (
        ["matching", "far.metric", "--vertices", "0,x"],
        "error: --vertices: expected integers, got 'x'\n",
    ),
    (
        ["nested-check", "far.metric", "--pairs", "0:9"],
        "error: pair endpoint 9 out of range for n=4\n",
    ),
    (
        ["nested-check", "far.metric", "--pairs", "0-1"],
        "error: --pairs: expected 'x:y' entries, got '0-1'\n",
    ),
    (
        ["nested-check", "far.metric", "--pairs", "0:1,1:2"],
        "error: --pairs: pair endpoints must all be distinct\n",
    ),
    (
        ["l1check", "far.metric", "--pairs", "0:9"],
        "error: pair endpoint 9 out of range for n=4\n",
    ),
    (
        ["l1check", "far.metric", "--pairs", "0:1", "--coeffs", "0.5"],
        "error: --coeffs: not a rational token: '0.5'\n",
    ),
    (
        ["l1check", "a4.metric", "--pairs", "0:1,2:3", "--coeffs", ""],
        "error: --coeffs: not a rational token: ''\n",
    ),
    (
        ["l1check", "far.metric", "--pairs", "0:1", "--coeffs", "1,2"],
        "error: coefficient count must match pair count\n",
    ),
    (
        ["family", "--family", "a", "--n", "1"],
        "error: family truncations need n >= 2\n",
    ),
    (
        ["quad-check", "--family", "b", "--max", "3"],
        "error: quadruple sweep needs max_index >= 4\n",
    ),
    (
        ["validate", "tri.metric"],
        "error: DIR/tri.metric: triangle violated at (0, 1, 2): 3 > 1/2 + 1/3\n",
    ),
    (
        ["validate", "zero.metric"],
        "error: DIR/zero.metric: positivity violated at (0, 2): d=0\n",
    ),
    (
        ["matching", "tri.metric", "--vertices", "0,1"],
        "error: DIR/tri.metric: triangle violated at (0, 1, 2): 3 > 1/2 + 1/3\n",
    ),
    (
        ["validate", "sup.metric"],
        "error: DIR/sup.metric: point count must be a positive integer, got '\u00b2'\n",
    ),
    (
        ["l1norm", "sup.problem"],
        "error: DIR/sup.problem: line 1: bad point index '\u00b9'\n",
    ),
    (
        ["quotient", "line.metric", "sup.edges"],
        "error: DIR/sup.edges: line 1: bad edge indices '0' '\u00b9'\n",
    ),
    (
        ["matching", "far.metric", "--vertices", "0,\u00b9"],
        "error: --vertices: expected integers, got '\u00b9'\n",
    ),
    (
        ["nested-check", "far.metric", "--pairs", "0:\u00b9"],
        "error: --pairs: expected 'x:y' entries, got '0:\u00b9'\n",
    ),
]


@pytest.fixture
def data_dir(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def resolve(data_dir, argv):
    suffixes = (".metric", ".problem", ".edges")
    return [str(data_dir / a) if a.endswith(suffixes) else a for a in argv]


@pytest.mark.parametrize(
    "argv, code, stdout", VERB_OUTPUT, ids=[" ".join(case[0]) for case in VERB_OUTPUT]
)
def test_verb_output(data_dir, capsys, argv, code, stdout):
    assert run(resolve(data_dir, argv)) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, stderr", INPUT_ERRORS, ids=[" ".join(case[0]) for case in INPUT_ERRORS]
)
def test_input_error_message(data_dir, capsys, argv, stderr):
    assert run(resolve(data_dir, argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.replace(str(data_dir), "DIR") == stderr


def test_one_parser_serves_every_call(data_dir, capsys):
    # the parser is built once per process, so no option set by one call
    # (``--base``, ``--json``, a failed parse) may reach the next
    pinned = {tuple(argv): (code, stdout) for argv, code, stdout in VERB_OUTPUT}
    sequence = [
        ["dual", "far.metric", "far.problem", "--base", "3"],
        ["dual", "line.metric", "f.problem"],
        ["nested-check", "a4.metric", "--pairs", "0:1,2:3", "--json"],
        ["nested-check", "a4.metric", "--pairs", "0:1,2:3"],
        ["matching", "far.metric"],
        ["matching", "far.metric", "--vertices", "0,1,2,3"],
    ]
    for argv in sequence:
        code = run(resolve(data_dir, argv))
        captured = capsys.readouterr()
        if tuple(argv) in pinned:
            assert (code, captured.out) == pinned[tuple(argv)]
            assert captured.err == ""
        else:
            assert code == 2
            assert captured.out == ""
            assert "the following arguments are required: --vertices" in captured.err
    assert _build_parser() is _build_parser()
