"""Golden digests of the learner's search order.

With ``--trace``, `learn` and `chain` write the meta-proof to stderr: each
size cap, each metarule instance adopted and each backtrack, in the order
the search takes them, and each core and rejection.  The trace holds no
timings, so its bytes are fixed by the search alone.  A change that must
leave the search as it is (an index, a cache, a cheaper unifier) must
leave these bytes as they are; the sha256 digests below turn that into a
test.  They were recorded before the learner started offering a metarule
only to goals whose first argument its head can fit, and that change left
them as they were.
"""

import hashlib

import pytest

from milsem.cli import main

CHAIN = ("lazy_eager", "pairs", "lists", "conditionals")

TRACE_SHA256 = {
    ("learn", "pairs"):
        "5620fb23fcfc3800f25390a970359d29451f47a45e2b0fad1d7ad7257df2cb3c",
    ("learn", "lists"):
        "f5e295de90e4854517579dabef30a29fcb674de981ede04956d725e410e19186",
    ("learn", "conditionals"):
        "92e247447e5e6ca3f0b6ed051e945ba35230b3ddaf7797abb06e93545d3128ef",
    ("learn", "lazy_eager"):
        "1df451dd55cd7abe988e93891dd58a31052784f1ae302584a0c7aa495cf74259",
    ("chain", *CHAIN):
        "2fea3d861815e5a782fd67ca91ca76970fb7fa2a6b9b4ed60c1aa1d07e5cd2d1",
}


@pytest.mark.parametrize("argv", list(TRACE_SHA256),
                         ids=[" ".join(a) for a in TRACE_SHA256])
def test_trace_is_pinned(argv, capsys):
    assert main([*argv, "--trace"]) == 0
    err = capsys.readouterr().err
    assert hashlib.sha256(err.encode()).hexdigest() == TRACE_SHA256[argv]
