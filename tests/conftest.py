import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("default", deadline=None, max_examples=40)
settings.load_profile("default")

TEX_TEXT = """\
tbox:
A <= B
A & B <= C
C <= exists r . Top
exists r . Top <= D
abox:
A(a)
"""

# Bot at level 0 that only a level-1 spawn reaches: a's successor B spawns an
# s-successor F only once `B <= exists s . F` is in, so a is Bot-free at level 0
LOW_BOT_TEXT = """\
tbox:
A <= exists r . B
B <= exists s . F
F <= Bot
abox:
A(a)
order:
A B F r
s
"""

# the normalizer names B & D; a query on that name, X1 unless the query
# reserves it, asks about a name outside the KB like any other
FRESH_QUERY_TEXT = """\
tbox:
exists r . (B & D) <= C
abox:
B(b)
D(b)
r(a, b)
"""


def diamond_kb_text(depth: int) -> str:
    """Q(i+1) needs Ri and Si at a node, each from Qi at an r-successor; the
    successors come from ``A <= exists r . A``, so a trace that materializes
    one successor per existential premise doubles at every level, and one
    that reuses them takes 4 * depth + 2 steps."""
    lines = ["tbox:", "A <= exists r . A", "exists r . A <= Q0"]
    for i in range(depth):
        lines += [f"exists r . Q{i} <= R{i}", f"exists r . Q{i} <= S{i}"]
        lines.append(f"R{i} & S{i} <= Q{i + 1}")
    return "\n".join([*lines, "abox:", "A(a)", ""])


@pytest.fixture
def tex():
    """The four-axiom worked example: TBox, ABox, minimal heights."""
    from strata import check_stratification, normalize, parse_kb

    kb = parse_kb(TEX_TEXT)
    tbox, _ = normalize(kb.gcis)
    res = check_stratification(tbox)
    assert res.accepted
    return tbox, kb.abox, res.height
