"""Seeded workload generators for the strata benchmark.

Each generator turns (seed, params) into KB text plus a list of distinct
instance queries.  The program under test only ever sees the KB text; the
expected answers come from references that never run the collapsed engine:
closed forms for the chain and the tower, brute-force QBF validity, and ABox
saturation (computed after the timed region) for the ontology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

BATCH = "batch"  # compile the KB, then one Evaluator.collapsed call per op
ASK = "ask"  # one in-process `strata ask` per op: the whole pipeline every time


@dataclass(frozen=True)
class Op:
    kb: int  # index into Inputs.kb_texts
    concept: str
    ind: str

    def query(self) -> str:
        return f"{self.concept}({self.ind})"


@dataclass
class Inputs:
    kb_texts: List[str]
    ops: List[Op]  # distinct queries in seeded order
    # Reference answers, one per op; None when computed after the timed run.
    expected: Optional[List[bool]] = None
    witness: bool = False  # asks pass --witness and witnesses are replayed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    layers: tuple  # the strata layers that do most of the work
    params: dict
    smoke_params: dict
    generate: Callable[[int, dict], Inputs] = field(repr=False)
    setup_reps: int  # compiles timed for setup_s before each round
    trace_ops: int  # the fixed op count of a traced run, so its counts repeat


def _kb_text(tbox_lines, abox_lines) -> str:
    return "\n".join(["tbox:", *tbox_lines, "abox:", *abox_lines]) + "\n"


# ---------------------------------------------------------------------------
# chain-batch
# ---------------------------------------------------------------------------


def gen_chain(seed: int, p: dict) -> Inputs:
    """An r chain a0 -> a1 -> ... with B flowing backwards and D forwards.

    A (hence B) is asserted at every `gap`-th individual, except in the last
    `dry` share of the chain; D likewise, mirrored, except in the first `dry`
    share.  The chain is the same for every seed, so every seed gets the same
    mix of search lengths; the seed draws the queries.  So
    B(a_i) holds iff some A or B sits at or after a_i, D(a_i) iff some D sits
    at or before it, and a query's search walks to the nearest such
    individual, or to the chain's end when the answer is false.
    """
    rng = random.Random(seed)
    n, gap, dry = p["individuals"], p["gap"], p["dry"]
    cut = int(n * (1 - dry))
    a_at = set(range(cut - 1, -1, -gap))
    d_at = {n - 1 - i for i in a_at}
    abox = [f"r(a{i}, a{i + 1})" for i in range(n - 1)]
    abox += [f"A(a{i})" for i in sorted(a_at)]
    abox += [f"D(a{i})" for i in sorted(d_at)]
    text = _kb_text(["exists r . B <= B", "exists inv r . D <= D", "A <= B"], abox)

    b_true = [False] * n  # some A at or after i
    seen = False
    for i in range(n - 1, -1, -1):
        seen = seen or i in a_at
        b_true[i] = seen
    d_true = [False] * n  # some D at or before i
    seen = False
    for i in range(n):
        seen = seen or i in d_at
        d_true[i] = seen

    pairs = [(c, i) for c in ("B", "D") for i in range(n)]
    rng.shuffle(pairs)
    pairs = pairs[: p["pool"]]
    ops = [Op(0, c, f"a{i}") for c, i in pairs]
    expected = [b_true[i] if c == "B" else d_true[i] for c, i in pairs]
    return Inputs([text], ops, expected)


# ---------------------------------------------------------------------------
# tall-ask
# ---------------------------------------------------------------------------


def gen_tower(seed: int, p: dict) -> Inputs:
    """The tower exists r . C_i <= C_{i+1} over an r chain.

    C0 is asserted at every even individual; with a single r successor per
    individual, C_k(a_j) holds iff C0(a_{j+k}) is asserted.  Queries ask
    every start j < starts (an even number) at every high level k in
    [levels - top, levels], so half of the answers are true.  An ask's cost
    depends on k (about k^3), on its answer, and on the C0 pattern and the
    chain's end below a_j; so that every seed gets the same costs, the KB
    and the set of queries are the same for every seed (seeded patterns and
    starts moved a seed's median latency by up to 25%).  The seed draws the
    order: the list cycles through the levels, and within a level true and
    false answers alternate.
    """
    rng = random.Random(seed)
    levels, starts, top = p["levels"], p["starts"], p["top"]
    n = starts + levels + 1
    c0 = set(range(0, n, 2))
    tbox = [f"exists r . C{i} <= C{i + 1}" for i in range(levels)]
    abox = [f"r(a{i}, a{i + 1})" for i in range(n - 1)]
    abox += [f"C0(a{i})" for i in sorted(c0)]
    ks = range(levels - top, levels + 1)
    js = []
    for k in ks:
        true = [j for j in range(starts) if j + k in c0]
        false = [j for j in range(starts) if j + k not in c0]
        rng.shuffle(true)
        rng.shuffle(false)
        js.append([j for pair in zip(true, false) for j in pair])
    pairs = [(k, js[i][r]) for r in range(starts) for i, k in enumerate(ks)]
    ops = [Op(0, f"C{k}", f"a{j}") for k, j in pairs]
    expected = [(j + k) in c0 for k, j in pairs]
    return Inputs([_kb_text(tbox, abox)], ops, expected)


# ---------------------------------------------------------------------------
# qbf-ask
# ---------------------------------------------------------------------------


def gen_qbf(seed: int, p: dict) -> Inputs:
    """Distinct random QBF reductions, written without an order: section.

    Half of the formulas are valid and half are not, alternating, so that
    every seed gets the same mix of answers.
    """
    from strata import format_kb, kb_from_normal, qbf_to_kb, qbf_valid_bruteforce, random_qbf

    rng = random.Random(seed)
    by_answer = {True: [], False: []}
    seen = set()
    while min(map(len, by_answer.values())) < p["pool"] // 2:
        formula = random_qbf(rng.getrandbits(48), p["n"], p["m"])
        if formula in seen:
            continue
        seen.add(formula)
        by_answer[qbf_valid_bruteforce(formula)].append(formula)
    texts, ops, expected = [], [], []
    for pair in zip(by_answer[True], by_answer[False]):
        for valid, formula in zip((True, False), pair):
            gen = qbf_to_kb(formula)
            texts.append(format_kb(kb_from_normal(gen.tbox, gen.abox)))
            ops.append(Op(len(ops), *gen.query))
            expected.append(valid)
    return Inputs(texts, ops, expected, witness=True)


# ---------------------------------------------------------------------------
# ontology-load
# ---------------------------------------------------------------------------


def gen_ontology(seed: int, p: dict) -> Inputs:
    """A layered ontology: taxonomy, conjunctive definitions, existentials.

    Concept K<t>x<i> lives in tier t and role p<j> in tier tau_j.  Every
    concept above tier 0 is defined by one conjunction of two concepts a tier
    below, so each concept's least height is its tier; the existentials are
    placed so that they never raise it (role p<j> sits above the left-hand
    sides of its existential heads and below the fillers of its existential
    bodies).  That fixes the heights, and with them the cost of a query, for
    every seed.  Existentials are written as nested surface concepts so that
    normalization adds fresh names.  Queries ask concepts of the tiers in
    `query_tiers`, both ends included, at random individuals.
    """
    tiers, width, nroles = p["tiers"], p["width"], p["roles"]
    rng = random.Random(p["tbox_seed"])  # the TBox is one fixed ontology

    def con(t):
        return f"K{t}x{rng.randrange(width)}"

    tau = [1 + j * (tiers - 2) // nroles for j in range(nroles)]

    def role_in(lo, hi):
        """A role whose tier lies in [lo, hi], or None."""
        ok = [j for j in range(nroles) if lo <= tau[j] <= hi]
        return f"p{rng.choice(ok)}" if ok else None

    tbox = []
    parent = {}
    fillers = set()
    for t in range(tiers):
        for i in range(width):
            name = f"K{t}x{i}"
            if t + 1 < tiers:  # taxonomy: a parent one tier up
                parent[name] = con(t + 1)
                tbox.append(f"{name} <= {parent[name]}")
            if t > 0:
                a, b = rng.sample(range(width), 2)
                tbox.append(f"K{t - 1}x{a} & K{t - 1}x{b} <= {name}")
        for _ in range(p["exr_per_tier"]):
            role = role_in(t, tiers)  # lhs at or below the role and the filler
            if role is None:
                break
            filler = f"{con(rng.randrange(t, tiers))} & {con(rng.randrange(t, tiers))}"
            if filler in fillers:  # a shared fresh name would tie two roles together
                continue
            fillers.add(filler)
            tbox.append(f"{con(t)} <= exists {role} . ({filler})")
        for _ in range(p["exl_per_tier"] if t >= 5 else 0):
            # exists p_j . (K_b & exists p_k . K_c) <= K_a with b, c at most
            # t - 3, so the fresh names of the body stay below K_a's tier, and
            # c above tier 1, so a role lies below it.
            t1, t2 = rng.randrange(t - 2), rng.randrange(2, t - 2)
            inner = role_in(0, t2 - 1)
            outer = role_in(0, max(t1, t2))
            if inner is None or outer is None:
                continue
            tbox.append(f"exists {outer} . ({con(t1)} & exists {inner} . {con(t2)}) <= {con(t)}")

    rng = random.Random(seed)  # the ABox and the queries vary with the seed
    nind = p["individuals"]
    abox = []
    asserted = []
    for x in range(nind):
        asserted.append([con(rng.randrange(p["assert_tiers"])) for _ in range(p["asserts_per_ind"])])
        abox += [f"{c}(o{x})" for c in asserted[x]]
    for _ in range(int(nind * p["edges_per_ind"])):
        abox.append(f"p{rng.randrange(nroles)}(o{rng.randrange(nind)}, o{rng.randrange(nind)})")

    # One query per individual, so that no query finds another's labels in
    # the memo.  A true answer is found in the start label and costs far
    # less than a false one; one query in ten asks a taxonomy ancestor of an
    # asserted concept, which keeps the answers mixed while the median and
    # the 90th percentile both fall among the false answers.
    qlo, qhi = p["query_tiers"]  # inclusive
    ops = []
    for x in rng.sample(range(nind), p["queries"]):
        c = con(rng.randint(qlo, qhi))
        if rng.random() < 0.1:
            c = rng.choice(asserted[x])
            while int(c[1 : c.index("x")]) < qlo:
                c = parent[c]
        ops.append(Op(0, c, f"o{x}"))
    return Inputs([_kb_text(tbox, abox)], ops)


def saturation_reference(inputs: Inputs) -> List[bool]:
    """Expected answers by ABox saturation, the repository's trusted oracle."""
    from strata import normalize, parse_kb, saturate_abox

    kb = parse_kb(inputs.kb_texts[0])
    tbox, _ = normalize(kb.gcis)
    sat = saturate_abox(tbox, kb.abox)
    if sat.inconsistent:  # every query is then entailed
        return [True] * len(inputs.ops)
    out = []
    for op in inputs.ops:
        bit = tbox.bit_of.get(op.concept)
        if bit is None:
            out.append(op.concept in kb.abox.asserted[op.ind])
        else:
            out.append(bool(sat.labels[op.ind] & (1 << bit)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain-batch",
            kind=BATCH,
            layers=("evaluate",),
            params={"individuals": 10000, "gap": 1000, "dry": 0.15, "pool": 1000},
            smoke_params={"individuals": 300, "gap": 40, "dry": 0.15, "pool": 300},
            setup_reps=1,
            trace_ops=1000,
            generate=gen_chain,
        ),
        Workload(
            name="tall-ask",
            kind=ASK,
            layers=("evaluate", "stratify"),
            params={"levels": 20, "starts": 20, "top": 4},
            smoke_params={"levels": 8, "starts": 10, "top": 3},
            setup_reps=10,
            trace_ops=50,
            generate=gen_tower,
        ),
        Workload(
            name="qbf-ask",
            kind=ASK,
            layers=("saturate", "stratify", "evaluate"),
            params={"n": 5, "m": 5, "pool": 100},
            smoke_params={"n": 3, "m": 3, "pool": 20},
            setup_reps=25,
            trace_ops=40,
            generate=gen_qbf,
        ),
        Workload(
            name="ontology-load",
            kind=BATCH,
            layers=("kb", "stratify", "saturate"),
            params={
                "tbox_seed": 0,
                "tiers": 16,
                "width": 40,
                "roles": 6,
                "exr_per_tier": 20,
                "exl_per_tier": 20,
                "individuals": 1500,
                "assert_tiers": 1,
                "asserts_per_ind": 3,
                "edges_per_ind": 1.5,
                "query_tiers": (1, 1),
                "queries": 150,
            },
            smoke_params={
                "tbox_seed": 0,
                "tiers": 6,
                "width": 6,
                "roles": 2,
                "exr_per_tier": 2,
                "exl_per_tier": 2,
                "individuals": 120,
                "assert_tiers": 2,
                "asserts_per_ind": 3,
                "edges_per_ind": 1.5,
                "query_tiers": (1, 2),
                "queries": 100,
            },
            setup_reps=0,
            trace_ops=150,
            generate=gen_ontology,
        ),
    )
}
