"""Property tests for the static analyzer.

Two invariants:

* **clean programs run** — any generated chain/branched CDSS passes
  the analyzer, and the exchange it green-lights terminates with both
  engines agreeing on the instance;
* **broken programs diagnose** — injecting a known defect into a clean
  system yields the expected diagnostic code, never a raw traceback.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.cdss import CDSS, Peer, TrustPolicy
from repro.relational import RelationSchema
from repro.workloads.topologies import TopologySpec, build_system, build_topology

from store_state import assert_store_matches

KINDS = st.sampled_from(["chain", "branched"])


def fresh_system(num_peers: int = 2) -> CDSS:
    system = CDSS(
        Peer.of(name, [RelationSchema.of(f"{name}_R", ["k", "v"], key=["k"])])
        for name in (f"P{i}" for i in range(num_peers))
    )
    for i in range(num_peers - 1):
        system.add_mapping(f"m{i}: P{i + 1}_R(k, v) :- P{i}_R(k, v)")
    return system


# -- clean programs analyze clean and run ----------------------------------


@settings(max_examples=10, deadline=None)
@given(kind=KINDS, num_peers=st.integers(min_value=2, max_value=4))
def test_generated_topologies_analyze_clean(kind, num_peers):
    system = build_system(TopologySpec(kind, num_peers, (), base_size=0))
    report = analyze(system)
    assert report.ok, str(report)
    assert report.stats["explained_statements"] > 0


@settings(max_examples=6, deadline=None)
@given(
    kind=KINDS,
    num_peers=st.integers(min_value=2, max_value=3),
    base_size=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_validated_exchange_terminates_and_engines_agree(
    kind, num_peers, base_size, seed
):
    data_peers = (num_peers - 1,)
    memory = build_topology(
        TopologySpec(
            kind, num_peers, data_peers, base_size, seed=seed, validate="error"
        )
    )
    assert memory.last_validation is not None and memory.last_validation.ok

    sqlite = build_topology(
        TopologySpec(
            kind,
            num_peers,
            data_peers,
            base_size,
            seed=seed,
            engine="sqlite",
            validate="error",
        )
    )
    assert_store_matches(memory, sqlite)


# -- injected defects fire the expected code, never a traceback ------------


DEFECTS = [
    ("RA101", "m_bad: P1_R(x, y) :- P0_R(_, _)"),
    ("RA103", "m_bad: P1_R(k, k) :- P0_R(k, lonely)"),
    ("RA201", "m_bad: P0_R(v, w) :- P1_R(_, v)"),
    ("RA203", "m_bad: P0_R(k, v) :- P0_R(k, v)"),
]


@settings(max_examples=15, deadline=None)
@given(defect=st.sampled_from(DEFECTS), extra_peers=st.integers(0, 2))
def test_injected_rule_defects_are_flagged(defect, extra_peers):
    code, text = defect
    system = fresh_system(2 + extra_peers)
    if code == "RA201":
        # close the cycle: P1 already maps back into P0 via m0's inverse
        system.add_mapping("m_cycle: P1_R(v, w) :- P0_R(_, v)")
    system.add_mapping(text)
    report = analyze(system, lowering=False)
    assert code in report.codes(), f"{code} not in {report.codes()}"


@settings(max_examples=10, deadline=None)
@given(
    ghost=st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=127),
        min_size=1,
        max_size=8,
    )
)
def test_dangling_trust_references_are_flagged(ghost):
    system = fresh_system()
    policy = TrustPolicy()
    policy.distrust_relation(f"X_{ghost}")
    policy.distrust_mapping(f"x_{ghost}")
    report = analyze(system, policies=[policy], lowering=False)
    assert {"RA301", "RA302"} <= report.codes()


@settings(max_examples=10, deadline=None)
@given(num_peers=st.integers(min_value=3, max_value=5))
def test_unmapped_peer_is_flagged_isolated(num_peers):
    system = fresh_system(num_peers)
    lonely = Peer.of("Q0", [RelationSchema.of("Q0_R", ["k", "v"], key=["k"])])
    system.add_peer(lonely)
    report = analyze(system, lowering=False)
    assert any(d.subject == "Q0" for d in report.by_code("RA202"))
