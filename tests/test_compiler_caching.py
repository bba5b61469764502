"""Golden tests: the perf-wave caches must be invisible.

The ordered-insert ITE strategy in the FDD algebra, the id-keyed AST
memos and the per-builder knowledge-FDD cache in the path compiler are
pure optimizations.  Their uncached forms live in the test oracle
``oracles.ReferenceFDDBuilder``, and this module asserts the guarded
tables both produce are byte-identical on every seed application.  It
also covers the memoized ``CompiledNES.guarded_tables``: cache reuse,
defensive copies, and explicit invalidation.
"""

import pytest

from repro.apps import bandwidth_cap_app, firewall_app, ids_app
from repro.netkat.compiler import Knowledge, knowledge_fdd
from repro.netkat.fdd import FDDBuilder
from repro.runtime.compiler import CompiledNES

from oracles import ReferenceFDDBuilder, reference_compiled
from seed_apps import APPS, guarded_bytes


def reference_compile(app) -> CompiledNES:
    """Recompile the app's NES with the uncached FDD algebra."""
    return CompiledNES(app.nes, app.topology, builder=ReferenceFDDBuilder())


def reference_pipeline_compile(app) -> CompiledNES:
    """The full toolchain on the oracles: per-state extract/project ETS
    construction plus the uncached FDD algebra."""
    return reference_compiled(app.program, app.topology, app.initial_state)


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_guarded_tables_byte_identical(name, make):
    app = make()
    assert guarded_bytes(app.compiled) == guarded_bytes(reference_compile(app))


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_guarded_tables_byte_identical_symbolic_off(name, make):
    """Symbolic all-states extraction stacked with the caches: the full
    production pipeline against the all-oracle build, end to end."""
    app = make()
    assert guarded_bytes(app.compiled) == guarded_bytes(
        reference_pipeline_compile(app)
    )


@pytest.mark.slow
def test_guarded_tables_byte_identical_deep_chain():
    """The deep bandwidth-cap chain, where the caches do the most work."""
    app = bandwidth_cap_app(16)
    assert guarded_bytes(app.compiled) == guarded_bytes(reference_compile(app))


class TestKnowledgeFddCache:
    def test_cache_hit_returns_same_node(self):
        builder = FDDBuilder()
        k = Knowledge(pos=(("ip_dst", 4), ("sw", 1)), neg=(("pt", (2, 3)),))
        assert knowledge_fdd(builder, k) is knowledge_fdd(builder, k)

    def test_equal_knowledge_shares_the_entry(self):
        builder = FDDBuilder()
        k1 = Knowledge(pos=(("sw", 1),))
        k2 = Knowledge(pos=(("sw", 1),))
        assert k1 == k2
        assert knowledge_fdd(builder, k1) is knowledge_fdd(builder, k2)

    def test_cache_is_per_builder(self):
        k = Knowledge(pos=(("sw", 1),))
        b1, b2 = FDDBuilder(), FDDBuilder()
        d1 = knowledge_fdd(b1, k)
        d2 = knowledge_fdd(b2, k)
        assert d1 is not d2  # separate hash-cons universes
        assert repr(d1) == repr(d2)

    def test_cached_fdd_matches_uncached_compile(self):
        builder = FDDBuilder()
        k = Knowledge(pos=(("sw", 2),), neg=(("ip_src", (0, 1)),))
        assert knowledge_fdd(builder, k) is builder.of_predicate(k.predicate())

    def test_oracle_compiles_every_knowledge_predicate_afresh(self):
        builder = ReferenceFDDBuilder()
        k = Knowledge(pos=(("sw", 2),), neg=(("ip_src", (0, 1)),))
        calls = []
        original = builder.of_predicate

        def counted(a):
            calls.append(a)
            return original(a)

        builder.of_predicate = counted
        first = knowledge_fdd(builder, k)
        walked = len(calls)
        assert walked > 0
        assert knowledge_fdd(builder, k) is first  # hash-consed, not cached
        assert len(calls) == 2 * walked  # the whole AST walked again
        assert repr(first) == repr(knowledge_fdd(FDDBuilder(), k))


class TestGuardedTableMemo:
    def test_repeated_calls_reuse_cached_flowtables(self):
        compiled = firewall_app().compiled
        t1 = compiled.guarded_tables()
        t2 = compiled.guarded_tables()
        assert t1 is not t2  # fresh mapping each call
        assert t1.keys() == t2.keys()
        for switch in t1:
            assert t1[switch] is t2[switch]  # memo hit: same FlowTable objects

    def test_mutating_returned_mapping_does_not_corrupt_cache(self):
        compiled = firewall_app().compiled
        before = guarded_bytes(compiled)
        compiled.guarded_tables().clear()
        assert guarded_bytes(compiled) == before

    def test_invalidate_forces_rebuild(self):
        compiled = firewall_app().compiled
        t1 = compiled.guarded_tables()
        compiled.invalidate_guarded_tables()
        t2 = compiled.guarded_tables()
        assert any(t1[switch] is not t2[switch] for switch in t1)
        assert {sw: t.rules for sw, t in t1.items()} == {
            sw: t.rules for sw, t in t2.items()
        }

    def test_invalidate_picks_up_configuration_replacement(self):
        from repro.netkat.compiler import Configuration

        compiled = firewall_app().compiled
        stale_count = compiled.forwarding_rule_count()
        state = compiled.states[0]
        compiled.configurations[state] = Configuration({}, compiled.topology)
        # The memo intentionally does not observe the mutation...
        assert compiled.forwarding_rule_count() == stale_count
        # ...until it is invalidated.
        compiled.invalidate_guarded_tables()
        assert compiled.forwarding_rule_count() < stale_count

    def test_rule_counts_agree_with_tables(self):
        compiled = ids_app().compiled
        tables = compiled.guarded_tables()
        assert compiled.forwarding_rule_count() == sum(
            len(t) for t in tables.values()
        )
        assert (
            compiled.total_rule_count()
            == compiled.forwarding_rule_count() + compiled.stamp_rule_count()
        )
