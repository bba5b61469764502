"""Golden tests for the staged pipeline façade.

The pipeline's scale knobs must be invisible in the output: the thread
backend, the persistent artifact cache (cold and warm), and the façade
itself all have to produce guarded tables byte-identical to the legacy
direct ``build_ets -> nes_of_ets -> compile_nes`` path, on every seed
application, and to an artifact built entirely from the test oracles
(per-state ETS walks, uncached FDD algebra).  The fast-vs-reference
knobs that used to select those oracles inside the product are gone,
and their old spellings fail loudly.
"""

import pickle
import warnings
from pathlib import Path

import pytest

from repro import CompileOptions, Delta, Pipeline, compile_app
from repro import pipeline as pipeline_module
from repro.apps import bandwidth_cap_app, firewall_app, ids_app
from repro.events.ets_to_nes import nes_of_ets
from repro.netkat.fdd import FDDBuilder
from repro.pipeline import ArtifactCache, artifact_digest
from repro.runtime.compiler import CompiledNES, compile_nes
from repro.stateful.ets import build_ets

from oracles import per_state_ets, reference_compiled
from seed_apps import APPS, guarded_bytes

# The fast-vs-reference knobs retired into tests/oracles/.
REMOVED_KNOBS = ("symbolic_extract", "knowledge_cache", "ordered_insert", "ast_memo")


def legacy_compile(app) -> CompiledNES:
    """The pre-pipeline entry points, chained by hand."""
    ets = build_ets(app.program, app.initial_state)
    return compile_nes(nes_of_ets(ets), app.topology)


# ---------------------------------------------------------------------------
# Byte-identity goldens: backend x cache x façade, on all seven seed apps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_backends_cache_and_facade_byte_identical(name, make, tmp_path):
    app = make()
    reference = guarded_bytes(legacy_compile(app))

    serial = Pipeline(app.program, app.topology, app.initial_state)
    assert guarded_bytes(serial.compiled) == reference

    threaded = Pipeline(
        app.program,
        app.topology,
        app.initial_state,
        CompileOptions(backend="thread", max_workers=4),
    )
    assert guarded_bytes(threaded.compiled) == reference

    cached = CompileOptions(cache_dir=tmp_path / "cache")
    cold = Pipeline(app.program, app.topology, app.initial_state, cached)
    assert guarded_bytes(cold.compiled) == reference
    assert cold.report().artifact_cache == "miss"

    warm = Pipeline(app.program, app.topology, app.initial_state, cached)
    assert guarded_bytes(warm.compiled) == reference
    assert warm.report().artifact_cache == "hit"


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_symbolic_extract_byte_identical(name, make):
    """The symbolic all-states engine must produce ETS vertices/edges
    and guarded tables byte-identical to the per-state extract/project
    walks of the oracle (whose tables also go through the uncached FDD
    algebra)."""
    app = make()
    fast = Pipeline(app.program, app.topology, app.initial_state)
    reference = per_state_ets(app.program, app.initial_state)
    assert fast.ets.initial == reference.initial
    assert fast.ets.vertices == reference.vertices
    assert fast.ets.edges == reference.edges
    assert repr(fast.ets) == repr(reference)
    assert guarded_bytes(fast.compiled) == guarded_bytes(
        reference_compiled(app.program, app.topology, app.initial_state)
    )


_SEED_PROBE = """
import hashlib, json
from repro.pipeline import Pipeline
from seed_apps import APPS, guarded_bytes
out = {}
for name, make in APPS:
    app = make()
    pipeline = Pipeline(app.program, app.topology, app.initial_state)
    out[name] = {
        "vertices": repr(pipeline.ets.vertices),
        "tables": hashlib.sha256(guarded_bytes(pipeline.compiled)).hexdigest(),
    }
print(json.dumps(out))
"""


def test_ets_and_tables_independent_of_hash_seed():
    """The BFS visits each state's edges in a canonical order, so the
    ETS vertex order -- and with it every table -- is the same under any
    hash seed (seed 59 once swapped learning_multi's (0, 1) and (1, 0))."""
    import json
    import os
    import subprocess
    import sys

    tests_dir = Path(__file__).parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    runs = {}
    for seed in ("0", "7", "59"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs[seed] = json.loads(done.stdout)
    assert sorted(runs["0"]) == sorted(name for name, _ in APPS)
    assert runs["7"] == runs["0"]
    assert runs["59"] == runs["0"]


def test_artifact_key_changed_with_the_options_fingerprint(monkeypatch):
    """Format 3 dropped the retired knobs from the options fingerprint,
    so an entry cached under format 2 must miss, not be served."""
    app = firewall_app()
    base = CompileOptions()
    fingerprint = base.semantic_fingerprint()
    assert not any(name in fingerprint for name in REMOVED_KNOBS)
    assert pipeline_module.ARTIFACT_FORMAT == 3
    current = artifact_digest(app.program, app.topology, app.initial_state, base)
    monkeypatch.setattr(pipeline_module, "ARTIFACT_FORMAT", 2)
    assert current != artifact_digest(
        app.program, app.topology, app.initial_state, base
    )


def test_report_shows_the_symbolic_vs_instantiate_split():
    app = firewall_app()
    fast = Pipeline(app.program, app.topology, app.initial_state)
    fast.ets
    report = fast.report()
    subs = [name for name, _ in report.substages]
    assert subs == ["ets.symbolic", "ets.instantiate"]
    assert report.substage("ets.symbolic") is not None
    # The substages refine the ets stage; total_seconds() counts each
    # stage once.
    assert report.total_seconds() == pytest.approx(
        sum(s for _, s in report.stage_seconds)
    )
    assert "ets.symbolic" in str(report) and "ets.instantiate" in str(report)


def test_app_facade_matches_legacy():
    app = firewall_app()
    assert guarded_bytes(app.compiled) == guarded_bytes(legacy_compile(app))
    # The app's staged artifacts are the pipeline's.
    assert app.compiled is app.pipeline.compiled
    assert app.nes is app.pipeline.nes
    # The façade's table accessor forwards the tag_field override.
    assert app.pipeline.guarded_tables() == app.compiled.guarded_tables()
    custom = app.pipeline.guarded_tables(tag_field="cfg")
    rules = [r for t in custom.values() for r in t]
    assert rules and all(r.match.get("cfg") is not None for r in rules)


# ---------------------------------------------------------------------------
# The artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_warm_hit_skips_ets_and_nes_stages(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        Pipeline(app.program, app.topology, app.initial_state, options).compiled

        warm = Pipeline(app.program, app.topology, app.initial_state, options)
        warm.compiled
        stages = [name for name, _ in warm.report().stage_seconds]
        assert stages == ["compile"]
        # The NES is recovered from the artifact, not rebuilt.
        assert warm.nes is warm.compiled.nes
        assert [name for name, _ in warm.report().stage_seconds] == ["compile"]
        # Execution-only fields reflect this run, not the storing one:
        # backends share cache entries, so a serial load of a
        # thread-stored artifact must not claim backend="thread".
        threaded_store = CompileOptions(backend="thread", cache_dir=tmp_path)
        Pipeline(
            app.program, app.topology, app.initial_state, threaded_store
        ).compiled
        serial_load = Pipeline(
            app.program, app.topology, app.initial_state, options
        )
        assert serial_load.compiled.options.backend == "serial"
        assert serial_load.compiled.options.cache_dir == options.cache_dir

    def test_warm_hit_serves_nes_without_building_the_ets(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        Pipeline(app.program, app.topology, app.initial_state, options).compiled

        warm = Pipeline(app.program, app.topology, app.initial_state, options)
        # Touching .nes first (the examples do) must still hit the cache
        # rather than paying for the ETS and NES stages.
        nes = warm.nes
        assert warm.report().artifact_cache == "hit"
        stages = [name for name, _ in warm.report().stage_seconds]
        assert stages == ["compile"]
        assert nes is warm.compiled.nes

    def test_uncreatable_cache_dir_disables_the_cache(self, tmp_path, monkeypatch):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path / "cache")

        def broken_init(self, root):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(ArtifactCache, "__init__", broken_init)
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)
        assert guarded_bytes(pipeline.compiled) == guarded_bytes(
            legacy_compile(app)
        )
        assert pipeline.report().artifact_cache is None

    def test_artifact_survives_a_different_hash_seed(self, tmp_path):
        """Events/formulas cache PYTHONHASHSEED-dependent hashes; a warm
        artifact stored under another seed must still interoperate with
        freshly built equal events in this process."""
        import os
        import subprocess
        import sys

        store = (
            "from repro import CompileOptions, Pipeline\n"
            "from repro.apps import firewall_app\n"
            "app = firewall_app()\n"
            f"opts = CompileOptions(cache_dir={str(tmp_path)!r})\n"
            "Pipeline(app.program, app.topology, app.initial_state, opts).compiled\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = str(
            Path(__file__).parent.parent / "src"
        )
        subprocess.run(
            [sys.executable, "-c", store], env=env, check=True, timeout=120
        )

        app = firewall_app()
        opts = CompileOptions(cache_dir=tmp_path)
        warm = Pipeline(app.program, app.topology, app.initial_state, opts)
        loaded = warm.compiled
        assert warm.report().artifact_cache == "hit"
        for event in loaded.nes.events:
            fresh = type(event)(event.guard, event.location, event.eid)
            assert hash(fresh) == hash(event)
            assert fresh in frozenset(loaded.nes.events)
            assert loaded.nes.structure.event_index.get(fresh) is not None
        assert guarded_bytes(loaded) == guarded_bytes(legacy_compile(app))

    def test_key_covers_program_state_and_semantic_options(self):
        app = firewall_app()
        ids = ids_app()
        base = CompileOptions()
        key = artifact_digest(app.program, app.topology, app.initial_state, base)
        assert key == artifact_digest(
            app.program, app.topology, app.initial_state, base
        )
        assert key != artifact_digest(
            ids.program, ids.topology, ids.initial_state, base
        )
        assert key != artifact_digest(
            app.program, app.topology, (1,), base
        )
        assert key != artifact_digest(
            app.program,
            app.topology,
            app.initial_state,
            base.replace(tag_field="cfg"),
        )

    def test_execution_only_options_share_the_key(self, tmp_path):
        app = firewall_app()
        base = CompileOptions()
        for variant in (
            base.replace(backend="thread"),
            base.replace(max_workers=7),
            base.replace(cache_dir=tmp_path),
        ):
            assert artifact_digest(
                app.program, app.topology, app.initial_state, variant
            ) == artifact_digest(app.program, app.topology, app.initial_state, base)

    def test_key_covers_the_package_version(self, monkeypatch):
        import repro

        app = firewall_app()
        base = CompileOptions()
        key = artifact_digest(app.program, app.topology, app.initial_state, base)
        monkeypatch.setattr(repro, "__version__", "99.0.0")
        assert key != artifact_digest(
            app.program, app.topology, app.initial_state, base
        )

    def test_corrupt_entry_is_a_miss_and_gets_repaired(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)
        key = pipeline.artifact_key()
        ArtifactCache(tmp_path).path(key).write_bytes(b"not a pickle")

        assert guarded_bytes(pipeline.compiled) == guarded_bytes(
            legacy_compile(app)
        )
        assert pipeline.report().artifact_cache == "miss"
        # The store overwrote the corrupt entry; the next pipeline hits.
        rerun = Pipeline(app.program, app.topology, app.initial_state, options)
        rerun.compiled
        assert rerun.report().artifact_cache == "hit"

    def test_artifact_pickles_without_guarded_table_memo(self):
        compiled = firewall_app().compiled
        compiled.guarded_tables()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._guarded_tables == {}
        # The builder is not shipped either (its AST memos are keyed by
        # id() values from the storing process); the clone gets a fresh
        # one configured by the same options.
        assert clone._builder is not compiled._builder
        assert not clone._builder._memo_of_policy
        # Same for the event structure's id()-keyed shadow index: every
        # key must be a live id of the clone's own universe, never a
        # stale storing-process address.
        structure = clone.nes.structure
        live = {id(e) for e in structure._universe}
        assert set(structure._index_by_id) == live
        assert guarded_bytes(clone) == guarded_bytes(compiled)

    def test_failed_store_does_not_discard_the_compile(self, tmp_path, monkeypatch):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)

        def broken_store(self, key, compiled):
            raise OSError("disk full")

        monkeypatch.setattr(ArtifactCache, "store", broken_store)
        assert guarded_bytes(pipeline.compiled) == guarded_bytes(
            legacy_compile(app)
        )

    def test_store_failure_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        compiled = firewall_app().compiled
        cache = ArtifactCache(tmp_path)
        # A pickling failure happens before any file is touched...
        monkeypatch.setattr(
            pickle, "dumps", lambda *a, **k: (_ for _ in ()).throw(OSError("boom"))
        )
        with pytest.raises(OSError):
            cache.store("somekey", compiled)
        assert list(tmp_path.iterdir()) == []
        # ...and a write failure after it cleans its temp file up.
        monkeypatch.undo()
        real_open = open

        def broken_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            if str(path).startswith(str(tmp_path)) and "w" in str(args):
                handle.close()
                raise OSError("disk full")
            return handle

        monkeypatch.setattr("builtins.open", broken_open)
        with pytest.raises(OSError):
            cache.store("somekey", compiled)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# CompileOptions
# ---------------------------------------------------------------------------


class TestCompileOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompileOptions(backend="fork")
        with pytest.raises(ValueError):
            CompileOptions(max_workers=0)
        with pytest.raises(ValueError):
            CompileOptions(max_frontier=0)
        with pytest.raises(ValueError):
            CompileOptions(tag_field="")

    def test_replace_revalidates(self):
        options = CompileOptions()
        assert options.replace(backend="thread").backend == "thread"
        with pytest.raises(ValueError):
            options.replace(backend="fork")

    def test_cache_dir_is_tilde_expanded(self):
        expanded = CompileOptions(cache_dir="~/repro-cache").cache_dir
        assert "~" not in str(expanded)
        assert expanded == Path("~/repro-cache").expanduser()

    def test_make_builder_carries_the_field_order(self):
        builder = CompileOptions(field_order=("ip_dst", "sw")).make_builder()
        assert builder.order.test_key("ip_dst", 9) < builder.order.test_key("sw", 0)
        default = CompileOptions().make_builder()
        assert default.order.test_key("sw", 9) < default.order.test_key("ip_dst", 0)
        assert builder is not default


def test_compile_app_forms():
    app = firewall_app()
    reference = guarded_bytes(app.compiled)
    # With no option overrides, the app's own pipeline is reused -- the
    # compile work and the stage report are shared, not redone.
    assert compile_app(app) is app.pipeline.compiled
    assert guarded_bytes(compile_app(app)) == reference
    assert (
        guarded_bytes(compile_app(app.program, app.topology, app.initial_state))
        == reference
    )
    assert guarded_bytes(compile_app(app, backend="thread")) == reference
    with pytest.raises(TypeError):
        compile_app(app.program)
    # An app bundles its own topology/initial_state; a conflicting
    # override must be rejected, never silently ignored.
    with pytest.raises(TypeError):
        compile_app(app, initial_state=(1,))
    with pytest.raises(TypeError):
        compile_app(app, topology=app.topology)


# ---------------------------------------------------------------------------
# Retired knobs: their old spellings fail loudly
# ---------------------------------------------------------------------------


class TestRemovedSpellings:
    @pytest.mark.parametrize("name", REMOVED_KNOBS)
    def test_compile_options_rejects_removed_knob(self, name):
        with pytest.raises(TypeError, match=name):
            CompileOptions(**{name: False})
        with pytest.raises(TypeError, match=name):
            CompileOptions().replace(**{name: False})

    def test_compile_nes_knowledge_cache_kwarg(self):
        app = firewall_app()
        with pytest.raises(TypeError, match="knowledge_cache"):
            compile_nes(app.nes, app.topology, knowledge_cache=False)
        with pytest.raises(TypeError, match="knowledge_cache"):
            CompiledNES(app.nes, app.topology, knowledge_cache=False)

    def test_fddbuilder_ordered_insert_kwarg(self):
        with pytest.raises(TypeError, match="ordered_insert"):
            FDDBuilder(ordered_insert=False)
        with pytest.raises(TypeError, match="ast_memo"):
            FDDBuilder(ast_memo=False)

    def test_build_ets_symbolic_extract_kwarg(self):
        app = firewall_app()
        with pytest.raises(TypeError, match="symbolic_extract"):
            build_ets(app.program, app.initial_state, symbolic_extract=False)

    def test_default_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FDDBuilder()
            compile_nes(firewall_app().nes, firewall_app().topology)


# ---------------------------------------------------------------------------
# Per-options guarded-table memo
# ---------------------------------------------------------------------------


class TestGuardedTablesPerOptionsMemo:
    def test_tag_field_variants_do_not_alias(self):
        compiled = firewall_app().compiled
        default = compiled.guarded_tables()
        custom = compiled.guarded_tables(tag_field="cfg")
        # Each variant guards with its own field...
        for tables, field_name in ((default, "tag"), (custom, "cfg")):
            rules = [r for t in tables.values() for r in t]
            assert rules and all(
                r.match.get(field_name) is not None for r in rules
            )
        # ...and asking for the default again returns the default memo,
        # not whichever variant was computed last.
        again = compiled.guarded_tables()
        for switch in default:
            assert again[switch] is default[switch]

    def test_invalidate_clears_every_variant(self):
        compiled = firewall_app().compiled
        default = compiled.guarded_tables()
        custom = compiled.guarded_tables(tag_field="cfg")
        compiled.invalidate_guarded_tables()
        assert any(
            compiled.guarded_tables()[sw] is not default[sw] for sw in default
        )
        assert any(
            compiled.guarded_tables(tag_field="cfg")[sw] is not custom[sw]
            for sw in custom
        )

    def test_options_tag_field_sets_the_default(self):
        app = firewall_app()
        compiled = compile_nes(
            app.nes, app.topology, options=CompileOptions(tag_field="cfg")
        )
        rules = [r for t in compiled.guarded_tables().values() for r in t]
        assert rules and all(r.match.get("cfg") is not None for r in rules)

    def test_colliding_tag_field_is_rejected_not_overwritten(self):
        # Match.extended silently replaces an existing constraint, so a
        # tag field the program already matches on must raise, never
        # corrupt the rule (section 4.1 argues for an *unused* field).
        app = firewall_app()
        compiled = compile_nes(
            app.nes, app.topology, options=CompileOptions(tag_field="pt")
        )
        with pytest.raises(ValueError, match="collides"):
            compiled.guarded_tables()
        # The §5.3 optimizer's guarded merge enforces the same rule.
        from repro.optimize.sharing import optimize_compiled_nes

        with pytest.raises(ValueError, match="collides"):
            optimize_compiled_nes(compiled)
        # repr stays total: it must not force the guarded merge.
        assert "CompiledNES" in repr(compiled)

    def test_options_tag_field_reaches_the_optimizer(self):
        from repro.optimize.sharing import (
            optimize_compiled_nes,
            optimized_table_equivalent,
        )

        app = firewall_app()
        compiled = compile_nes(
            app.nes, app.topology, options=CompileOptions(tag_field="cfg")
        )
        optimization = optimize_compiled_nes(compiled)
        guards = [
            r.match.get("cfg")
            for switch_result in optimization.per_switch
            for r in switch_result.rules
        ]
        assert guards and all(g is not None for g in guards)
        for switch_result in optimization.per_switch:
            assert optimized_table_equivalent(compiled, switch_result)


# ---------------------------------------------------------------------------
# Thread backend details
# ---------------------------------------------------------------------------


def test_thread_backend_preserves_state_order():
    app = bandwidth_cap_app()
    serial = compile_nes(app.nes, app.topology)
    threaded = compile_nes(
        app.nes,
        app.topology,
        options=CompileOptions(backend="thread", max_workers=3),
    )
    assert list(serial.configurations) == list(threaded.configurations)
    assert serial.states == threaded.states


def test_explicit_builder_forces_serial_path():
    app = firewall_app()
    builder = FDDBuilder()
    compiled = compile_nes(
        app.nes,
        app.topology,
        builder,  # old positional spelling must keep binding to builder=
        options=CompileOptions(backend="thread"),
    )
    # The caller-owned builder compiled every configuration (its AST
    # memos are warm), which only the serial path guarantees.
    assert compiled._builder is builder
    assert builder._memo_of_policy
    assert guarded_bytes(compiled) == guarded_bytes(app.compiled)


# ---------------------------------------------------------------------------
# Incremental recompilation: Pipeline.update and Delta
# ---------------------------------------------------------------------------


def cold_after(app, delta):
    """The from-scratch pipeline for the post-delta program."""
    return Pipeline(
        delta.apply_program(app.program),
        delta.apply_topology(app.topology),
        delta.apply_initial_state(app.initial_state),
        app.options,
    )


class TestPipelineUpdate:
    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_noop_delta_is_byte_identical_with_full_reuse(self, name, make):
        app = make()
        base = Pipeline(app.program, app.topology, app.initial_state)
        updated = base.update(Delta())
        assert guarded_bytes(updated.compiled) == guarded_bytes(base.compiled)
        stats = dict(updated.report().stats)
        assert stats["update.reuse_percent"] == 100
        assert stats["update.configurations_recompiled"] == 0
        assert stats["update.states_reinstantiated"] == 0

    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_state_delta_matches_cold_rebuild(self, name, make):
        app = make()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = Delta(set_state=((0, 1),))
        assert guarded_bytes(base.update(delta).compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    def test_policy_delta_matches_cold_rebuild(self):
        from repro.netkat.ast import Filter, conj, test

        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        # Widen the outgoing filter: also admit ip_dst=2 traffic.
        old = Filter(conj(test("pt", 2), test("ip_dst", 4)))
        new = Filter(conj(test("pt", 2), test("ip_dst", 2)))
        delta = Delta(replace_policy=old, with_policy=new)
        assert guarded_bytes(base.update(delta).compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    def test_state_test_delta_matches_cold_rebuild(self):
        from repro.netkat.ast import Filter
        from repro.stateful.ast import state_test

        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = Delta(
            replace_policy=Filter(state_test(0, 1)),
            with_policy=Filter(state_test(0, 0)),
        )
        assert guarded_bytes(base.update(delta).compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    def test_reference_extraction_path_matches_cold_rebuild(self):
        # The update against a cold artifact built from the oracles:
        # per-state ETS walks and the uncached FDD algebra.
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = Delta(set_state=((0, 1),))
        updated = base.update(delta)
        initial = delta.apply_initial_state(app.initial_state)
        assert updated.ets.vertices == per_state_ets(app.program, initial).vertices
        assert guarded_bytes(updated.compiled) == guarded_bytes(
            reference_compiled(app.program, app.topology, initial)
        )

    def test_unaffected_configurations_are_reused_not_recompiled(self):
        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        updated = base.update(Delta(set_state=((0, 1),)))
        stats = dict(updated.report().stats)
        # Advancing the counter drops state 0 from the reachable set but
        # leaves every surviving state's guard untouched.
        assert stats["update.configurations_reused"] > 0
        assert stats["update.configurations_recompiled"] == 0
        reused = updated.compiled.configurations
        for state, configuration in base.compiled.configurations.items():
            if state in reused:
                assert reused[state] is configuration

    def test_artifact_key_reflects_the_post_delta_program(self):
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = Delta(set_state=((0, 1),))
        updated = base.update(delta)
        assert updated.artifact_key() == cold_after(app, delta).artifact_key()
        assert updated.artifact_key() != base.artifact_key()

    def test_zero_hit_replacement_raises(self):
        from repro.netkat.ast import Filter, test

        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        with pytest.raises(ValueError, match="does not occur"):
            base.update(
                Delta(
                    replace_policy=Filter(test("ip_dst", 99)),
                    with_policy=Filter(test("ip_dst", 98)),
                )
            )

    def test_out_of_range_state_component_raises(self):
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        with pytest.raises(ValueError):
            base.update(Delta(set_state=((5, 1),)))

    def test_update_on_a_warm_cache_is_a_hit(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        delta = Delta(set_state=((0, 1),))
        base = Pipeline(app.program, app.topology, app.initial_state, options)
        base.compiled
        # Prime the cache with the post-delta artifact, then update: the
        # updated pipeline must serve it instead of recompiling.
        reference = guarded_bytes(cold_after(app, delta).compiled)
        base.update(delta)  # stores the post-delta artifact
        again = Pipeline(app.program, app.topology, app.initial_state, options)
        updated = again.update(delta)
        assert updated.report().artifact_cache == "hit"
        assert guarded_bytes(updated.compiled) == reference
        stats = dict(updated.report().stats)
        assert stats["update.reuse_percent"] == 100


# ---------------------------------------------------------------------------
# Report-shape pins: warm-cache and update reports
# ---------------------------------------------------------------------------


class TestReportShapes:
    def test_warm_cache_report_omits_ets_and_nes(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        Pipeline(app.program, app.topology, app.initial_state, options).compiled
        warm = Pipeline(app.program, app.topology, app.initial_state, options)
        warm.compiled
        report = warm.report()
        assert [name for name, _ in report.stage_seconds] == ["compile"]
        assert report.substages == ()
        assert report.artifact_cache == "hit"
        stat_names = [name for name, _ in report.stats]
        assert "ets_states" not in stat_names
        assert "nes_events" not in stat_names

    def test_update_report_shape(self):
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        report = base.update(Delta(set_state=((0, 1),))).report()
        stages = [name for name, _ in report.stage_seconds]
        assert stages == ["ets", "nes", "compile"]
        subs = [name for name, _ in report.substages]
        assert subs == ["ets.symbolic", "ets.instantiate", "update.delta"]
        stat_names = [name for name, _ in report.stats]
        assert stat_names[-5:] == [
            "update.states_reinstantiated",
            "update.states_reused",
            "update.configurations_recompiled",
            "update.configurations_reused",
            "update.reuse_percent",
        ]
        # The trailing substage block keeps update.delta visible.
        assert "update.delta" in str(report)


# ---------------------------------------------------------------------------
# App.pipeline memoization is keyed on the pipeline's inputs
# ---------------------------------------------------------------------------


class TestAppPipelineMemo:
    def test_replaced_options_invalidate_the_memo(self):
        app = firewall_app()
        first = app.pipeline
        assert app.pipeline is first  # unchanged inputs share the pipeline
        fresh = CompileOptions(max_frontier=64)
        object.__setattr__(app, "options", fresh)
        second = app.pipeline
        assert second is not first
        assert second.options is fresh
        assert app.pipeline is second

    def test_replaced_initial_state_invalidates_the_memo(self):
        app = firewall_app()
        first = app.pipeline
        object.__setattr__(app, "initial_state", (1,))
        second = app.pipeline
        assert second is not first
        assert second.initial_state == (1,)


# ---------------------------------------------------------------------------
# Thread safety: the lazy stage memos under concurrent access
# ---------------------------------------------------------------------------


class TestPipelineThreadSafety:
    def test_barrier_synchronized_threads_compile_once(self, monkeypatch):
        """Two threads released together into ``.compiled`` run the
        compile stage exactly once and observe the same object — the
        service shares memoized pipelines across request threads, so a
        double-compile (or a torn half-built stage) here would be a
        served-table race there."""
        import threading

        import repro.pipeline as pipeline_module

        calls = []
        real_compile = pipeline_module.compile_nes

        def counting_compile(*args, **kwargs):
            calls.append(threading.get_ident())
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "compile_nes", counting_compile)

        app = firewall_app()
        pipeline = Pipeline(app.program, app.topology, app.initial_state)
        barrier = threading.Barrier(2)
        results = [None, None]
        errors = []

        def race(slot):
            try:
                barrier.wait()
                results[slot] = pipeline.compiled
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=race, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(calls) == 1
        assert results[0] is not None
        assert results[0] is results[1]
        # Publish-last memoization: anyone who saw the compiled object
        # also sees each stage timing recorded exactly once.
        report = pipeline.report()
        assert [name for name, _ in report.stage_seconds] == [
            "ets", "nes", "compile",
        ]


# ---------------------------------------------------------------------------
# PipelineReport.to_dict: the wire shape /stats and --json serve
# ---------------------------------------------------------------------------


class TestReportToDict:
    def test_shape_is_pinned(self):
        """The exact key set of the JSON report — the service's /compile
        report field and ``repro compile --json`` both serve this, so a
        drift here is a wire-format break."""
        import json

        app = firewall_app()
        pipeline = Pipeline(app.program, app.topology, app.initial_state)
        pipeline.compiled
        report = pipeline.report().to_dict()
        assert sorted(report) == [
            "artifact_cache",
            "backend",
            "health",
            "stages",
            "stats",
            "substages",
            "total_seconds",
        ]
        # JSON-serializable end to end, and faithful to the report.
        rehydrated = json.loads(json.dumps(report))
        assert rehydrated == report
        assert set(report["stages"]) == {"ets", "nes", "compile"}
        assert report["backend"] == "serial"
        assert report["artifact_cache"] is None  # no cache configured
        assert report["total_seconds"] == pytest.approx(
            sum(report["stages"].values())
        )
