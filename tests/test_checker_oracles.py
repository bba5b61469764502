"""The fast Definition 6 checker against its references.

* Verdict identity: on a seeded corpus (``checker_corpus.py``) every
  ``CorrectnessReport`` and ``sequences_tried`` equals the value recorded
  in ``golden/checker_verdicts.json`` with the checker that built the
  quadratic frozenset closure and ran ``packet_trace_in_traces`` per
  (configuration, packet trace).  The production checker is held to the
  ``masked`` column, and the frozenset event search of
  ``oracles.ReferenceChecker`` to the ``unmasked`` one.
* Happens-before: the bitset ``HappensBefore`` agrees with the frozenset
  closure of Definition 1 on every pair of positions, on runtime traces
  and on random multi-switch traces.
* Membership: ``TraceMembership`` agrees with ``packet_trace_in_traces``
  for every NES configuration and packet trace of the runtime traces.
* Complexity: one long bandwidth-cap check calls ``switch_step`` at most
  once per (distinct switch table, position).
"""

import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import bandwidth_cap_app
from repro.consistency.checker import NESChecker
from repro.consistency.traces import (
    NetworkTrace,
    TraceMembership,
    packet_trace_in_traces,
)
from repro.netkat.compiler import Configuration
from repro.netkat.packet import LocatedPacket, Packet
from checker_corpus import corpus, oracle_before, ping_trace, runtime_traces

from oracles import ReferenceChecker

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "checker_verdicts.json").read_text()
)


@lru_cache(maxsize=None)
def _corpus():
    return {cid: (app, trace) for cid, app, trace in corpus()}


def _assert_hb_matches_oracle(trace: NetworkTrace) -> None:
    hb = trace.happens_before()
    oracle = oracle_before(trace)
    n = len(trace.packets)
    for i in range(n):
        for j in range(n):
            assert hb.before(i, j) == (j in oracle[i]), (i, j)


class TestVerdictIdentity:
    def test_corpus_matches_recorded_cases(self):
        assert sorted(_corpus()) == sorted(GOLDEN)

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_report_and_sequences_tried(self, case, masked):
        app, trace = _corpus()[case]
        expected = GOLDEN[case]
        assert len(trace.packets) == expected["positions"]
        recorded = expected["masked" if masked else "unmasked"]
        checker = (NESChecker if masked else ReferenceChecker)(app.nes, app.topology)
        report = checker.check(trace)
        violating = report.violating_trace
        assert {
            "correct": report.correct,
            "reason": report.reason,
            "violating_trace": list(violating) if violating is not None else None,
            "sequences_tried": checker.sequences_tried,
        } == recorded


class TestHappensBeforeOracle:
    @pytest.mark.parametrize(
        "case", [cid for cid in sorted(GOLDEN) if GOLDEN[cid]["positions"] <= 320]
    )
    def test_runtime_traces(self, case):
        _assert_hb_matches_oracle(_corpus()[case][1])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_synthetic_multi_switch_traces(self, data):
        n = data.draw(st.integers(1, 200), label="positions")
        switches = data.draw(
            st.lists(st.integers(1, 5), min_size=n, max_size=n), label="switches"
        )
        roots = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="roots"
        )
        picks = data.draw(
            st.lists(st.integers(0, 2**16), min_size=n, max_size=n), label="parents"
        )
        # A family of trees: position k is a root or the child of an
        # earlier position; T holds every root-to-leaf path.
        parent = [None if k == 0 or roots[k] else picks[k] % k for k in range(n)]
        has_child = {p for p in parent if p is not None}
        sequences = set()
        for leaf in range(n):
            if leaf in has_child:
                continue
            path = [leaf]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            sequences.add(tuple(reversed(path)))
        packets = tuple(
            LocatedPacket.of(Packet({"sw": switches[k], "pt": 1, "ident": k}))
            for k in range(n)
        )
        _assert_hb_matches_oracle(NetworkTrace(packets, frozenset(sequences)))


class TestMembershipOracle:
    @pytest.mark.parametrize(
        "case", [cid for cid, _, _ in runtime_traces() if "long" not in cid]
    )
    def test_every_configuration_and_packet_trace(self, case):
        app, trace = _corpus()[case]
        # Add every prefix of every packet trace (still a family of
        # trees): packets cut off mid-path, at links and at switches.
        trace = NetworkTrace(
            trace.packets,
            frozenset(t[:k] for t in trace.trace_indices for k in range(1, len(t) + 1)),
        )
        checker = NESChecker(app.nes, app.topology)
        configs = [
            checker.configuration(state) for state in app.nes.configuration_states()
        ]
        membership = TraceMembership(trace, app.topology, checker._table_keys)
        for config in configs:
            for t in trace.sorted_indices:
                expected = packet_trace_in_traces(config, trace.packet_trace(t))
                assert membership(config, t) == expected, (config, t)


class TestSwitchStepsShared:
    def test_long_cap_trace_steps_each_table_and_position_once(self, monkeypatch):
        app = bandwidth_cap_app(8)
        trace = ping_trace(app, 5, 160)
        assert len(trace.packets) >= 800
        checker = NESChecker(app.nes, app.topology)
        calls = Counter()
        original = Configuration.switch_step

        def counted(config, lp):
            calls[config.table(lp.location.switch).rules, lp] += 1
            return original(config, lp)

        monkeypatch.setattr(Configuration, "switch_step", counted)
        report = checker.check(trace)
        assert report, report.reason
        assert checker.sequences_tried == 9
        assert max(calls.values()) == 1
        # Bounded by positions times the distinct tables at each switch.
        tables = {}
        for config in checker._configs.values():
            for switch, table in config.tables.items():
                tables.setdefault(switch, set()).add(table.rules)
        bound = sum(len(tables[lp.location.switch]) for lp in trace.packets)
        assert sum(calls.values()) <= bound
