import csv
import hashlib
import io

import pytest

from safesets.campaign import (
    LARGE_ORDER_WARNING,
    derive_seed,
    report_to_csv,
    report_to_json,
    run_characterization_campaign,
    study_graph,
)
from safesets.enumerate import enumerate_connected_graphs
from safesets.family import MEMBER, NON_MEMBER, classify
from safesets.graph import Graph, InputError
from safesets.graph6 import to_graph6


class TestDerivedSeeds:
    def test_frozen(self):
        assert derive_seed(0, "Cl") == 7608044604313192033

    def test_graph_and_master_sensitivity(self):
        assert derive_seed(0, "Cl") != derive_seed(1, "Cl")
        assert derive_seed(0, "Cl") != derive_seed(0, "DhC")


class TestStudyGraph:
    def test_member_sampling(self):
        record, failures = study_graph("Cl", 5, 0)
        assert failures == []
        assert record["verdict"] == MEMBER
        assert record["sampling"] == {
            "seed": derive_seed(0, "Cl"), "samples": 5, "allEqual": True}
        assert "certificate" not in record

    def test_non_member_certificate(self):
        g6 = to_graph6(Graph.complete_bipartite(2, 3))
        record, failures = study_graph(g6, 5, 0)
        assert failures == []
        assert record["verdict"] == NON_MEMBER
        cert = record["certificate"]
        assert cert["pattern"] == "KMN"
        assert cert["weights"] == ["1"] * 5
        assert (cert["s"], cert["cs"]) == ("2", "3")
        assert record["betaChain"] == {"minimumSafeSets": 1, "ok": True}

    def test_p5_h1_certificate(self):
        record, failures = study_graph("DhC", 5, 0)
        assert failures == []
        cert = record["certificate"]
        assert cert["pattern"] == "H1"
        assert cert["params"] == {"alpha": "4"}
        assert record["betaChain"]["ok"]

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            study_graph(to_graph6(Graph.from_edges(4, [(0, 1), (2, 3)])), 5, 0)


class TestCampaignRuns:
    def test_small_sweep_clean(self):
        report = run_characterization_campaign(
            max_order=6, samples_per_member=20, seed=0)
        assert report["failures"] == []
        counts = report["counts"]
        assert counts["graphs"] == len(report["records"])
        assert counts["failures"] == 0
        assert counts["members"] + counts["nonMembers"] + \
            counts["undecided"] == counts["graphs"]
        for record in report["records"]:
            if record["verdict"] == NON_MEMBER and record["sweeps"]:
                assert record["betaChain"]["ok"]
            if record["verdict"] == MEMBER and record["sweeps"]:
                assert record["sampling"]["allEqual"]

    def test_deterministic_replay(self):
        kwargs = dict(max_order=5, samples_per_member=10, seed=3)
        a = report_to_json(run_characterization_campaign(**kwargs))
        b = report_to_json(run_characterization_campaign(**kwargs))
        assert a == b

    def test_parallel_matches_serial(self):
        kwargs = dict(max_order=5, samples_per_member=10, seed=0)
        serial = report_to_json(run_characterization_campaign(**kwargs, jobs=1))
        parallel = report_to_json(run_characterization_campaign(**kwargs, jobs=2))
        assert serial == parallel

    def test_records_sorted(self):
        report = run_characterization_campaign(max_order=5,
                                               samples_per_member=5, seed=0)
        keys = [(r["order"], r["graph6"]) for r in report["records"]]
        assert keys == sorted(keys)

    def test_input_graphs(self):
        lines = ["DhC", to_graph6(Graph.cycle(6)), ""]
        report = run_characterization_campaign(
            samples_per_member=5, seed=0, input_graphs=lines)
        assert [r["graph6"] for r in report["records"]] == \
            sorted(["DhC", to_graph6(Graph.cycle(6))],
                   key=lambda s: (len(s), s))
        by_g6 = {r["graph6"]: r for r in report["records"]}
        assert by_g6["DhC"]["certificate"]["pattern"] == "H1"
        assert by_g6[to_graph6(Graph.cycle(6))]["verdict"] == MEMBER

    def test_filter_restricts(self):
        report = run_characterization_campaign(
            max_order=5, samples_per_member=5, seed=0,
            sweep_filter="bipartite")
        assert all("bipartite" in r["sweeps"] for r in report["records"])

    def test_validation(self):
        with pytest.raises(InputError):
            run_characterization_campaign(max_order=0)
        with pytest.raises(InputError):
            run_characterization_campaign(max_order=9)
        with pytest.raises(InputError):
            run_characterization_campaign(sweep_filter="planar")

    def test_jobs_below_one_rejected(self):
        with pytest.raises(InputError, match="jobs"):
            run_characterization_campaign(max_order=3, jobs=0)

    def test_negative_samples_rejected(self):
        with pytest.raises(InputError, match="samples per member"):
            run_characterization_campaign(max_order=3, samples_per_member=-1)

    @pytest.mark.parametrize("jobs, cpus, graphs, workers", [
        (64, 4, 3, 3),     # capped by the number of graphs
        (64, 2, 3, 2),     # capped by the CPU count
        (2, None, 3, 1),   # unknown CPU count: no pool
        (64, 4, 1, 1),     # a single graph: no pool
    ])
    def test_pool_size_clamped(self, monkeypatch, jobs, cpus, graphs, workers):
        import safesets.campaign as campaign_module

        started = []

        class RecordingPool:
            """Stands in for the process pool and runs the map in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(campaign_module, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(campaign_module.os, "cpu_count", lambda: cpus)
        lines = ["Cl", "DhC", to_graph6(Graph.cycle(6))][:graphs]
        kwargs = dict(samples_per_member=2, seed=0, input_graphs=lines)
        report = run_characterization_campaign(**kwargs, jobs=jobs)
        assert started == ([workers] if workers > 1 else [])
        serial = run_characterization_campaign(**kwargs, jobs=1)
        assert report_to_json(report) == report_to_json(serial)

    def test_study_exception_is_a_failure_record(self, monkeypatch):
        import safesets.campaign as campaign_module

        lines = ["Cl", "DhC", to_graph6(Graph.cycle(6))]
        kwargs = dict(samples_per_member=2, seed=0, input_graphs=lines, jobs=1)
        clean = run_characterization_campaign(**kwargs)

        def flaky(g):
            if to_graph6(g) == "DhC":
                raise RuntimeError("boom")
            return classify(g)

        monkeypatch.setattr(campaign_module, "classify", flaky)
        report = run_characterization_campaign(**kwargs)
        assert len(report["records"]) == 3
        assert report["failures"] == [
            {"graph6": "DhC", "kind": "internal-error", "detail": "RuntimeError: boom"}]
        broken = {r["graph6"]: r for r in report["records"]}["DhC"]
        assert broken == {"graph6": "DhC", "order": 5, "sweeps": [], "verdict": None,
                          "family": None, "params": None, "reason": "internal-error"}
        kept = [r for r in report["records"] if r["graph6"] != "DhC"]
        assert kept == [r for r in clean["records"] if r["graph6"] != "DhC"]

    def test_study_input_error_propagates(self, monkeypatch):
        import safesets.campaign as campaign_module

        def refuse(g):
            raise InputError("refused")

        monkeypatch.setattr(campaign_module, "classify", refuse)
        with pytest.raises(InputError, match="refused"):
            run_characterization_campaign(
                samples_per_member=2, seed=0, input_graphs=["Cl"], jobs=1)

    def test_input_above_solver_limit_refused_up_front(self, monkeypatch):
        import safesets.campaign as campaign_module

        studied = []
        monkeypatch.setattr(campaign_module, "study_graph",
                            lambda *args: studied.append(args))
        k30 = to_graph6(Graph.complete(30))
        with pytest.raises(InputError, match=f"input graph {k30} has order 30"):
            run_characterization_campaign(
                samples_per_member=2, seed=0, input_graphs=["Cl", k30], jobs=1)
        assert studied == []

    def test_large_order_warns(self, monkeypatch):
        import safesets.campaign as campaign_module
        monkeypatch.setattr(campaign_module, "enumerate_connected_graphs",
                            lambda order: [])
        with pytest.warns(UserWarning, match="orders above 7"):
            run_characterization_campaign(max_order=8, samples_per_member=1)


class TestReportFormats:
    def test_csv_shape(self):
        report = run_characterization_campaign(
            samples_per_member=5, seed=0, input_graphs=["DhC", "Cl"])
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        assert rows[0][:4] == ["graph6", "order", "sweeps", "verdict"]
        assert len(rows) == 1 + len(report["records"])
        by_g6 = {row[0]: row for row in rows[1:]}
        assert by_g6["DhC"][3] == NON_MEMBER
        assert by_g6["Cl"][3] == MEMBER

    def test_order_six_report_bytes_pinned(self):
        # any change to sweeps, pattern search or certificates moves this hash
        report = run_characterization_campaign(
            max_order=6, samples_per_member=20, seed=0)
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == (
            "45409d1cf6d3881a4f8c904b3f6e8dcf03a333558e79e0f9622331a6b153ab1e")

    def test_json_stable_key_order(self):
        report = run_characterization_campaign(
            samples_per_member=2, seed=0, input_graphs=["Cl"])
        text = report_to_json(report)
        assert text.index('"counts"') < text.index('"records"')


class TestPendantExtension:
    def test_pendants_preserve_non_membership(self):
        # attaching a leaf anywhere on a decided non-member must never
        # produce a member
        for order in range(2, 7):
            for g in enumerate_connected_graphs(order):
                if classify(g).verdict != NON_MEMBER:
                    continue
                for v in range(g.n):
                    bigger = Graph.from_edges(
                        g.n + 1, list(g.edges()) + [(v, g.n)])
                    assert classify(bigger).verdict == NON_MEMBER, \
                        (to_graph6(g), v)
