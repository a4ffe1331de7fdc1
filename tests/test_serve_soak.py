"""Many-client soak: N reader threads hammer the serving tier while a
writer loops insert → exchange → delete → propagate.

The harness (:mod:`repro.workloads.serving`) records a single-threaded
unindexed-oracle answer for every epoch the writer creates and a digest
of every answer every reader observed, keyed by the reader's epoch; the
acceptance bar is **zero mismatches at each reader's observed epoch**,
zero escaped ``SQLITE_BUSY``, zero reader errors — plus sub-millisecond
warm reads, the bar being one reference chunk (about a millisecond of
fixed interpreter work the readers time in the same run) so it moves
with the machine instead of failing when the host slows down.

The smoke-sized variant runs in CI; the full acceptance shape
(>= 8 readers x >= 1000 queries each during >= 25 cycles) carries the
``benchmark_suite`` marker like the other slow suites.
"""

import pytest

from repro.workloads.serving import SoakConfig, run_soak


def assert_clean(report):
    __tracebacks_hide__ = True
    assert report.mismatches == [], report.summary()
    assert report.errors == [], report.summary()
    assert report.busy_escapes == 0, report.summary()
    assert report.cycles_run == report.config.cycles, report.summary()


class TestSoakSmoke:
    def test_smoke_soak_is_clean(self, tmp_path):
        config = SoakConfig(
            peers=4,
            base_size=10,
            cycles=2,
            readers=3,
            queries_per_reader=120,
            checkpoint_every=1,
        )
        report = run_soak(config, path=str(tmp_path / "soak.db"))
        assert_clean(report)
        # Readers really interleaved with the writer: more than one
        # epoch was observed across the run.
        assert report.epochs_recorded >= 2
        for queries in report.reader_queries:
            assert queries >= config.queries_per_reader
        # The post-drain blocking checkpoint fully truncated the WAL.
        assert report.final_checkpoint[0] == 0
        assert report.final_checkpoint[1] == 0
        # Serving metrics flowed into the writer-visible registry.
        assert report.metrics.get("serve.checkpoints", 0) >= 2

    def test_warm_reader_path_is_sub_millisecond(self, tmp_path):
        report = run_soak(
            SoakConfig(cycles=2, readers=2, queries_per_reader=200),
            path=str(tmp_path / "warm.db"),
        )
        assert_clean(report)
        assert len(report.warm_lineage_seconds) >= 50
        assert (
            report.warm_median_seconds() < report.reference_chunk_seconds
        ), report.summary()


@pytest.mark.benchmark_suite
class TestSoakAcceptance:
    def test_acceptance_soak_is_clean(self, tmp_path):
        config = SoakConfig.acceptance()
        assert config.readers >= 8
        assert config.queries_per_reader >= 1000
        assert config.cycles >= 25
        report = run_soak(config, path=str(tmp_path / "acceptance.db"))
        assert_clean(report)
        assert report.unavailable == 0, report.summary()
        for queries in report.reader_queries:
            assert queries >= config.queries_per_reader
        assert (
            report.warm_median_seconds() < report.reference_chunk_seconds
        ), report.summary()
        assert report.final_checkpoint[:2] == (0, 0)
