"""Configuration: Table 1 / Table 2 values and validation."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    ClusterConfig,
    FrontEndConfig,
    InterconnectConfig,
    MemoryConfig,
    ProcessorConfig,
    centralized_cache,
    config_summary,
    decentralized_cache,
    decentralized_config,
    default_config,
    grid_config,
    monolithic_config,
    validate_config,
)
from repro.errors import ConfigError


class TestTable1Defaults:
    """The paper's Table 1 simulator parameters."""

    def test_front_end(self):
        fe = FrontEndConfig()
        assert fe.fetch_queue_size == 64
        assert fe.fetch_width == 8
        assert fe.max_basic_blocks_per_fetch == 2
        assert fe.dispatch_width == 16
        assert fe.commit_width == 16
        assert fe.pipeline_depth >= 12  # "at least 12 cycles"

    def test_predictor_sizes(self):
        fe = FrontEndConfig()
        assert fe.bimodal_size == 2048
        assert fe.level1_size == 1024
        assert fe.history_bits == 10
        assert fe.level2_size == 4096
        assert fe.btb_sets == 2048
        assert fe.btb_assoc == 2

    def test_cluster_resources(self):
        c = ClusterConfig()
        assert c.issue_queue_size == 15
        assert c.regfile_size == 30
        assert c.int_alus == c.int_muls == c.fp_alus == c.fp_muls == 1

    def test_rob_and_memory(self):
        cfg = default_config()
        assert cfg.rob_size == 480
        assert cfg.memory.l2_latency == 25
        assert cfg.memory.memory_latency == 160


class TestTable2Defaults:
    """The paper's Table 2 cache parameters."""

    def test_centralized(self):
        mem = centralized_cache()
        assert mem.organization == "centralized"
        assert mem.l1.size == 32 * 1024
        assert mem.l1.assoc == 2
        assert mem.l1.line_size == 32
        assert mem.l1.banks == 4
        assert mem.l1.latency == 6
        assert mem.lsq_size_per_cluster == 15

    def test_decentralized(self):
        mem = decentralized_cache()
        assert mem.organization == "decentralized"
        assert mem.l1.size == 16 * 1024
        assert mem.l1.assoc == 2
        assert mem.l1.line_size == 8
        assert mem.l1.banks == 1
        assert mem.l1.latency == 4

    def test_cache_num_sets(self):
        cache = CacheConfig(size=32 * 1024, assoc=2, line_size=32)
        assert cache.num_sets == 512


class TestValidation:
    def test_zero_clusters_rejected(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(num_clusters=0)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(interconnect=InterconnectConfig(topology="hexgrid"))

    def test_unknown_organization_rejected(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(memory=MemoryConfig(organization="banana"))

    def test_home_cluster_in_range(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(num_clusters=4, home_cluster=4)

    def test_validate_grid_needs_rectangle(self):
        cfg = dataclasses.replace(
            grid_config(16), num_clusters=16
        )
        validate_config(cfg)  # 4x4 is fine

    def test_validate_positive_cluster_fields(self):
        cfg = default_config().with_cluster_resources(
            dataclasses.replace(ClusterConfig(), int_alus=0)
        )
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_fetch_width_vs_queue(self):
        fe = dataclasses.replace(FrontEndConfig(), fetch_width=128)
        cfg = dataclasses.replace(default_config(), front_end=fe)
        with pytest.raises(ConfigError):
            validate_config(cfg)


class TestDerived:
    def test_with_clusters(self):
        cfg = default_config(16).with_clusters(4)
        assert cfg.num_clusters == 4
        assert cfg.cluster == default_config().cluster

    def test_max_inflight(self):
        cfg = default_config(16)
        assert cfg.max_inflight == 480  # ROB bound
        cfg2 = default_config(2)
        assert cfg2.max_inflight == 2 * 30 * 2

    def test_monolithic_has_16x_resources(self):
        mono = monolithic_config()
        base = default_config()
        assert mono.num_clusters == 1
        assert mono.cluster.issue_queue_size == 16 * base.cluster.issue_queue_size
        assert mono.cluster.regfile_size == 16 * base.cluster.regfile_size
        assert mono.cluster.int_alus == 16
        assert mono.memory.lsq_size_per_cluster == 16 * 15

    def test_decentralized_config(self):
        cfg = decentralized_config(16)
        assert cfg.memory.organization == "decentralized"
        validate_config(cfg)

    def test_summary_mentions_key_facts(self):
        text = config_summary(default_config(8))
        assert "8 clusters" in text
        assert "ring" in text
        assert "centralized" in text

    def test_configs_are_frozen(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_clusters = 4


class TestEnvSwitches:
    """The centralized environment-variable readers and their registry."""

    def test_registry_names_real_readers(self):
        import repro.config as config

        for name, (reader, purpose) in config.ENV_SWITCHES.items():
            assert name.startswith("REPRO_")
            assert callable(getattr(config, reader)), reader
            assert purpose

    def test_every_environ_read_goes_through_config(self):
        """D105 in spirit: no repro module reads os.environ directly
        (the config readers are the sanctioned doorway)."""
        import pathlib

        import repro

        src = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in src.rglob("*.py"):
            if path.name == "config.py" or "analysis" in path.parts:
                continue
            text = path.read_text()
            if "os.environ" in text and "faults" not in path.name:
                offenders.append(str(path.relative_to(src)))
        assert offenders == [], offenders

    def test_env_int_and_float(self, monkeypatch):
        from repro.config import env_float, env_int

        monkeypatch.setenv("REPRO_TEST_X", "3")
        assert env_int("REPRO_TEST_X") == 3
        monkeypatch.setenv("REPRO_TEST_X", " 2.5 ")
        assert env_float("REPRO_TEST_X") == 2.5
        monkeypatch.setenv("REPRO_TEST_X", "bogus")
        assert env_int("REPRO_TEST_X", 7) == 7
        assert env_float("REPRO_TEST_X") is None
        monkeypatch.delenv("REPRO_TEST_X")
        assert env_int("REPRO_TEST_X") is None
