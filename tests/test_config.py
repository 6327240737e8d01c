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
    decentralized_cache,
    decentralized_config,
    default_config,
    monolithic_config,
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

    def test_validate_positive_cluster_fields(self):
        for f in dataclasses.fields(ClusterConfig):
            with pytest.raises(ConfigError, match=f.name):
                ClusterConfig(**{f.name: 0})


class TestDerived:
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

    def test_configs_are_frozen(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_clusters = 4


#: the ``os`` names that read the process environment (``*`` imports them all)
_ENVIRONMENT_ACCESSORS = {"environ", "environb", "getenv", "getenvb", "*"}


class TestEnvSwitches:
    """The centralized environment-variable readers and their registry."""

    def test_registry_names_real_readers(self):
        import repro.config as config

        for name, (reader, purpose) in config.ENV_SWITCHES.items():
            assert name.startswith("REPRO_")
            assert callable(getattr(config, reader)), reader
            assert purpose

    def test_registry_names_only_switches_src_reads(self):
        """Each registered switch is a module-level string constant of
        some module other than config.py, the one that reads it
        (``CACHE_DIR_ENV``, ``JOBS_ENV``, ``TRACE_SCALE_ENV``,
        ``INVARIANTS_ENV``), so a switch only the tests read has no row."""
        import ast
        import pathlib

        import repro
        import repro.config as config

        src = pathlib.Path(repro.__file__).parent
        constants = set()
        for path in sorted(src.rglob("*.py")):
            if path.relative_to(src).as_posix() == "config.py":
                continue
            for node in ast.parse(path.read_text(), str(path)).body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                    node.value, ast.Constant
                ):
                    constants.add(node.value.value)
        assert sorted(set(config.ENV_SWITCHES) - constants) == []

    def test_every_environ_read_goes_through_config(self):
        """No repro module but config.py (the documented switches)
        touches the environment, in any spelling: ``os.environ``,
        ``os.getenv``, ``from os import environ`` or an aliased ``os``."""
        import ast
        import pathlib

        import repro

        src = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.relative_to(src).as_posix() == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                if names & _ENVIRONMENT_ACCESSORS:
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}")
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
