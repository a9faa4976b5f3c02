"""Unit tests for server configuration."""

import os

import pytest

from repro.core.config import ServerConfig


class TestValidation:
    def test_defaults_match_paper_evaluation(self):
        config = ServerConfig()
        assert config.num_workers == 32            # Flash-MP / Apache processes
        assert config.pathname_cache_entries == 6000
        assert config.mmap_cache_bytes == 32 * 1024 * 1024
        assert config.header_alignment == 32

    def test_document_root_made_absolute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = ServerConfig(document_root="www")
        assert os.path.isabs(config.document_root)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_helpers": 0},
            {"num_workers": 0},
            {"mmap_chunk_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_helper_mode_is_not_a_field(self):
        """Helpers are always threads; the retired switch is not accepted."""
        with pytest.raises(TypeError):
            ServerConfig(helper_mode="process")


class TestTimeoutKnobs:
    @pytest.mark.parametrize("value", [0, -1, -30.0])
    def test_nonpositive_timeouts_normalize_to_disabled(self, value):
        """``<= 0`` means *disabled* — the regression where 0 made the old
        sweep reaper treat every connection as instantly expired."""
        config = ServerConfig(
            idle_timeout=value,
            header_timeout=value,
            write_stall_timeout=value,
        )
        assert config.idle_timeout == 0.0
        assert config.header_timeout == 0.0
        assert config.write_stall_timeout == 0.0

    def test_timeout_defaults(self):
        config = ServerConfig()
        assert config.header_timeout == 15.0
        assert config.idle_timeout == 30.0
        assert config.write_stall_timeout == 30.0

    def test_cache_max_age_validated(self):
        assert ServerConfig(cache_max_age=3600).cache_max_age == 3600
        assert ServerConfig().cache_max_age == 0
        with pytest.raises(ValueError):
            ServerConfig(cache_max_age=-1)


class TestPerProcessScaling:
    def test_paper_configuration(self):
        """At 32 processes the caches shrink to ~4 MB / ~600 entries."""
        config = ServerConfig()
        scaled = config.per_process_scaled(32)
        assert scaled.mmap_cache_bytes == 4 * 1024 * 1024
        assert scaled.pathname_cache_entries == 600
        assert scaled.header_cache_entries == 600

    def test_small_process_count_keeps_caches(self):
        config = ServerConfig()
        scaled = config.per_process_scaled(2)
        assert scaled.mmap_cache_bytes == config.mmap_cache_bytes
        assert scaled.pathname_cache_entries >= config.pathname_cache_entries // 2

    def test_never_below_floor(self):
        config = ServerConfig(mmap_cache_bytes=128 * 1024, pathname_cache_entries=32)
        scaled = config.per_process_scaled(64)
        assert scaled.mmap_cache_bytes >= config.mmap_chunk_size
        assert scaled.pathname_cache_entries >= 16

    def test_invalid_process_count(self):
        with pytest.raises(ValueError):
            ServerConfig().per_process_scaled(0)


class TestOptimizationVariants:
    def test_without_caches(self):
        config = ServerConfig().without_caches()
        assert not config.enable_pathname_cache
        assert not config.enable_header_cache
        assert not config.enable_mmap_cache

    def test_with_optimizations_combination(self):
        config = ServerConfig().with_optimizations(pathname=True, mmap=False, header=True)
        assert config.enable_pathname_cache
        assert not config.enable_mmap_cache
        assert config.enable_header_cache

    def test_original_config_unchanged(self):
        config = ServerConfig()
        config.with_optimizations(pathname=False, mmap=False, header=False)
        assert config.enable_pathname_cache
