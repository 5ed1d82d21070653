"""The ``REPRO_SHARD_*`` environment knobs.

Both config front doors (:meth:`DSConfig.from_env` and
:meth:`ServeConfig.from_env`) must accept the shard knobs and reject
malformed values with an error *naming the variable* — an operator
reading the traceback should know which knob to fix without opening
the source.  ``REPRO_SHARD_WORKERS`` named the removed shard worker
pool: any value is rejected with a :class:`ConfigError` naming the
removal.
"""

import pytest

from repro import DSConfig
from repro.errors import ConfigError
from repro.serve import ServeConfig


class TestDSConfigShardKnobs:
    def test_defaults_when_unset(self):
        cfg = DSConfig.from_env(environ={})
        assert cfg.shard_elems == DSConfig().shard_elems
        assert cfg.double_buffer is True
        assert not hasattr(cfg, "shard_workers")

    def test_valid_values(self):
        cfg = DSConfig.from_env(environ={
            "REPRO_SHARD_ELEMS": "4096",
            "REPRO_SHARD_DOUBLE_BUFFER": "0",
        })
        assert cfg.shard_elems == 4096
        assert cfg.double_buffer is False

    def test_non_integer_elems_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_ELEMS"):
            DSConfig.from_env(environ={"REPRO_SHARD_ELEMS": "abc"})

    def test_zero_elems_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_ELEMS"):
            DSConfig.from_env(environ={"REPRO_SHARD_ELEMS": "0"})

    def test_negative_workers_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS"):
            DSConfig.from_env(environ={"REPRO_SHARD_WORKERS": "-1"})

    @pytest.mark.parametrize("value", ["0", "2"])
    def test_shard_workers_rejected_naming_removal(self, value):
        with pytest.raises(ConfigError,
                           match="REPRO_SHARD_WORKERS.*shard_workers.*"
                                 "removed"):
            DSConfig.from_env(environ={"REPRO_SHARD_WORKERS": value})

    def test_bad_bool_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_DOUBLE_BUFFER"):
            DSConfig.from_env(
                environ={"REPRO_SHARD_DOUBLE_BUFFER": "maybe"})

    def test_whitespace_is_unset(self):
        cfg = DSConfig.from_env(environ={"REPRO_SHARD_ELEMS": "  "})
        assert cfg.shard_elems == DSConfig().shard_elems


class TestServeConfigShardKnobs:
    def test_shard_workers_rejected_naming_removal(self):
        with pytest.raises(ConfigError, match="REPRO_SHARD_WORKERS.*removed"):
            ServeConfig.from_env(environ={"REPRO_SHARD_WORKERS": "2"})

    def test_unset_is_accepted(self):
        cfg = ServeConfig.from_env(environ={"REPRO_SHARD_WORKERS": " "})
        assert not hasattr(cfg, "shard_workers")

    def test_non_integer_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS"):
            ServeConfig.from_env(environ={"REPRO_SHARD_WORKERS": "two"})

    def test_negative_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS"):
            ServeConfig.from_env(environ={"REPRO_SHARD_WORKERS": "-2"})
