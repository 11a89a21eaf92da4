"""Unit tests for protocol configuration and Eq. (2)-(3) sizes."""

import pytest

from repro.core.config import ProtocolConfig
from repro.metrics.units import mb_to_bits


class TestSizes:
    def test_constant_header_bits_eq3(self):
        """f_c = f_v + f_t + f_H + f_n + f_s = 32+32+256+32+256."""
        config = ProtocolConfig()
        assert config.constant_header_bits == 608

    def test_digests_field_eq_fH_times_n_plus_1(self):
        config = ProtocolConfig()
        assert config.digests_field_bits(3) == 256 * 4

    def test_block_bits_eq2(self):
        config = ProtocolConfig(body_bits=1000)
        n = 5
        assert config.block_bits(n) == 608 + 256 * 6 + 1000

    def test_header_bits(self):
        config = ProtocolConfig()
        assert config.header_bits(0) == 608 + 256

    def test_negative_neighbor_count_rejected(self):
        with pytest.raises(ValueError):
            ProtocolConfig().digests_field_bits(-1)


class TestValidation:
    def test_bad_hash_bits(self):
        with pytest.raises(ValueError):
            ProtocolConfig(hash_bits=100)

    def test_negative_body(self):
        with pytest.raises(ValueError):
            ProtocolConfig(body_bits=-1)

    def test_negative_gamma(self):
        with pytest.raises(ValueError):
            ProtocolConfig(gamma=-1)

    def test_zero_timeout(self):
        with pytest.raises(ValueError):
            ProtocolConfig(reply_timeout=0)


class TestVariants:
    def test_paper_defaults(self):
        config = ProtocolConfig.paper_defaults(gamma=16, body_mb=0.5)
        assert config.gamma == 16
        assert config.body_bits == mb_to_bits(0.5)
        assert config.hash_bits == 256
        assert config.signature_bits == 256

    def test_with_gamma(self):
        config = ProtocolConfig().with_gamma(24)
        assert config.gamma == 24
        assert config.consensus_quorum() == 25

    def test_quorum(self):
        assert ProtocolConfig(gamma=2).consensus_quorum() == 3

    def test_frozen(self):
        config = ProtocolConfig()
        with pytest.raises(AttributeError):
            config.gamma = 3
