"""Tests for keyed substreams: a change to the stream layout fails here first,
before it reaches any seeded Monte Carlo output."""

import pytest

from hdpower import DomainError, substream


def first_normals(*key) -> list[float]:
    return substream(*key).standard_normal(4).tolist()


class TestStreamCanary:
    def test_pinned_first_normals(self):
        assert first_normals(0, "canary") == [
            -0.6692085334667885,
            0.09507198243418609,
            -2.776984469949798,
            2.5528653742713208,
        ]

    def test_pinned_first_normals_at_largest_seed_with_index(self):
        assert first_normals(2**64 - 1, "canary", 7) == [
            -1.5248681946510392,
            1.1559679936932794,
            2.012939306485176,
            -0.5003820558250737,
        ]

    def test_equal_keys_give_equal_streams(self):
        assert first_normals(5, "canary", 1, 2) == first_normals(5, "canary", 1, 2)

    @pytest.mark.parametrize(
        "key",
        [
            (6, "canary", 1, 2),
            (5, "canari", 1, 2),
            (5, "canary", 0, 2),
            (5, "canary", 1, 3),
            (5, "canary", 1),
        ],
    )
    def test_changing_any_key_part_changes_the_stream(self, key):
        assert first_normals(*key) != first_normals(5, "canary", 1, 2)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DomainError, match="seed must be in"):
            substream(seed, "canary")

