import hashlib

import numpy as np
import pytest

from fcqst import rng


def test_bit_reproducible():
    a = rng.normals(12345, 0, 1000)
    b = rng.normals(12345, 0, 1000)
    assert np.array_equal(a, b)


def test_slices_are_consistent():
    whole = rng.normals(99, 0, 64)
    assert np.array_equal(whole[10:30], rng.normals(99, 10, 20))
    assert np.array_equal(whole[31:40], rng.normals(99, 31, 9))


def test_streams_differ():
    assert rng.derive_key(1, 0) != rng.derive_key(1, 1)
    assert rng.derive_key(1) != rng.derive_key(2)
    a = rng.normals(rng.derive_key(5, 0), 0, 100)
    b = rng.normals(rng.derive_key(5, 1), 0, 100)
    assert np.abs(a - b).min() > 0


def test_uniforms_in_half_open_interval():
    u = rng.uniforms(7, 0, 100000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_gaussian_moments():
    z = rng.normals(424242, 0, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # lag-1 correlation of a decent generator is tiny
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 0.01


# (key, start, count): odd starts and counts, keys >= 2^63, the n = 500 pair
# count 124,750, a start past the 65,536-draw block and the pulse search's
# 2^32 offset
FROZEN_SLICES = [(0, 0, 1), (1, 3, 7), (12345, 0, 1000), (12345, 7, 33), (99, 31, 9),
                 (2**63 + 12345, 3, 101), (2**64 - 1, 1, 2),
                 (rng.derive_key(42, 0, 0), 0, 124750), (rng.derive_key(42, 5, 0), 65537, 4097),
                 (rng.derive_key(7, 1, 1), (1 << 32) + 5, 17)]
FROZEN_DIGESTS = {
    "raw_words": "b5e7d036d9b3a4d7fe4f3aeddb79726e76254f1e97feb8dc7bc645e8ab9a2a9f",
    "uniforms": "75d4833784b89d5f4e8648b01ea7630c17121bb012c982564f10cc25e5a32017",
    "normals": "60c4ab6debae827a44c44ab714052db3b2d5b2e8d49377f39eb755010acbf1d1",
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_streams_match_frozen_digests(name):
    # SHA-256 of the concatenated bytes, frozen before the draws went in place
    digest = hashlib.sha256()
    for key, start, count in FROZEN_SLICES:
        digest.update(getattr(rng, name)(key, start, count).tobytes())
    assert digest.hexdigest() == FROZEN_DIGESTS[name]


def test_derive_key_frozen_values():
    assert rng.derive_key(0) == rng.derive_key(1 << 64)
    assert rng.derive_key(42, 0, 0) == 17411636294569720578
    assert rng.derive_key(2**63 + 1, 5, 2**40) == 11728930826000790398
