"""Helpers shared by the repro.arch test-suite."""


def assert_bitwise_equal(actual, expected):
    """The simulate-vs-reference contract: same shape, dtype and raw bytes.

    ``np.array_equal`` would let ``-0.0`` stand for ``0.0`` and a tolerance
    would hide a reordered float sum, so the bytes are compared.
    """
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
