"""``interp._pow_mod`` against builtin ``pow``, through OpenSSL's bignum
kernel and through the fallback taken where the kernel cannot be
reached."""

import pytest
from hypothesis import example, given, settings, strategies as st

from utxo110 import bignum, interp


def widths(top):
    """Bit lengths from 0 to ``top``, log-uniform, so that most draws are
    cheap for builtin ``pow`` and a few are thousands of bits wide."""
    return st.integers(0, top.bit_length()).flatmap(
        lambda k: st.integers(1 << k >> 1, min(1 << k, top)))


def unsigned(width):
    return st.integers(1 << width >> 1, (1 << width) - 1) if width else st.just(0)


# moduli from 1 to 8,192 bits, odd and even, and many near the 64-bit line
_moduli = st.one_of(widths(8192), st.integers(62, 66)).filter(bool).flatmap(unsigned)
_bases = st.tuples(widths(8200).flatmap(unsigned), st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0])
_exponents = widths(4096).flatmap(unsigned)


@pytest.mark.parametrize("reachable", [True, False], ids=["kernel", "fallback"])
@settings(max_examples=100, deadline=None)
@given(b=_bases, x=_exponents, m=_moduli)
@example(b=5, x=3, m=1)
@example(b=5, x=0, m=2**4000 + 1)
@example(b=0, x=3, m=2**64 + 1)
@example(b=0, x=0, m=2**65)
@example(b=-1, x=3, m=2**64 + 1)
@example(b=-1, x=2**4000, m=2**4000 - 1)
@example(b=2**4000, x=3, m=2**4000)
@example(b=3 * 2**4000 + 7, x=2**100 + 1, m=2**4000)
@example(b=7, x=2**64 - 1, m=2**64 - 1)
@example(b=2**64, x=5, m=2**64)
@example(b=2**70 + 3, x=5, m=2**64 + 1)
def test_same_as_builtin_pow(reachable, b, x, m):
    with pytest.MonkeyPatch.context() as patch:
        if not reachable:
            patch.setattr(bignum, "_load", lambda: None)
        assert interp._pow_mod(b, x, m) == pow(b, x, m)


def test_a_wide_modulus_reaches_the_kernel(monkeypatch):
    """Here hashlib links libcrypto, so the binding loads and a modulus
    of 65 bits or more is taken by ``mod_exp``; one of 64 bits is not."""
    assert bignum._load() is not None
    calls = []

    def counted(b, x, m):
        calls.append(m)
        return kernel(b, x, m)

    kernel = bignum.mod_exp
    monkeypatch.setattr(bignum, "mod_exp", counted)
    assert interp._pow_mod(-3, 2**70, 2**64 + 1) == pow(-3, 2**70, 2**64 + 1)
    assert interp._pow_mod(3, 2**70, 2**64 - 1) == pow(3, 2**70, 2**64 - 1)
    assert calls == [2**64 + 1]


def test_a_failed_openssl_call_falls_back(monkeypatch):
    """A NULL from an allocation gives builtin ``pow``'s value, and every
    BIGNUM and the context made before it are freed."""
    lib, buffer = bignum._load()

    class Failing:
        """libcrypto whose second ``BN_bin2bn`` returns NULL."""

        def __init__(self):
            self.made, self.freed = [], []

        def __getattr__(self, name):
            return getattr(lib, name)

        def BN_bin2bn(self, data, size, into):
            number = None if self.made else lib.BN_bin2bn(data, size, into)
            self.made.append(number)
            return number

        def BN_free(self, number):
            self.freed.append(number)
            lib.BN_free(number)

        def BN_CTX_free(self, ctx):
            self.freed.append(("ctx", ctx))
            lib.BN_CTX_free(ctx)

    failing = Failing()
    monkeypatch.setattr(bignum, "_load", lambda: (failing, buffer))
    assert bignum.mod_exp(3, 5, 2**65 + 1) is None
    made, freed = failing.made, failing.freed
    assert made[0] and made[1:] == [None, None]
    assert freed[:3] == made and freed[3] and freed[4][0] == "ctx" and freed[4][1]
    assert len(freed) == 5
    assert interp._pow_mod(3, 5, 2**65 + 1) == pow(3, 5, 2**65 + 1)
