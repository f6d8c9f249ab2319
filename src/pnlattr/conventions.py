"""The FX and carry conventions, their mode check, and the pricer-call rule, both engines share.

`attribution` splits a position's PnL under them, and `path_oracle` splits
simulated path endpoints the same way. This module imports only `enum`, so
the oracle loads neither the attribute engine nor its dependencies.
"""

from enum import Enum


class FxMode(Enum):
    """How the FX part and the asset-to-EUR conversion weight are formed."""

    AVERAGE = "average"      # FX change on the average asset value, parts at the average quote
    START_END = "start-end"  # FX change on the start value, parts at the end quote


class CarryMode(Enum):
    """How coupons enter the carry part across subperiods."""

    CORRECTED = "corrected"  # subperiods start ex-coupon; parts reconcile to realized PnL
    LITERAL = "literal"      # subperiods start at the pre-coupon price; the parts sum
                             # then falls short of realized PnL by interior coupons
    SOPHIS = "sophis"        # ex-coupon starts, but coupons converted at the period-end
                             # quote, as the SOPHIS front-office column does


def _checked_modes(fx_mode, carry_mode=CarryMode.CORRECTED) -> tuple[FxMode, CarryMode]:
    """(fx_mode, carry_mode); ValueError unless each is in its enum. Entry points call it first."""
    if not isinstance(fx_mode, FxMode):
        raise ValueError(f"unknown fx mode {fx_mode!r}")
    if not isinstance(carry_mode, CarryMode):
        raise ValueError(f"unknown carry mode {carry_mode!r}")
    return fx_mode, carry_mode


def _fx_weights(a_start, a_end, cs, ce, mode: FxMode):
    """(asset value that earns the quote change, quote that converts the asset move). AVERAGE
    takes the mean value and the mean quote, START_END the start value and the end quote."""
    if mode is FxMode.AVERAGE:
        return 0.5 * (a_start + a_end), 0.5 * (cs + ce)
    if mode is FxMode.START_END:
        return a_start, ce
    raise ValueError(f"unknown fx mode {mode!r}")


def _price_fn(pricer):
    price = getattr(pricer, "price", None)
    if callable(price):
        return price
    if callable(pricer):
        return pricer
    raise TypeError(f"pricer {pricer!r} is neither callable nor has a price method")
