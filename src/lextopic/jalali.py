"""Solar Hijri (Jalali) calendar arithmetic.

Conversion uses the widely deployed integer day-count arithmetic (the
33-year leap cycle approximation), which is exact for the civil calendar
over the era this toolkit handles.
"""

from __future__ import annotations

import bisect
import functools

from .errors import MalformedDate, _quoted

# Days per Jalali month: 1-6 have 31 days, 7-11 have 30, Esfand 29 or 30.
_JALALI_MONTH_MAX = (31, 31, 31, 31, 31, 31, 30, 30, 30, 30, 30, 30)
# Every (month, day) validate_jalali accepts, in date order.
_YEAR_DAYS = tuple((month, day) for month in range(1, 13) for day in range(1, _JALALI_MONTH_MAX[month - 1] + 1))


def validate_jalali(year: int, month: int, day: int) -> None:
    """Raise MalformedDate unless (year, month, day) is a plausible Jalali date.

    Day 30 in Esfand is always accepted; leap-year bookkeeping is not a
    concern of the record schema.
    """
    if not (1 <= month <= 12 and 1 <= day <= _JALALI_MONTH_MAX[month - 1] and year >= 1):
        raise MalformedDate("/".join(_quoted(part, str) for part in (year, month, day)))


def jalali_to_gregorian(jy: int, jm: int, jd: int) -> tuple[int, int, int]:
    """Convert a Jalali date to the Gregorian (year, month, day)."""
    validate_jalali(jy, jm, jd)
    jy += 1595
    days = -355668 + (365 * jy) + ((jy // 33) * 8) + (((jy % 33) + 3) // 4) + jd
    if jm < 7:
        days += (jm - 1) * 31
    else:
        days += ((jm - 7) * 30) + 186
    gy = 400 * (days // 146097)
    days %= 146097
    if days > 36524:
        days -= 1
        gy += 100 * (days // 36524)
        days %= 36524
        if days >= 365:
            days += 1
    gy += 4 * (days // 1461)
    days %= 1461
    if days > 365:
        gy += (days - 1) // 365
        days = (days - 1) % 365
    gd = days + 1
    leap = (gy % 4 == 0 and gy % 100 != 0) or gy % 400 == 0
    month_lengths = (0, 31, 29 if leap else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    gm = 0
    while gm < 13 and gd > month_lengths[gm]:
        gd -= month_lengths[gm]
        gm += 1
    return gy, gm, gd


def jalali_to_gregorian_year(jy: int, jm: int, jd: int) -> int:
    """Gregorian year containing the given Jalali date.

    Equals jalali_to_gregorian(jy, jm, jd)[0]. In the study era it is
    jy + 621 up to Gregorian 1 January, which falls in Dey (month 10),
    and jy + 622 from then on; that day is looked up once per year.
    """
    validate_jalali(jy, jm, jd)
    first_year, january = _gregorian_new_year(jy)
    return first_year + ((jm, jd) >= january)


@functools.lru_cache(maxsize=4096)
def _gregorian_new_year(jy: int) -> tuple[int, tuple[int, int]]:
    """The Gregorian year of 1 Farvardin jy, and the (month, day) of jy on which the next one begins.

    Both come from jalali_to_gregorian, whose Gregorian year never falls
    as the date advances, so bisecting the year's days finds the first
    day of the next Gregorian year exactly; (13, 1) if none is in jy.
    """
    first_year = jalali_to_gregorian(jy, 1, 1)[0]
    index = bisect.bisect_right(_YEAR_DAYS, first_year, key=lambda month_day: jalali_to_gregorian(jy, *month_day)[0])
    return first_year, _YEAR_DAYS[index] if index < len(_YEAR_DAYS) else (13, 1)


def gregorian_to_jalali(gy: int, gm: int, gd: int) -> tuple[int, int, int]:
    """Inverse conversion, used by fixtures and round-trip checks."""
    g_days_before_month = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
    gy2 = gy + 1 if gm > 2 else gy
    days = (
        355666
        + (365 * gy)
        + ((gy2 + 3) // 4)
        - ((gy2 + 99) // 100)
        + ((gy2 + 399) // 400)
        + gd
        + g_days_before_month[gm - 1]
    )
    jy = -1595 + (33 * (days // 12053))
    days %= 12053
    jy += 4 * (days // 1461)
    days %= 1461
    if days > 365:
        jy += (days - 1) // 365
        days = (days - 1) % 365
    if days < 186:
        jm = 1 + days // 31
        jd = 1 + (days % 31)
    else:
        jm = 7 + (days - 186) // 30
        jd = 1 + ((days - 186) % 30)
    return jy, jm, jd
