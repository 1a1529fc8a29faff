"""Calendar conversion against a frozen table of known date pairs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lextopic.errors import MalformedDate
from lextopic.jalali import (
    gregorian_to_jalali,
    jalali_to_gregorian,
    jalali_to_gregorian_year,
    validate_jalali,
)

# Oracle: published Jalali/Gregorian conversion tables (new-year anchors
# for 1394-1403, mid-year dates, and both leap-year Esfand 30ths).
KNOWN_PAIRS = [
    ((1394, 1, 1), (2015, 3, 21)),
    ((1395, 1, 1), (2016, 3, 20)),
    ((1396, 1, 1), (2017, 3, 21)),
    ((1397, 1, 1), (2018, 3, 21)),
    ((1398, 1, 1), (2019, 3, 21)),
    ((1399, 1, 1), (2020, 3, 20)),
    ((1400, 1, 1), (2021, 3, 21)),
    ((1401, 1, 1), (2022, 3, 21)),
    ((1402, 1, 1), (2023, 3, 21)),
    ((1403, 1, 1), (2024, 3, 20)),
    ((1402, 4, 6), (2023, 6, 27)),
    ((1402, 4, 10), (2023, 7, 1)),
    ((1402, 3, 29), (2023, 6, 19)),
    ((1402, 3, 22), (2023, 6, 12)),
    ((1402, 4, 11), (2023, 7, 2)),
    ((1402, 3, 28), (2023, 6, 18)),
    ((1395, 4, 15), (2016, 7, 5)),
    ((1402, 10, 15), (2024, 1, 5)),
    ((1375, 12, 30), (1997, 3, 20)),
    ((1399, 12, 30), (2021, 3, 20)),
]


@pytest.mark.parametrize("jalali,gregorian", KNOWN_PAIRS)
def test_known_pairs_convert_exactly(jalali, gregorian):
    assert jalali_to_gregorian(*jalali) == gregorian


@pytest.mark.parametrize("jalali,gregorian", KNOWN_PAIRS)
def test_known_pairs_round_trip(jalali, gregorian):
    assert gregorian_to_jalali(*gregorian) == jalali


def test_year_only_helper_matches_full_conversion():
    for jalali, gregorian in KNOWN_PAIRS:
        assert jalali_to_gregorian_year(*jalali) == gregorian[0]


def test_gregorian_year_offset_is_621_or_622():
    for year in range(1390, 1405):
        for month in (1, 6, 9, 10, 12):
            offset = jalali_to_gregorian_year(year, month, 10) - year
            assert offset in (621, 622)


def test_late_months_spill_into_next_gregorian_year():
    assert jalali_to_gregorian_year(1402, 1, 1) == 2023
    assert jalali_to_gregorian_year(1402, 10, 15) == 2024
    assert jalali_to_gregorian_year(1395, 4, 15) == 2016


jalali_dates = st.tuples(
    st.integers(min_value=1300, max_value=1450),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=29),
)


@given(jalali_dates, jalali_dates)
def test_conversion_is_monotone_in_date_order(first, second):
    if first > second:
        first, second = second, first
    assert jalali_to_gregorian(*first) <= jalali_to_gregorian(*second)


@pytest.mark.parametrize(
    "year,month,day",
    [
        (1400, 0, 1),
        (1400, 13, 1),
        (1400, 1, 0),
        (1400, 1, 32),
        (1400, 7, 31),
        (1400, 12, 31),
        (0, 1, 1),
    ],
)
def test_invalid_components_rejected(year, month, day):
    with pytest.raises(MalformedDate, match=f"^malformed date '{year}/{month}/{day}'$"):
        validate_jalali(year, month, day)


HUGE = 10**5000  # past Python's 4,300-digit limit on int to str


@pytest.mark.parametrize("convert", [validate_jalali, jalali_to_gregorian, jalali_to_gregorian_year])
@pytest.mark.parametrize("date, shown", [
    ((HUGE, 13, 1), "an int of 16,610 bits/13/1"),
    ((-HUGE, 1, 1), "a negative int of 16,610 bits/1/1"),
    ((1400, HUGE, 1), "1400/an int of 16,610 bits/1"),
    ((1400, 1, HUGE), "1400/1/an int of 16,610 bits"),
], ids=["year", "negative year", "month", "day"])
def test_a_date_part_past_the_digit_limit_is_a_malformed_date(convert, date, shown):
    with pytest.raises(MalformedDate, match=f"^malformed date '{shown}'$"):
        convert(*date)


def test_month_length_boundaries_accepted():
    validate_jalali(1400, 6, 31)
    validate_jalali(1400, 7, 30)
    validate_jalali(1400, 12, 30)


# Gregorian 1 January falls in Dey (month 10) from year 1 to 3000; months
# 9-11 hold that boundary with a month to spare on each side. In the far
# years the Gregorian year is no longer jy + 621 on 1 Farvardin.
@pytest.mark.parametrize("years,months", [
    (range(1, 3001), (9, 10, 11)),
    (range(1350, 1451), range(1, 13)),
    ((10**6, 2 * 10**6, 10**7), range(1, 13)),
], ids=["months-9-11-of-years-1-3000", "years-1350-1450", "far-years"])
def test_year_lookup_matches_full_conversion_on_every_day(years, months):
    dates = [(year, month, day) for year in years for month in months
             for day in range(1, (31 if month <= 6 else 30) + 1)]
    mismatched = [date for date in dates if jalali_to_gregorian_year(*date) != jalali_to_gregorian(*date)[0]]
    assert mismatched == []


@pytest.mark.parametrize("year,month,day", [(1400, 0, 1), (1400, 13, 1), (1400, 7, 31), (1400, 12, 31), (0, 1, 1)])
def test_year_lookup_rejects_invalid_dates(year, month, day):
    with pytest.raises(MalformedDate):
        jalali_to_gregorian_year(year, month, day)
