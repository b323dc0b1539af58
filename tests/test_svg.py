import hashlib
import math

import pytest

from blab.svg import line_chart


def test_chart_is_deterministic():
    a = line_chart([0, 1, 2], [3.0, 1.5, 0.9], "t", "x", "y")
    b = line_chart([0, 1, 2], [3.0, 1.5, 0.9], "t", "x", "y")
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "polyline" in a
    assert "href" not in a  # self-contained, no external assets


def test_chart_escapes_markup():
    out = line_chart([0, 1], [1, 2], "a < b & c", "x<y", "y>z")
    assert "a &lt; b &amp; c" in out
    assert "x&lt;y" in out and "y&gt;z" in out


def test_chart_handles_flat_series():
    out = line_chart([0, 1, 2], [1.0, 1.0, 1.0], "flat", "x", "y")
    assert "polyline" in out


def test_chart_rejects_bad_input():
    with pytest.raises(ValueError):
        line_chart([], [], "t", "x", "y")
    with pytest.raises(ValueError):
        line_chart([1, 2], [1], "t", "x", "y")


def test_a_finite_series_renders_the_frozen_bytes():
    # the sha256 of a 3-iteration records chart before non-finite points were dropped
    out = line_chart([0, 1, 2, 3], [2.8971426203147312, 0.9274656459698579, 0.5091939306604971,
                                    0.25], "Mean inter-class distance per iteration",
                     "iteration", "mean distance")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1a6964875dfd5e86630667838de8c62ef71511146f81b9730b0ad96cbbb198ae")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_point_is_left_out(bad):
    assert line_chart([0, 1, 2], [bad, 1.5, 0.9], "t", "x", "y") == line_chart(
        [1, 2], [1.5, 0.9], "t", "x", "y")
    alone = line_chart([0], [bad], "t", "x", "y")
    assert "nan" not in alone and "inf" not in alone
    assert alone == line_chart([0], [math.nan], "t", "x", "y")
