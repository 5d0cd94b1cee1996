import hashlib

import pytest

from sturm import NotMeanderError, RenderStyle, SturmPermutation, render_svg
from sturm.render import MAX_SCALE


def test_worked_example_structure(perm7):
    svg = render_svg(perm7)
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<circle") == 7
    assert svg.count("<path") == 6
    assert svg.endswith("</svg>\n")


def test_singleton():
    svg = render_svg(SturmPermutation((1,)))
    assert svg.count("<circle") == 1
    assert svg.count("<path") == 0


def test_nested_arcs():
    svg = render_svg(SturmPermutation((1, 4, 3, 2, 5)))
    assert svg.count("<circle") == 5
    assert svg.count("<path") == 4


def test_byte_identical(perm7):
    style = RenderStyle(scale=30, show_morse=True)
    assert render_svg(perm7, style) == render_svg(perm7, style)


def test_zero_based_labels(perm7):
    svg = render_svg(perm7, RenderStyle(zero_based_labels=True))
    assert ">0</text>" in svg and ">6</text>" in svg and ">7</text>" not in svg


def test_morse_annotations(perm7):
    svg = render_svg(perm7, RenderStyle(show_morse=True))
    assert svg.count("i=") == 7


def test_rejects_non_meander():
    with pytest.raises(NotMeanderError):
        render_svg(SturmPermutation((1, 3, 2, 4, 5)))


_HUGE = "10000000000000000000..."  # an int over 20 digits, as error lines echo it


@pytest.mark.parametrize(
    "scale, message",
    [
        (0, "scale must be in 1..1000000, got 0"),
        (-5, "scale must be in 1..1000000, got -5"),
        (MAX_SCALE + 1, "scale must be in 1..1000000, got 1000001"),
        # 10**400 used to raise OverflowError from the float coordinates
        (10**400, f"scale must be in 1..1000000, got {_HUGE}"),
        # str() refuses an int this long
        (10**5000, f"scale must be in 1..1000000, got {_HUGE}"),
        # 1.5 drew at width="89.0" and True at scale 1
        (1.5, "scale must be of type int, got float"),
        (True, "scale must be of type int, got bool"),
    ],
    ids=["0", "-5", "1000001", str(10**400), "10**5000", "1.5", "True"],
)
def test_scale_out_of_range_rejected(perm7, scale, message):
    with pytest.raises(ValueError) as exc_info:
        render_svg(perm7, RenderStyle(scale=scale))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("scale", [1, MAX_SCALE])
def test_scale_range_ends_render(perm7, scale):
    assert render_svg(perm7, RenderStyle(scale=scale)).endswith("</svg>\n")


@pytest.mark.parametrize(
    "style, digest",
    [
        (RenderStyle(), "5a6289bb90a1ff2286fe080bfc51775a669e5328c7e7fa129f1be6d9b8482ce6"),
        (
            RenderStyle(scale=7, show_morse=True, zero_based_labels=True),
            "7c2d4f4c69e647ea68e0bed16d7cf388a0f243dc7ac61fa699a95b20e7092608",
        ),
    ],
    ids=["default", "all-fields"],
)
def test_svg_bytes_pinned(perm7, style, digest):
    # SHA-256 of the whole document, for the default style and one that
    # sets every field
    assert hashlib.sha256(render_svg(perm7, style).encode()).hexdigest() == digest
