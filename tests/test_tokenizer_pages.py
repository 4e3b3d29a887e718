"""The tokenizer against the stdlib reference reading on generated shop pages.

Tag soup and the pinned cases in ``test_tokenizer.py`` cover the tokenizer's
recovery paths; the template pages add the boilerplate real pages carry (a
doctype, comments, scripts, styles, SVG sprites, select options), so every
page must parse and prune as the reference does, node for node.
"""

import pytest
from test_tokenizer import _assert_matches_reference

from prodex.corpus import generate_shop, preset_spec


@pytest.mark.parametrize("preset", ["alpha", "beta", "gamma"])
def test_template_pages_equal_the_reference(preset):
    for doc in generate_shop(preset_spec(preset, 30, seed=5)).pages:
        _assert_matches_reference(doc.html)
