import pytest

from prodex.compress import compress_both
from prodex.corpus import MissingRates, ShopSpec, builtin_templates, generate_shop, preset_spec

FIXTURE_PAGE = "globus_like_01"


@pytest.fixture(scope="session")
def small_alpha():
    """One-template shop with the default missing-data quotas."""
    return generate_shop(preset_spec("alpha", 50, seed=13))


@pytest.fixture(scope="session")
def small_gamma():
    """Three-template shop, no partially-missing pages."""
    return generate_shop(preset_spec("gamma", 60, seed=13))


@pytest.fixture(scope="session")
def full_single_template():
    """100 pages, 1 template, a single no-data page (spec example shape)."""
    templates = builtin_templates()
    spec = ShopSpec(
        shop_id="solo",
        n_pages=100,
        templates=(templates["tafel"],),
        missing_rates=MissingRates(0.0, 0.0, 0.01),
        seed=21,
    )
    return generate_shop(spec)


@pytest.fixture(scope="session")
def compressed_gamma(small_gamma):
    return {doc.page_id: compress_both(doc) for doc in small_gamma.pages}
