"""The run directory: every file a command leaves is one `prodex.rundir` names,
the bit-exact set covers every pinned artifact, and an interrupted write
leaves no torn file."""

import io
import json
import shutil
from decimal import Decimal
from fnmatch import fnmatchcase
from pathlib import Path
from types import SimpleNamespace

import pytest
import test_golden
from hypothesis import example, given, settings, strategies as st
import test_golden_direct
from click.testing import CliRunner

from prodex import files, rundir
from prodex.cli import main
from prodex.corpus import generate_shop, preset_spec, write_corpus
from prodex.gateway import CostLedger
from prodex.indirect import PageResult
from prodex.reader import READ_ERRORS
from prodex.schema import FoodProduct, QuantitativeValue, SchemaViolation, product_from_dict

# Every file the extract commands leave, as rundir names it.
RUN_FILES = (
    rundir.MANIFEST, rundir.FAILURES, rundir.LEDGER, f"{rundir.PRODUCTS}/*.json",
    rundir.SUMMARY, rundir.SUMMARY_CSV,
    *(f"{rundir.RUNS}/{name}"
      for name in (rundir.RUN_PRODUCTS, rundir.LIBRARY, rundir.METRICS, rundir.LEDGER)),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("rundir") / "corpus"
    write_corpus(generate_shop(preset_spec("beta", 8, seed=3)), path)
    return path


def _args(command, corpus):
    return {
        "direct": ["extract", "direct", "--corpus", corpus, "--provider", "oracle"],
        "indirect": ["extract", "indirect", "--corpus", corpus, "--provider", "oracle",
                     "--runs", "2"],
        "compress": ["compress", "--in", corpus / "pages"],
    }[command]


def _files(out: Path) -> dict[str, bytes]:
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def _run(args, out):
    result = CliRunner().invoke(main, [*map(str, args), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return _files(out)


def test_each_command_leaves_only_files_rundir_names(corpus, tmp_path):
    for command in ("direct", "indirect"):
        files = _run(_args(command, corpus), tmp_path / command)
        named = rundir.LEDGER if command == "direct" else rundir.SUMMARY
        assert {rundir.MANIFEST, named} <= set(files)
        assert [name for name in files
                if not any(fnmatchcase(name, pattern) for pattern in RUN_FILES)] == []
    assert {"run-00/products.json", "run-01/metrics.json"} <= set(_files(tmp_path / "indirect"))
    files = _run(_args("compress", corpus), tmp_path / "compress")
    pages = sorted(path.stem for path in (corpus / "pages").glob("*.html"))
    assert sorted(files) == sorted([rundir.MANIFEST, *(f"{page}.html" for page in pages)])


def test_the_bit_exact_set_covers_every_pinned_artifact():
    pinned = [name for case in test_golden.GOLDEN.values() for name in case]
    pinned += list(test_golden_direct.GOLDEN)
    assert [name for name in pinned
            if not any(fnmatchcase(name, pattern) for pattern in rundir.BIT_EXACT)] == []
    assert set(test_golden.PINNED) <= {pattern.rpartition("/")[2] for pattern in rundir.BIT_EXACT}


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("command", ["direct", "indirect", "compress"])
def test_an_interrupted_write_leaves_no_torn_file(corpus, tmp_path, monkeypatch, command):
    """The k-th file write under --out stops halfway, for every k: each file
    left is absent or holds the bytes of the finished run it replaces."""
    args = _args(command, corpus) + (["--fresh"] if command == "direct" else [])
    finished = _run(args, tmp_path / "finished")
    real_write_text = files.write_text
    interrupted = 0
    while True:
        out = tmp_path / f"out-{interrupted}"
        shutil.copytree(tmp_path / "finished", out)
        writes = []

        def torn_write(path, data, *rest, **kwargs):
            if out in Path(path).parents:
                writes.append(path)
                if len(writes) == interrupted + 1:
                    real_write_text(path, data[: len(data) // 2], *rest, **kwargs)
                    raise _Interrupted
            return real_write_text(path, data, *rest, **kwargs)

        monkeypatch.setattr(files, "write_text", torn_write)
        result = CliRunner().invoke(main, [*map(str, args), "--out", str(out)])
        monkeypatch.undo()
        left = {name: data for name, data in _files(out).items() if not name.endswith(".tmp")}
        assert {name: finished.get(name) for name in left} == left
        if not isinstance(result.exception, _Interrupted):
            assert result.exit_code == 0, result.output
            break
        interrupted += 1
    assert interrupted == len(writes) >= 9


def test_an_interrupted_products_json_keeps_the_previous_file(tmp_path, monkeypatch):
    """products.json is streamed to its .tmp file: an interrupted stream
    leaves the previous run's file as it was."""
    def result(*page_ids):
        return SimpleNamespace(
            page_results={page_id: PageResult(page_id, FoodProduct(), "none", 0)
                          for page_id in page_ids},
            library=SimpleNamespace(to_json=lambda: "{}"),
            metrics=SimpleNamespace(to_json=lambda: "{}"), ledger=CostLedger(),
        )

    rundir.write_run(tmp_path, 0, result("p0"))
    previous = _files(tmp_path)
    real_serialize = rundir.serialize_product
    items = []

    def interrupted_serialize(product, prefix=""):
        items.append(product)
        if len(items) == 2:
            raise _Interrupted
        return real_serialize(product, prefix)

    monkeypatch.setattr(rundir, "serialize_product", interrupted_serialize)
    with pytest.raises(_Interrupted):
        rundir.write_run(tmp_path, 0, result("p0", "p1"))
    left = _files(tmp_path)
    assert left.pop("run-00/products.json.tmp").startswith(b'[\n  {\n    "page_id": "p0"')
    assert left == previous


def test_products_json_reuses_the_text_of_the_same_product_object_only(monkeypatch):
    """Over three runs, page a keeps its product object; b gets an equal
    product whose value has another exponent, then keeps it; c keeps its
    object, then gets a changed product; d leaves after the first run and
    comes back. Each run's bytes equal a fresh write's, and only products
    that are not the object written for the page last run are serialized."""
    def grams(text):
        return QuantitativeValue(Decimal(text), "GRM")

    a, c = FoodProduct(fat=grams("1.5")), FoodProduct(sugars=grams("2"))
    b, b_again = FoodProduct(salt=grams("1.0")), FoodProduct(salt=grams("1.00"))
    d = FoodProduct(ingredient_statement="Zucker")
    assert b == b_again
    runs = [
        {"a": a, "b": b, "c": c, "d": d},
        {"a": a, "b": b_again, "c": c},
        {"a": a, "b": b_again, "c": FoodProduct(sugars=grams("3")), "d": d},
    ]
    serialized = []
    real_serialize = rundir.serialize_product

    def counting_serialize(product, prefix=""):
        serialized[-1].append(product)
        return real_serialize(product, prefix)

    texts = {}
    for products in runs:
        page_results = {page_id: PageResult(page_id, product, "library", 1)
                        for page_id, product in products.items()}
        fresh = io.StringIO()
        rundir.write_products_json(fresh, page_results)
        monkeypatch.setattr(rundir, "serialize_product", counting_serialize)
        serialized.append([])
        written = io.StringIO()
        rundir.write_products_json(written, page_results, texts)
        monkeypatch.setattr(rundir, "serialize_product", real_serialize)
        assert written.getvalue() == fresh.getvalue()
        assert sorted(texts) == sorted(products)
        assert all(texts[page_id][0] is product for page_id, product in products.items())
    assert serialized == [[a, b, c, d], [b_again], [runs[2]["c"], d]]


def _products_without_memo(text):
    """products.json read as it was before items were memoised: each item
    decoded and validated on its own."""
    products = {}
    for entry in json.loads(text, parse_float=Decimal):
        page_id = entry["page_id"]
        if page_id in products:
            raise ValueError(f"page {page_id!r} is listed twice")
        products[page_id] = product_from_dict(entry["product"])
    return products


#: Product texts, valid and not; a JSON boolean is no number even where it
#: decodes equal to one (true == 1).
_PRODUCT_TEXTS = ('{"fat": {"value": 1, "unit_code": "GRM"}}',
                  '{"fat": {"value": true, "unit_code": "GRM"}}',
                  '{"fat": {"value": "1.5", "unit_code": "GRM"}}',
                  '{"fat": {"value": 1.50, "unit_code": "GRM"}}',
                  '{"ingredient_statement": "Zucker"}', '{"ingredient_statement": true}',
                  '{}', '[]', '{"x": 1}', 'null')
_SPACES = st.sampled_from(("", " ", "\n  "))
_ITEMS = st.one_of(
    st.builds(lambda page_id, product, space: f'{{"page_id": "{page_id}",{space}"product": {product}}}',
              st.sampled_from("abc"), st.sampled_from(_PRODUCT_TEXTS), _SPACES),
    st.sampled_from(('{"product": {}}', '{"page_id": ["a"], "product": {}}', "[1]", '"a"', "1")),
)
_PRODUCTS_JSON = st.one_of(
    st.builds(lambda items, space: "[" + space + ("," + space).join(items) + space + "]",
              st.lists(_ITEMS, max_size=4), _SPACES),
    st.sampled_from(("[", "[1,]", "{}", "[] x", "", "[]  ", " [ ] ")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PRODUCTS_JSON, min_size=1, max_size=4))
@example(['[{"page_id": "a", "product": {"fat": {"value": 1, "unit_code": "GRM"}}}]',
          '[{"page_id": "a", "product": {"fat": {"value": true, "unit_code": "GRM"}}}]'])
@example(['[{"page_id": "a", "product": {}}]', '[{"page_id": "a", "product": {}},'
          ' {"page_id": "a", "product": {}}]'])
def test_products_json_items_read_once_give_what_each_read_gives(texts):
    """Run files read with one memo of their items give the products, or
    refuse the file, as each file read on its own without the memo does;
    booleans and malformed items are still refused."""
    read = {}
    for text in texts:
        try:
            expected = _products_without_memo(text)
        except (*READ_ERRORS, SchemaViolation, ArithmeticError):
            with pytest.raises((*READ_ERRORS, SchemaViolation, ArithmeticError)):
                rundir._run_products(text, read)
        else:
            assert rundir._run_products(text, read) == expected
