"""Golden runs: `extract indirect` under the oracle writes byte-identical files.

The digests pin the artifacts that are promised to be bit-exact, for one
single-run and one two-run corpus. A performance change must leave them as
they are; a change that alters them on purpose updates them here and says why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from prodex.cli import main

PINNED = ("products.json", "metrics.json", "library.json", "ledger.json", "summary.json")

GOLDEN = {
    ("gamma", 200, 1, ()): {
        "run-00/ledger.json": "f1ddaab3c9d647aedf389a35657b364953fa279f171d27af727a914b6c40457d",
        "run-00/library.json": "932a2286cb356140cbfa47e13133becb23907cdaf0f13427a37be9f7fa72e4c0",
        "run-00/metrics.json": "3e30c0cfccdcc0bc21e14b3bc7cd0c85a5e1787202a1c7e2ee5fff1960af27c5",
        "run-00/products.json": "6f7b838ca6de607803d9804d8173bf19983714d10f2aae201b17b23ca2242151",
        "summary.json": "aa9f6991fd90a04c73395eb6f57491fbef01b5b0f1e989ffb4e1b9f167cb7ada",
    },
    ("beta", 60, 2, ("--oracle-imperfections", "2")): {
        "run-00/ledger.json": "3ffdd0fb114e3c8daf21aef1a9f4151f087269d27b3c7e75c6bf89ee6a54d9bf",
        "run-00/library.json": "3607c2c006bcf48cfaa3d038f831685068a4ed1c8c1efbb2834f08368d724689",
        "run-00/metrics.json": "db86c8a0596c80adac68313c0d335af1b20f663eb134b29ce711e8c21d3dc5be",
        "run-00/products.json": "3fe6faf7404c4589ac2cb79f3d84353bc01ef371226c466cfaedc2c97a5e9653",
        "run-01/ledger.json": "dec54364ae5360c9ed7cdfaab18ed33a85a2c116deb79dc9800b5079fd983819",
        "run-01/library.json": "71f592d0724d4bfa89a17889be82020ca8ec75aa5994687551f5bb2ad8bb0d7e",
        "run-01/metrics.json": "a63f2f6c75793c6cecd42f8e98b496524c4c018a9281f90a096a22f299527b45",
        "run-01/products.json": "e4a54a1190c7d26adb7ddd506831e2be1ab0cc0ca8a00114a73d9fa8383b31b8",
        "summary.json": "7fe6bcfd8e7dd755a266213b4220046fccd40de93b2346af3891b94b7601780d",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda case: f"{case[0]}-{case[1]}x{case[2]}")
def test_indirect_artifacts_are_byte_identical(case, tmp_path):
    preset, pages, runs, extra = case
    runner = CliRunner()
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    result = runner.invoke(
        main,
        ["corpus", "generate", "--preset", preset, "--pages", str(pages),
         "--seed", "7", "--out", str(corpus)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(corpus), "--out", str(out),
         "--provider", "oracle", "--runs", str(runs), *extra],
    )
    assert result.exit_code == 0, result.output
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.json"))
        if path.name in PINNED
    }
    assert digests == GOLDEN[case]
