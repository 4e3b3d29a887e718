"""Each command imports only the modules it runs, and each prompt template is
read once per process.

The commands run in fresh interpreters, since this test process has imported
every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import prodex
from prodex import files, prompts
from prodex.cli import main
from prodex.corpus import generate_shop, preset_spec, write_corpus
from prodex.reader import load_corpus, load_true_program

SRC = str(Path(prodex.__file__).resolve().parent.parent)

# Runs one command as the ``prodex`` entry point does, then prints the prodex
# modules the process loaded.
_RUN_COMMAND = """
import json, sys
from prodex.cli import main
try:
    main(args=sys.argv[1:], prog_name="prodex", standalone_mode=False)
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("prodex"))))
"""


def _loaded_by(*args) -> set[str]:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _RUN_COMMAND, *map(str, args)],
                         capture_output=True, text=True, check=True, env=env)
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A small gamma corpus and an oracle session of its direct extraction."""
    root = tmp_path_factory.mktemp("startup")
    write_corpus(generate_shop(preset_spec("gamma", 6, seed=3)), root / "corpus")
    result = CliRunner().invoke(
        main,
        ["extract", "direct", "--corpus", str(root / "corpus"), "--out", str(root / "rec"),
         "--provider", "oracle", "--record", str(root / "session")],
    )
    assert result.exit_code == 0, result.output
    return root


def test_evaluate_loads_neither_the_tree_nor_the_dsl_nor_the_orchestrator(recorded):
    loaded = _loaded_by("evaluate", "--results", recorded / "rec",
                        "--truth", recorded / "corpus", "--out", recorded / "report.json")
    assert json.loads((recorded / "report.json").read_text())["shops"]
    assert loaded == {
        "prodex", "prodex.cli", "prodex.reader", "prodex.schema", "prodex.similarity",
        "prodex.evaluate", "prodex.gateway", "prodex.direct", "prodex.prompts", "prodex.rundir",
        "prodex.files",
    }
    assert not loaded & {"prodex.indirect", "prodex.htmltree", "prodex.dsl", "prodex.oracle"}


def test_replayed_direct_extraction_loads_neither_the_orchestrator_nor_the_dsl(recorded):
    out = recorded / "replayed"
    loaded = _loaded_by("extract", "direct", "--corpus", recorded / "corpus", "--out", out,
                        "--provider", "replay", "--session", recorded / "session")
    assert len(list((out / "products").glob("*.json"))) == 6
    assert (out / "ledger.json").read_text() == (recorded / "rec" / "ledger.json").read_text()
    assert not loaded & {"prodex.indirect", "prodex.dsl", "prodex.oracle", "prodex.corpus"}


def test_the_reader_parses_a_true_program_on_the_first_request(recorded):
    assert "prodex.dsl" not in _loaded_by("--help")
    corpus = load_corpus(recorded / "corpus")
    assert all(isinstance(text, str) for text in corpus.true_programs.values())
    program = load_true_program(corpus, "liste")
    assert program.program_id == "true-liste"
    assert load_true_program(corpus, "liste") is program
    assert isinstance(corpus.true_programs["tafel"], str)


def test_each_prompt_template_is_read_once_per_process(monkeypatch):
    reads = []
    real_read = files.read_text

    def counting_read(path):
        reads.append(os.path.basename(path))
        return real_read(path)

    monkeypatch.setattr(files, "read_text", counting_read)
    prompts.load.cache_clear()
    try:
        for _ in range(3):
            prompts.load("direct_system.txt")
            prompts.load("direct_user.txt")
            digest = prompts.bundle_hash()
    finally:
        monkeypatch.undo()
        prompts.load.cache_clear()
    assert sorted(reads) == sorted(prompts._TEMPLATE_NAMES)
    assert digest == prompts.bundle_hash()


def test_the_bundle_hash_is_unchanged():
    assert prompts.bundle_hash() == (
        "0fab8a6abf4e5d1c123a6ba565ece267c62d9dfa65610c575788450007fd2dfd"
    )
