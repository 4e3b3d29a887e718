"""Every binding site the benchmark's tracer wraps must exist in prodex.

The traced benchmark replaces ``module.attribute`` bindings listed in
``perfbench/tracer.py``; a renamed or deleted binding breaks that run, so it
is checked here too.
"""

import importlib
import importlib.util
from pathlib import Path

from prodex.htmltree import parse_html, render_pruned

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


def test_every_tracer_site_resolves():
    sites = _sites()
    assert sites
    missing = []
    for name, module_name, path in sites:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module_name}.{path}")
    assert missing == []


def test_the_tracer_counts_the_elements_the_parse_recorded():
    """The tracer counts the elements of each document ``select`` is given
    through ``Document.iter_elements``, a dependency ``SITES`` does not name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    html = ('<div class="a"><script>x</script><p>y<br></p></div>'
            '<footer><p>z</p></footer><ul><li>1<li>2</ul>')
    parsed = parse_html(html)
    pruned = parse_html(render_pruned(html)[0])
    assert len(pruned.index.elements) < len(parsed.index.elements)
    for document in (parsed, pruned):
        assert tracer.Tracer()._elements(document) == len(document.index.elements)
