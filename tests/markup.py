"""Hypothesis strategies for malformed shop markup and subset selectors."""

from hypothesis import strategies as st

TAGS = ("div", "p", "span", "b", "ul", "li", "table", "tr", "td", "dt", "dd",
        "br", "img", "script", "option", "footer")
CLASSES = ("a", "b", "c")
IDS = ("x", "y")

_class_attr = st.lists(st.sampled_from(CLASSES), max_size=3).map(
    lambda names: f' class="{" ".join(names)}"'
)
_attrs = st.lists(
    st.one_of(
        _class_attr,
        st.sampled_from(IDS).map(lambda i: f' id="{i}"'),
        st.just(' style="color: red"'),
        st.just(" hidden"),
    ),
    max_size=2,
).map("".join)
_start = st.builds(lambda tag, attrs: f"<{tag}{attrs}>", st.sampled_from(TAGS), _attrs)
_self_closing = st.builds(lambda tag, attrs: f"<{tag}{attrs}/>", st.sampled_from(TAGS), _attrs)
_end = st.sampled_from(TAGS).map(lambda tag: f"</{tag}>")
_text = st.text(alphabet="ab &;<>\n\xa0", max_size=6)
_comment = st.just("<!-- c -->")


def markup():
    """Tag soup: unbalanced, unclosed, stray and self-closing tags among text."""
    return st.lists(
        st.one_of(_start, _start, _end, _self_closing, _text, _comment), max_size=40
    ).map("".join)


_compound = st.builds(
    lambda tag, classes, ident: tag + "".join(f".{c}" for c in classes)
    + (f"#{ident}" if ident else ""),
    st.sampled_from(("", "*") + TAGS),
    st.lists(st.sampled_from(CLASSES), max_size=2),
    st.sampled_from((None,) + IDS),
).filter(bool)


@st.composite
def selectors(draw):
    """Selectors in the supported subset: compounds joined by ' ' or ' > '."""
    parts = draw(st.lists(_compound, min_size=1, max_size=3))
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from((" ", " > "))) + part
    return text
