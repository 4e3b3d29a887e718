"""Hypothesis strategies for malformed shop markup and subset selectors."""

from hypothesis import strategies as st

TAGS = ("div", "p", "span", "b", "ul", "li", "table", "tr", "td", "dt", "dd",
        "br", "img", "script", "option", "footer", "header", "svg", "g", "path")
CLASSES = ("a", "b", "c")
IDS = ("x", "y")


@st.composite
def _attribute(draw):
    """One attribute in any letter case, its value double-, single- or
    unquoted and perhaps bearing a character reference."""
    name = draw(st.sampled_from(("class", "CLASS", "Class", "id", "ID", "style", "hidden", "HIDDEN")))
    if name.lower() == "hidden":
        return f" {name}"
    if name.lower() == "class":
        names = st.sampled_from(CLASSES + ("&#97;", "c&amp;d"))
        value = " ".join(draw(st.lists(names, max_size=3)))
    elif name.lower() == "id":
        value = draw(st.sampled_from(IDS + ("&#120;", "x&lt;y")))
    else:
        value = "color: red"
    quote = draw(st.sampled_from(('"', "'", "") if value and " " not in value else ('"', "'")))
    return f" {name}={quote}{value}{quote}"


_attrs = st.lists(_attribute(), max_size=3).map("".join)
_start = st.builds(lambda tag, attrs: f"<{tag}{attrs}>", st.sampled_from(TAGS), _attrs)
_self_closing = st.builds(lambda tag, attrs: f"<{tag}{attrs}/>", st.sampled_from(TAGS), _attrs)
_end = st.sampled_from(TAGS).map(lambda tag: f"</{tag}>")
_text = st.text(alphabet="ab &;<>\n\xa0", max_size=6)
_comment = st.just("<!-- c -->")
_svg = st.builds(  # an inline SVG icon, as shop pages carry them
    lambda attrs, text: f'<svg{attrs}><g><path d="M0 0h24"/>{text}</g></svg>', _attrs, _text
)


def attribute_texts():
    """The attribute text of a start tag: attributes, each after a space."""
    return _attrs


def markup():
    """Tag soup: unbalanced, unclosed, stray and self-closing tags among text."""
    return st.lists(
        st.one_of(_start, _start, _end, _self_closing, _text, _comment, _svg), max_size=40
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
