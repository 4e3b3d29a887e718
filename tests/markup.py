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


#: Script and style elements with their bodies, closed by an end tag in any
#: of the ways the raw-text end pattern reads.
_RAW_BODIES = ("", "x", "var a = '<p>';", "if (a </b) {}", "<!-- c -->", "</scrip")
_raw_element = st.builds(
    lambda tag, body, end, case: f"<{tag}>{body}{end.format(case(tag))}",
    st.sampled_from(("script", "style")), st.sampled_from(_RAW_BODIES),
    st.sampled_from(("</{}>", "</{} >", "</ {}>")), st.sampled_from((str, str.upper)),
)
_declaration = st.sampled_from(("<!DOCTYPE html>", "<?xml version='1.0'?>", "<!x>"))


def template_markup():
    """Tag soup of the tokens template pages are made of: plain start, end
    and self-closing tags, text without "<", comments, declarations,
    inline SVG, and script and style elements with their bodies."""
    text = st.text(alphabet="ab &;>\n\xa0", max_size=6)
    return st.lists(
        st.one_of(_start, _start, _end, _self_closing, text, _comment, _svg, _raw_element,
                  _declaration), min_size=1, max_size=30
    ).map("".join)


def raw_bodies():
    """Script or style bodies: text that holds no end tag of either."""
    return st.sampled_from(_RAW_BODIES)


#: Tags named with a trailing U+00A0, whose end tag reads back as another
#: tag's ("</a\xa0>" as "</a>"), so that a childless one is written
#: self-closed.
_nbsp = st.sampled_from(("a\xa0", "b\xa0", "li\xa0")).flatmap(
    lambda tag: st.sampled_from((f"<{tag}>", f"</{tag}>", f"<{tag}/>", f'<{tag} class="a">'))
)


def nbsp_markup():
    """Tag soup with U+00A0 tag names among the tags, text and comments."""
    return st.lists(
        st.one_of(_start, _end, _self_closing, _text, _comment, _svg, _nbsp), max_size=40
    ).map("".join)


#: Banned elements written alike on many pages, and what their bodies may
#: hold that makes a body depend on the markup around it: an end tag that
#: closes an outer element, an implicit close of the banned element, an
#: unterminated quote that runs past the body, a comment, a nested banned
#: element of the same name, and a script.
_BANNED_STARTS = ("<footer>", '<footer class="a">', "<option>", "<header id=x>", "<noscript>",
                  "<script>", "<option/>")
_HAZARDS = ("</div>", "</p>", "<option>b", "<option/>", '<b c="d>', "<!-- c -->", "<a \"",
            "</footer>", "<footer>a</footer>", "<script>x</script>", "<br></br>")


@st.composite
def template_pages(draw):
    """Pages built from one pool of banned-element bodies, so that bodies
    repeat from page to page: each page is tag soup among banned elements,
    each a start tag with a body from the pool, perhaps cut short, and then
    the element's end tag or a different tail."""
    fragments = st.one_of(_text, _start, _end, st.sampled_from(_HAZARDS))
    pool = draw(st.lists(st.lists(fragments, max_size=5).map("".join), min_size=1, max_size=3))

    @st.composite
    def banned(draw):
        start = draw(st.sampled_from(_BANNED_STARTS))
        body = draw(st.sampled_from(pool))
        body = body[:draw(st.integers(0, len(body)))] if draw(st.booleans()) else body
        end = "</" + start[1:].split(">")[0].split()[0].rstrip("/") + ">"
        return start + body + draw(st.sampled_from((end, end, "x" + end, "", "<p>")))

    page = st.lists(st.one_of(_start, _end, _text, banned(), banned()), max_size=12).map("".join)
    return draw(st.lists(page, min_size=1, max_size=4))


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


#: Markup that a careless tokenizer reads in quadratic time, each unit
#: repeated to make a page.
HOSTILE = {
    "unterminated quotes": '<a "',
    "unterminated comment": "<!--",
    "run of <": "<",
    "nested div": "<div>",
    "run of empty comments": "<!---->",
    "run of empty scripts": "<script></script>",
    "run of CDATA sections": "<![CDATA[x]]>",
    "run of implicitly closed li": "<li>",
    "run of implicitly closed td": "<td>",
    "nested svg and g": "<svg><g>",
    "banned bodies alike for a long prefix": "".join(
        f"<footer>{'a' * 100}{tail}</footer>" for tail in "bcdef"
    ),
}
