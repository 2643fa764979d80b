"""A minimal YAML-subset parser for PALAEMON policy documents.

PALAEMON policies are YAML (List 1 of the paper). The standard library has
no YAML parser and this reproduction is dependency-free, so this module
implements the subset policies actually use:

- nested mappings via indentation,
- block sequences (``- item``), including sequences of mappings,
- scalars: strings (bare, single- or double-quoted), integers, floats,
  booleans (``true``/``false``), ``null``,
- inline lists of scalars (``["a", "b"]``),
- comments (``#``) and blank lines.

It is *not* a general YAML parser: anchors, multi-line scalars, and flow
mappings are rejected loudly rather than mis-parsed.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.errors import PolicyValidationError


class YamlishError(PolicyValidationError):
    """Raised on input outside the supported subset."""


def dumps(value: Any) -> str:
    """Serialize dicts/lists/scalars back into the supported subset.

    ``loads(dumps(x)) == x`` for any value built from the supported types
    (the round-trip property the test suite checks with hypothesis).
    """
    lines = _dump_block(value, 0)
    return "\n".join(lines) + "\n"


def _dump_block(value: Any, indent: int) -> List[str]:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            raise YamlishError("cannot serialize an empty mapping as a block")
        lines = []
        for key, item in value.items():
            rendered_key = _dump_key(key)
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{rendered_key}:")
                lines.extend(_dump_block(item, indent + 2))
            else:
                lines.append(f"{pad}{rendered_key}: {_dump_scalar(item)}")
        return lines
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, dict) and item:
                inner = _dump_block(item, indent + 2)
                first = inner[0].lstrip()
                lines.append(f"{pad}- {first}")
                lines.extend(inner[1:])
            elif isinstance(item, (dict, list)) and not isinstance(item, dict):
                raise YamlishError("nested lists are not supported")
            else:
                lines.append(f"{pad}- {_dump_scalar(item)}")
        return lines
    return [f"{pad}{_dump_scalar(value)}"]


def _dump_key(key: Any) -> str:
    if not isinstance(key, str) or not key:
        raise YamlishError(f"mapping keys must be non-empty strings: {key!r}")
    if key != key.strip() or ":" in key or key.startswith(("#", "-", '"')):
        return '"' + key + '"'
    return key


def _dump_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, list):
        if value:
            raise YamlishError("non-empty lists must be dumped as blocks")
        return "[]"
    if isinstance(value, dict):
        if value:
            raise YamlishError("non-empty dicts must be dumped as blocks")
        raise YamlishError("empty mappings cannot be round-tripped")
    if not isinstance(value, str):
        raise YamlishError(f"unsupported scalar type: {type(value).__name__}")
    if "\n" in value or '"' in value:
        raise YamlishError("multi-line and quoted strings are not supported")
    return '"' + value + '"'


def loads(text: str) -> Any:
    """Parse a YAML-subset document into dicts/lists/scalars."""
    lines = _prepare_lines(text)
    if not lines:
        return {}
    value, next_index = _parse_block(lines, 0, lines[0][0])
    if next_index != len(lines):
        line_number = lines[next_index][2]
        raise YamlishError(f"unexpected dedent/content at line {line_number}")
    return value


def required(entry: Any, key: str, what: str) -> Any:
    """``entry[key]``, or a typed error if ``entry`` is no mapping with it."""
    if not isinstance(entry, dict) or key not in entry:
        raise PolicyValidationError(f"every {what} needs a {key}")
    return entry[key]


def integer(value: Any, what: str) -> int:
    """``value`` as an int, or a typed error if it is not one."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise PolicyValidationError(
            f"{what} {value!r} is not an integer") from None


def _prepare_lines(text: str) -> List[Tuple[int, str, int]]:
    """Strip comments/blanks; return (indent, content, line_number) tuples."""
    prepared = []
    for number, raw in enumerate(text.splitlines(), start=1):
        without_comment = _strip_comment(raw)
        stripped = without_comment.strip()
        if not stripped:
            continue
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise YamlishError(f"tabs in indentation at line {number}")
        indent = len(without_comment) - len(without_comment.lstrip(" "))
        prepared.append((indent, stripped, number))
    return prepared


def _strip_comment(line: str) -> str:
    """Remove a trailing comment, respecting quoted strings."""
    in_single = in_double = False
    for index, char in enumerate(line):
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        elif char == "#" and not in_single and not in_double:
            if index == 0 or line[index - 1] in (" ", "\t"):
                return line[:index]
    return line


def _parse_block(lines: List[Tuple[int, str, int]], index: int,
                 indent: int) -> Tuple[Any, int]:
    """Parse one block (mapping or sequence) at the given indent."""
    _indent, content, _number = lines[index]
    if content.startswith("- "):
        return _parse_sequence(lines, index, indent)
    return _parse_mapping(lines, index, indent)


def _parse_sequence(lines: List[Tuple[int, str, int]], index: int,
                    indent: int) -> Tuple[List[Any], int]:
    items: List[Any] = []
    while index < len(lines):
        item_indent, content, number = lines[index]
        if item_indent < indent:
            break
        if item_indent > indent:
            raise YamlishError(f"unexpected indent at line {number}")
        if not content.startswith("- "):
            break
        rest = content[2:].strip()
        if _looks_like_mapping_entry(rest):
            # "- key: value" starts an inline mapping item; treat the rest
            # as the first entry of a mapping indented past the dash.
            entry_indent = item_indent + 2
            synthetic = [(entry_indent, rest, number)]
            probe = index + 1
            while probe < len(lines) and lines[probe][0] >= entry_indent:
                synthetic.append(lines[probe])
                probe += 1
            value, consumed = _parse_mapping(synthetic, 0, entry_indent)
            if consumed != len(synthetic):
                bad_line = synthetic[consumed][2]
                raise YamlishError(f"unexpected structure at line {bad_line}")
            items.append(value)
            index = probe
            continue
        items.append(_parse_scalar(rest, number))
        index += 1
    return items, index


def _parse_mapping(lines: List[Tuple[int, str, int]], index: int,
                   indent: int) -> Tuple[dict, int]:
    mapping: dict = {}
    while index < len(lines):
        entry_indent, content, number = lines[index]
        if entry_indent < indent:
            break
        if entry_indent > indent:
            raise YamlishError(f"unexpected indent at line {number}")
        if content.startswith("- "):
            break
        key, separator, rest = _split_key(content, number)
        if key in mapping:
            raise YamlishError(f"duplicate key {key!r} at line {number}")
        rest = rest.strip()
        if rest:
            mapping[key] = _parse_scalar(rest, number)
            index += 1
        else:
            if index + 1 < len(lines) and lines[index + 1][0] > indent:
                value, index = _parse_block(lines, index + 1,
                                            lines[index + 1][0])
                mapping[key] = value
            else:
                mapping[key] = None
                index += 1
    return mapping, index


def _split_key(content: str, number: int) -> Tuple[str, str, str]:
    in_single = in_double = False
    for index, char in enumerate(content):
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        elif char == ":" and not in_single and not in_double:
            if index + 1 == len(content) or content[index + 1] == " ":
                key = content[:index].strip()
                if key.startswith(("'", '"')):
                    key = key[1:-1]
                return key, ":", content[index + 1:]
    raise YamlishError(f"expected 'key: value' at line {number}")


def _looks_like_mapping_entry(content: str) -> bool:
    try:
        _split_key(content, 0)
        return True
    except YamlishError:
        return False


#: Scalars that parse to a boolean or to ``None``, lowercased.
_KEYWORDS = {"true": True, "yes": True, "false": False, "no": False,
             "null": None, "~": None}


def _parse_scalar(text: str, number: int) -> Any:
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part.strip(), number)
                for part in _split_inline_list(inner, number)]
    if text.startswith("{"):
        raise YamlishError(f"flow mappings not supported (line {number})")
    if text.startswith("&") or text.startswith("*"):
        raise YamlishError(f"anchors/aliases not supported (line {number})")
    if text.startswith("|") or text.startswith(">"):
        raise YamlishError(f"block scalars not supported (line {number})")
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return text[1:-1]
    lowered = text.lower()
    if lowered in _KEYWORDS:
        return _KEYWORDS[lowered]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_inline_list(inner: str, number: int) -> List[str]:
    parts = []
    current = []
    in_single = in_double = False
    for char in inner:
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        if char == "," and not in_single and not in_double:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if in_single or in_double:
        raise YamlishError(f"unterminated quote in list (line {number})")
    parts.append("".join(current))
    return parts
