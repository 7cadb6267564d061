#!/usr/bin/env python3
"""Docs-consistency check (CI): the documentation must keep up with the wire
protocol, the telemetry surface and the module inventory.

Three rules, all extracted from the source of truth in lib/:

1. Every wire message — each constructor of ``Hf_proto.Message.msg``, the
   one message type both engines ship (``Message.t`` is the wire's
   instance) — and the two envelope tag bytes (126 reliability, 127 traced
   span) must be named somewhere under doc/.
2. Every ``hf.<layer>.<name>`` metric the code can register must be named
   somewhere under doc/, and every such name written under doc/ must be one
   the code can register.  Names are collected from (a) full string
   literals, and (b) functions that build names as ``prefix ^ ".short"``
   (the tracer) — shorts are crossed with every explicit
   ``~prefix:"hf.*"`` call-site argument in lib/.
3. Every backticked module name in the "Key modules" column of DESIGN.md's
   §1 system inventory must exist as a ``.ml`` file in the ``lib/``
   directory named in that row's "Library" column.

Exit 1 listing every missing name, so a PR that adds a message or metric
without documenting it, deletes a metric the docs still name, or deletes
or renames a module the inventory still lists, fails in CI.  No
third-party imports; runs anywhere python3 runs.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIB = ROOT / "lib"
DOC = ROOT / "doc"


def doc_corpus() -> str:
    texts = [p.read_text(encoding="utf-8") for p in sorted(DOC.glob("*.md"))]
    if not texts:
        sys.exit("check_docs: no markdown files under doc/")
    return "\n".join(texts)


def wire_tags() -> list[str]:
    """Constructors of the parameterized Message.msg plus the two envelope
    tag bytes."""
    mli = (LIB / "proto" / "message.mli").read_text(encoding="utf-8")
    parts = re.split(r"^type \([^)]*\) msg =$", mli, maxsplit=1, flags=re.M)
    if len(parts) != 2:
        sys.exit("check_docs: no `type (...) msg =` declaration in lib/proto/message.mli")
    names = []
    for line in parts[1].splitlines():
        m = re.match(r"\s+\| ([A-Z][A-Za-z_0-9]*)", line)
        if m:
            names.append(m.group(1))
        elif re.match(r"^[a-z(]", line):  # next top-level item ends the type
            break
    if len(names) < 14:
        sys.exit(f"check_docs: implausibly few message constructors extracted: {names}")
    codec = (LIB / "proto" / "codec.ml").read_text(encoding="utf-8")
    for tag_let in ("traced_tag", "rel_tag"):
        m = re.search(rf"let {tag_let} = (\d+)", codec)
        if not m:
            sys.exit(f"check_docs: {tag_let} not found in lib/proto/codec.ml")
        names.append(m.group(1))
    return names


METRIC_LITERAL = re.compile(r'"(hf\.[a-z_]+\.[a-z_0-9]+)"')
PREFIX_SHORT = re.compile(r'prefix \^ "\.([a-z_0-9]+)"')
CALLSITE_PREFIX = re.compile(r'~prefix:"(hf\.[a-z_]+)"')
# A metric name written in prose; a trailing ``*`` makes it a wildcard
# such as ``hf.index.bloofi_*``, which names no single metric.
DOC_METRIC = re.compile(r"hf\.[a-z_]+\.[a-z_0-9]+(?![a-z_0-9*])")


def metric_names() -> list[str]:
    names: set[str] = set()
    sources = [p.read_text(encoding="utf-8") for p in sorted(LIB.rglob("*.ml"))]
    prefixes: set[str] = set()
    for text in sources:
        prefixes |= set(CALLSITE_PREFIX.findall(text))
    for text in sources:
        names |= set(METRIC_LITERAL.findall(text))
        for short in PREFIX_SHORT.findall(text):
            for prefix in prefixes:
                names.add(f"{prefix}.{short}")
    if len(names) < 40:
        sys.exit(f"check_docs: implausibly few metric names extracted ({len(names)})")
    return sorted(names)


INVENTORY_MODULE = re.compile(r"`([A-Z][A-Za-z0-9_]*)`")
INVENTORY_LIB = re.compile(r"`(lib/[a-z_]+)`")


def inventory_problems() -> tuple[int, list[str]]:
    """Modules DESIGN.md §1 names that have no .ml file in their row's
    directory, and how many modules were checked."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    if "## 1. System inventory" not in text:
        sys.exit("check_docs: DESIGN.md has no '## 1. System inventory' section")
    section = text.split("## 1. System inventory", 1)[1].split("\n## ", 1)[0]
    problems, checked, rows = [], 0, 0
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 4 or not cells[0].isdigit():
            continue
        rows += 1
        lib = INVENTORY_LIB.search(cells[2])
        if lib is None:
            problems.append(f"DESIGN.md §1 row {cells[0]} names no lib/ directory")
            continue
        for name in INVENTORY_MODULE.findall(cells[3]):
            checked += 1
            path = f"{lib.group(1)}/{name[0].lower() + name[1:]}.ml"
            if not (ROOT / path).is_file():
                problems.append(f"DESIGN.md §1 row {cells[0]} lists `{name}`, but {path} does not exist")
    if rows < 15:
        sys.exit(f"check_docs: implausibly few DESIGN.md §1 rows parsed ({rows})")
    return checked, problems


def main() -> int:
    corpus = doc_corpus()
    checked, missing = inventory_problems()
    for tag in wire_tags():
        if tag not in corpus:
            missing.append(f"wire tag/message `{tag}` (lib/proto) is not documented in doc/")
    registrable = metric_names()
    for name in registrable:
        if name not in corpus:
            missing.append(f"metric `{name}` is not documented in doc/")
    for name in sorted(set(DOC_METRIC.findall(corpus)) - set(registrable)):
        missing.append(f"metric `{name}` is documented in doc/ but no code registers it")
    if missing:
        print("docs drift detected — update doc/ (see doc/architecture.md tables) or DESIGN.md §1:")
        for line in missing:
            print(f"  - {line}")
        return 1
    print(
        f"docs-consistency: OK ({len(wire_tags())} wire tags, "
        f"{len(registrable)} metric names all documented, none extra; "
        f"{checked} inventory modules exist)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
