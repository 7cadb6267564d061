#!/usr/bin/env python3
"""Exported-surface check (CI): every value a library interface exports must
have a caller outside its own module.

For each ``val NAME`` declared in a ``lib/**/*.mli`` (sub-module signatures
included), some OCaml source outside that module's own ``.ml``/``.mli``,
searching lib/, bin/, bench/, examples/, test/ and tcpbench/, must name it
in one of these ways, comments aside:

* qualified, ``M.NAME``, where ``M`` is the module (``Codec`` for
  ``lib/proto/codec.mli``), the innermost module of a sub-module path
  (``Decoder`` for ``Frame.Decoder``), or an alias the file makes of it
  with ``module X = ….M``;
* bare, in a file that opens the module with ``open M`` or ``include M``
  (anywhere in the file: the scan does not track scopes), or inside a
  local ``M.( … )``;
* as a requirement of a functor the module is passed to, as in
  ``Hashtbl.Make (Oid)``: the values the functor's parameter signature
  names (``equal`` and ``hash`` there) count as used.

A bare name in a file that does not open the module is not a call: a value
nothing else names this way is dead surface.  Un-export it, and delete it
when its own module does not use it either.  Modules without an ``.mli``
export everything and are out of scope.

  python3 tools/check_surface.py              scan the repository
  python3 tools/check_surface.py --self-test  check the matcher on the
                                              fixtures in tools/surface_fixtures

Exit 1 listing every uncalled value (or, with --self-test, every fixture
verdict that differs from the expected one).  No third-party imports; runs
anywhere python3 runs.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEARCHED = ["lib", "bin", "bench", "examples", "test", "tcpbench"]
FIXTURES = ROOT / "tools" / "surface_fixtures"

IDENT = r"[a-z_][A-Za-z0-9_']*"
MODULE = r"[A-Z][A-Za-z0-9_']*"
PATH = rf"{MODULE}(?:\.{MODULE})*"
VAL = re.compile(rf"\bval\s+({IDENT})\s*:")
SIG_OPEN = re.compile(rf"\bmodule\s+({MODULE})\s*:\s*sig\b|\bsig\b|\bend\b|\bstruct\b|\bobject\b")
ALIAS = re.compile(rf"\bmodule\s+({MODULE})\s*=\s*({PATH})(?![A-Za-z0-9_'.])(?!\s*\()")
OPEN = re.compile(rf"\b(?:open!?|include)\s+({PATH})")
LOCAL_OPEN = re.compile(rf"\b({PATH})\.\(")
APPLY = re.compile(rf"\b({PATH})\s*\(\s*({PATH})\s*\)")
FUNCTOR = re.compile(rf"\bmodule\s+({MODULE})\s*\(\s*{MODULE}\s*:\s*({PATH})\s*\)")
MODULE_TYPE = re.compile(rf"\bmodule\s+type\s+({MODULE})\s*=\s*sig\b(.*?)\bend\b", re.DOTALL)

# What the standard library's functors require of their argument.
STDLIB_FUNCTORS = {
    "Set.Make": {"compare"},
    "Map.Make": {"compare"},
    "Hashtbl.Make": {"equal", "hash"},
}


def strip_comments(text):
    """The text with OCaml comments (nested) blanked out; string and
    character literals are kept, so a "(*" inside one opens nothing."""
    out = []
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and text.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        c = text[i]
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if not depth:
                out.append(text[i : j + 1])
            i = j + 1
            continue
        if c == "'" and i + 2 < n and (text[i + 2] == "'" or text[i + 1] == "\\"):
            j = text.find("'", i + 2)
            j = j if j != -1 else i + 2
            if not depth:
                out.append(text[i : j + 1])
            i = j + 1
            continue
        if not depth:
            out.append(c)
        elif c == "\n":
            out.append(c)
        i += 1
    return "".join(out)


def closing_paren(text, start):
    """The index of the ``)`` closing the parenthesis opened just before
    ``start`` (the end of the text if it never closes)."""
    depth = 1
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def module_name(path):
    return path.stem[:1].upper() + path.stem[1:]


def exported_values(mli):
    """(innermost module, value) for each ``val`` of an interface: values in
    ``module X : sig … end`` belong to ``X``; those in any other ``sig``
    (a functor parameter, a module type) are requirements, not exports."""
    text = strip_comments(mli.read_text(encoding="utf-8"))
    stack = [module_name(mli)]
    values = []
    events = [(m.start(), "block", m) for m in SIG_OPEN.finditer(text)]
    events += [(m.start(), "val", m) for m in VAL.finditer(text)]
    for _, kind, m in sorted(events, key=lambda e: e[0]):
        if kind == "val":
            if stack[-1] is not None:
                values.append((stack[-1], m.group(1)))
        elif m.group(1):
            stack.append(m.group(1))
        elif m.group(0) == "end":
            if len(stack) > 1:
                stack.pop()
        else:
            stack.append(None)
    return sorted(set(values))


class Source:
    """What one OCaml file names: qualified uses, bare words, the modules
    it opens, its aliases, and the modules it passes to functors."""

    def __init__(self, path, text):
        self.path = path
        self.text = strip_comments(text)
        self.words = set(re.findall(r"[A-Za-z0-9_']+", self.text))
        self.qualified = set(re.findall(rf"({MODULE})\.({IDENT})", self.text))
        self.opened = {p.split(".")[-1] for p in OPEN.findall(self.text)}
        self.locally_opened = {}
        for m in LOCAL_OPEN.finditer(self.text):
            inside = self.text[m.end() : closing_paren(self.text, m.end())]
            words = set(re.findall(r"[A-Za-z0-9_']+", inside))
            self.locally_opened.setdefault(m.group(1).split(".")[-1], set()).update(words)
        self.aliases = {}
        for alias, target in ALIAS.findall(self.text):
            self.aliases.setdefault(target.split(".")[-1], set()).add(alias)
        self.applications = APPLY.findall(self.text)

    def names(self, module, value):
        qualifiers = {module} | self.aliases.get(module, set())
        if any((q, value) in self.qualified for q in qualifiers):
            return True
        if value in self.words and qualifiers & self.opened:
            return True
        return any(value in self.locally_opened.get(q, ()) for q in qualifiers)


def functor_requirements(sources):
    """The value names each functor's parameter requires: the standard
    library's functors by path suffix, and every ``module F (X : M.S)``
    whose module type ``M.S`` is defined in the scanned sources, by its
    qualified name ``File.F`` and, within its own file, by ``F``."""
    module_types = {}
    for src in sources:
        for name, body in MODULE_TYPE.findall(src.text):
            module_types[f"{module_name(src.path)}.{name}"] = set(VAL.findall(body))
    required = dict(STDLIB_FUNCTORS)
    local = {}
    for src in sources:
        for functor, param_type in FUNCTOR.findall(src.text):
            names = module_types.get(".".join(param_type.split(".")[-2:]))
            if names is not None:
                required[f"{module_name(src.path)}.{functor}"] = names
                local[(src.path, functor)] = names
    return required, local


def passed_to_functors(sources):
    """(module, value) pairs a functor application requires."""
    required, local = functor_requirements(sources)
    used = set()
    for src in sources:
        for functor, argument in src.applications:
            names = set(local.get((src.path, functor), set()))
            for suffix, wanted in required.items():
                if functor == suffix or functor.endswith("." + suffix):
                    names |= wanted
            used |= {(argument.split(".")[-1], name) for name in names}
    return used


def scan(root, searched):
    """Every exported value of ``root/lib`` that no source under the
    ``searched`` directories of ``root`` names, as ``file: val name``."""
    paths = []
    for top in searched:
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".ml", ".mli") and "_build" not in path.parts:
                paths.append(path)
    sources = [Source(p, p.read_text(encoding="utf-8")) for p in paths]
    by_functor = passed_to_functors(sources)
    uncalled = []
    for mli in sorted((root / "lib").rglob("*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        others = [src for src in sources if src.path not in own]
        for module, value in exported_values(mli):
            if (module, value) in by_functor:
                continue
            if not any(src.names(module, value) for src in others):
                uncalled.append(f"{mli.relative_to(root)}: val {value}")
    return uncalled


def self_test():
    """The fixture library's interface exports values that the fixture
    sources each use one way (qualified, through an alias, after an open, in
    a local open, in a sub-module, as a functor's requirement), and values
    they name only bare without opening the module, or only in a comment:
    the scan must list exactly the values EXPECTED names."""
    expected = (FIXTURES / "EXPECTED").read_text(encoding="utf-8").split()
    found = [line.split("val ")[-1] for line in scan(FIXTURES, ["lib", "bin"])]
    ok = sorted(found) == sorted(expected)
    print(f"check_surface self-test: expected uncalled {sorted(expected)}, found {sorted(found)}")
    print("check_surface self-test: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if sys.argv[1:]:
        sys.exit(__doc__)
    uncalled = scan(ROOT, SEARCHED)
    for line in uncalled:
        print(line)
    print(f"check_surface: {len(uncalled)} exported value(s) with no caller outside their module")
    return 1 if uncalled else 0


if __name__ == "__main__":
    sys.exit(main())
