#!/usr/bin/env python3
"""Exported-surface check (CI): every value a library interface exports must
have a caller outside its own module.

For each ``val NAME`` declared in a ``lib/**/*.mli`` (sub-module signatures
included), the name must appear as a whole word in some file outside that
module's own ``.ml``/``.mli``, searching lib/, bin/, bench/, examples/,
test/, tcpbench/ and tools/.  A value nothing else names is dead surface:
un-export it, and delete it when its own module does not use it either.

The match is by word, not by resolved path, so a name that some other
module also uses counts as called; the check errs towards keeping a value.
Modules without an ``.mli`` export everything and are out of scope.

Exit 1 listing every uncalled value.  No third-party imports; runs anywhere
python3 runs.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEARCHED = ["lib", "bin", "bench", "examples", "test", "tcpbench", "tools"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.MULTILINE)
WORD = re.compile(r"[A-Za-z0-9_']+")


def source_files():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "_build" not in path.parts:
                yield path


def main() -> int:
    words = {}
    for path in source_files():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        words[path] = set(WORD.findall(text))
    uncalled = []
    for mli in sorted((ROOT / "lib").rglob("*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        for name in sorted(set(VAL.findall(mli.read_text(encoding="utf-8")))):
            if not any(name in found for path, found in words.items() if path not in own):
                uncalled.append(f"{mli.relative_to(ROOT)}: val {name}")
    for line in uncalled:
        print(line)
    print(f"check_surface: {len(uncalled)} exported value(s) with no caller outside their module")
    return 1 if uncalled else 0


if __name__ == "__main__":
    sys.exit(main())
