"""Set-up check that every generated input parses, in one fresh process.

    python perfbench/validate.py P.gcl P.assert [Q.gcl Q.assert ...]

Prints each program's name, one per line, and exits 1 on the first file
that does not parse.
"""

import sys

from repro.gcl.program import parse_program
from repro.measures.assertfile import load_assertion_file


def main(paths: list) -> int:
    if not paths or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    for program, assertion in zip(paths[::2], paths[1::2]):
        with open(program, "r", encoding="utf-8") as handle:
            print(parse_program(handle.read()).name)
        load_assertion_file(assertion)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
