"""Print, as a JSON list, the functions of pdseq that the product never calls.

Every function and method defined in the package's source files (lambdas
and comprehensions aside) is named "<module>.<qualname>".  A sys.setprofile
hook, installed before pdseq is imported, records each one that runs while
the package is imported and these are run:

- `pdseq check` (text, --format json and --list), and the rank check
  alone: in a full run it may run in a forked child, which the hook does
  not see;
- `seq`, `kernel` and `dfao` on every catalog name, at small sizes;
- `complexity` on every language, `ore` on u and on a generalized
  Thue-Morse inverse, and `invert` on a series, on the shortest one and on
  -X/(1-X) at p = 1000003, whose products split a limb;
- `catalog.cross_check(name, 100)` for every name.

Run as `python tests/reachability.py TMPDIR` with pdseq importable; the
series files for `invert` are written to TMPDIR.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

def defined(package_dir):
    """The "<module>.<qualname>" of every named function and class body in the package.

    A code object is matched by its qualname, not its first line: for a
    decorated function, co_firstlineno is the decorator's line.
    """
    out = {}
    for path in sorted(package_dir.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_qualname")]
            if code.co_name != "<module>" and not code.co_qualname.rpartition(".")[2].startswith("<"):
                out[(os.path.realpath(path), code.co_qualname)] = f"{path.stem}.{code.co_qualname}"
    return out


def run_product(tmp_dir):
    from pdseq import catalog
    from pdseq.cli import main

    tmp_dir = pathlib.Path(tmp_dir)
    d_series, shortest, large_p = tmp_dir / "d.json", tmp_dir / "shortest.json", tmp_dir / "large_p.json"
    d_series.write_text(catalog.generating_function("d", 64).to_json())
    shortest.write_text(json.dumps({"p": 2, "coeffs": [0]}))
    large_p.write_text(json.dumps({"p": 1000003, "coeffs": [0] + [1000002] * 199}))
    runs = [
        ["check"],
        ["check", "non-regularity-rank-evidence"],
        ["check", "--format", "json", "ans-numeration"],
        ["check", "--list"],
        ["ore", "u"],
        ["ore", "up2", "--precision", "64"],
        ["invert", str(d_series)],
        ["invert", str(shortest)],
        ["invert", str(large_p)],
        ["dfao", "d", "--dot"],
    ]
    for name in catalog.sequence_names():
        runs += [["seq", name, "50"], ["kernel", name, "--depth", "3", "--horizon", "64"], ["dfao", name, "--horizon", "64"]]
    runs += [["complexity", language, "10"] for language in sorted(catalog.LANGUAGES)]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    for name in catalog.sequence_names():
        catalog.cross_check(name, 100)


def unreached(tmp_dir):
    called = set()  # (file name, qualname) of each code object that ran

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    sys.setprofile(record)
    try:
        import pdseq

        run_product(tmp_dir)
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(f), q) for f, q in called}
    return sorted(name for key, name in defined(pathlib.Path(pdseq.__file__).parent).items() if key not in reached)


if __name__ == "__main__":
    print(json.dumps(unreached(sys.argv[1])))
