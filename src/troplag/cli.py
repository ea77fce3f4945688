"""Command-line interface.

Commands: validate, topology, homology, audin, triangle, gen-family,
gen-visible, genus-bound, squeeze, render.  A file argument of '-' reads
the document from stdin, so generators pipe into checkers:

    troplag gen-family 2 | troplag topology -

Exit codes: 0 pass/success, 1 check failure, 2 input error, 3 internal error,
141 stdout closed by its reader (128 + SIGPIPE, as `yes | head` reports).

This module holds the parser and main; main imports the module the table
names for the command (reports for a document, numeric for numbers), and
each command imports what it runs in its own body, so that `validate`,
say, never loads topology, homology, constructions or render.
"""
import argparse
import os
import sys

from .errors import (BROKEN_PIPE, INPUT_ERROR, INTERNAL_ERROR, PASS,
                     TroplagError)
from . import __version__, _submodule


_FILE = (("file",), {"help": "document path, or - for stdin"})

# Each command's name, then the module holding its function (named as the
# command, with _ for -), its summary and its arguments, as add_argument
# takes them, in the order the help lists them.
_COMMANDS = {
    "validate": ("reports", "validate every curve in a document", [_FILE]),
    "topology": ("reports", "surface class of every curve in a document",
                 [_FILE]),
    "homology": ("reports", "sweep parities and mod-2 class (rectangles)",
                 [_FILE]),
    "audin": ("reports", "check P2(class) = chi mod 4 for each curve", [
        _FILE, (("--class",), {
            "dest": "integral_class", "default": None,
            "metavar": "C1,C2,...",
            "help": "integral lift to use when the diagram has no sweep "
                    "classes (e.g. 1,1,1)"})]),
    "triangle": ("numeric", "check the strict triangle inequalities",
                 [(("a",), {}), (("b",), {}), (("c",), {})]),
    "gen-family": ("numeric", "emit the genus 20L+2 family document",
                   [(("ell",), {"metavar": "L"})]),
    "gen-visible": (
        "numeric", "emit a visible-segment document in a rectangle", [
            (("width",), {}), (("height",), {}),
            (("--direction",), {"default": "2,1", "metavar": "DX,DY"}),
            (("--anchor",), {"default": None, "metavar": "X,Y",
                             "help": "defaults to the rectangle centre"})]),
    "genus-bound": (
        "numeric", "nonorientable genus bound at a given width", [
            (("lam",), {"metavar": "LAMBDA"}),
            (("--threshold",), {"choices": ("statement", "proof"),
                                "default": "statement"})]),
    "squeeze": ("numeric", "visible Klein bottle existence over a cylinder",
                [(("interval_length",), {"metavar": "I"})]),
    "render": ("reports", "render a document to SVG", [
        _FILE, (("-o", "--output"), {
            "required": True, "metavar": "FILE.svg",
            "help": "output path, or - for stdout"})]),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with the subparser of command only, or of every command
    if command is None; a subparser's usage, help and errors are the same
    either way, since each names only its own prog."""
    parser = argparse.ArgumentParser(
        prog="troplag",
        description="Exact tropical curves in almost toric base diagrams: "
                    "validation, surface topology, mod-2 homology, "
                    "thresholds and SVG rendering.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS if command is None else (command,):
        _, summary, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the running command's subparser is built; any other first word
    # (-h, --version, a typo or none) gets all of them, for its message.
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS
                           else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help/--version.
        return INPUT_ERROR if exc.code not in (0, None) else PASS
    if args.command is None:
        parser.print_usage()
        return INPUT_ERROR
    try:
        module = _submodule(_COMMANDS[args.command][0])
        code = getattr(module, args.command.replace("-", "_"))(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone, as in `troplag ... | head -1`: print nothing
        # more, and point stdout's descriptor at os.devnull so that the
        # flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return BROKEN_PIPE
    except (TroplagError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return INTERNAL_ERROR


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
