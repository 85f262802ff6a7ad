"""Command-line interface: presentations in, lattices and reports out.

Exit status: 0 on success, 1 when a verification suite reports
failures, 2 on usage errors, 3 on invalid input.  Output on standard
output is byte-identical across identical invocations; timing goes to
standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys

from . import extlattice, matching
from .core import (SetSystem, SubsetLattice, as_document, family_key,
                   index_list, lattice_doc, lattice_text, parse_lattice,
                   parse_presentation, presentation_doc, require_int,
                   require_list)
from .constructions import (build_maximal_presentation,
                            build_uniform_presentation, ideals_of_poset,
                            validate_lattice)
from .matroid import matroid_doc
from .presentations import (is_minimal, maximalize, minimal_presentations_below,
                            presentation_rank)

# The verify suites, each with the check it runs and the flags it reads,
# with their defaults.  A suite refuses any other flag.  A check is read
# off ``tmlat.verify`` only when a suite runs, so no other command loads
# that module.
_SAMPLED = {"r": 4, "trials": 50, "seed": 20240406}
SUITES = {"charmin": (lambda v: v.check_charmin, _SAMPLED),
          "threequarters": (lambda v: v.check_threequarters, _SAMPLED),
          "intersection": (lambda v: v.check_intersection, _SAMPLED),
          "classification": (lambda v: v.check_classification, {"r": 4}),
          "roundtrip": (lambda v: v.check_roundtrip, {}),
          "all": (lambda v: v.check_all, {"seed": 20240406})}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_presentation(path: str) -> SetSystem:
    return parse_presentation(_read(path))


def _load_lattice(path: str) -> SubsetLattice:
    """Read a lattice file and check it is closed: the one closure check."""
    lat = parse_lattice(_read(path))
    return validate_lattice(lat.members, lat.r)


def _index_arg(text: str) -> list[int]:
    """Parse a comma-separated list of 1-based indices; '' is the empty list."""
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _label_arg(text: str) -> list[str]:
    """Split a comma-separated list of labels; '' is the empty list."""
    return text.split(",") if text else []


def _count_arg(text: str) -> int:
    """Parse a non-negative integer count."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return count


def _index_mask(indices: list[int], r: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= r:
            raise ValueError(f"index {i} outside 1..{r}")
        mask |= 1 << (i - 1)
    return mask


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _emit_lattice(lat: SubsetLattice, dot: bool) -> None:
    if dot:
        sys.stdout.write(extlattice.hasse_dot(lat))
    else:
        print(lattice_text(lat))


def cmd_lattice(args) -> int:
    system = _load_presentation(args.file)
    _emit_lattice(extlattice.extension_lattice(system), args.dot)
    return 0


def cmd_sigma(args) -> int:
    system = _load_presentation(args.file)
    closed = extlattice.index_closure(system, _index_mask(args.set, system.r))
    _emit({"r": system.r, "sets": [index_list(closed)]})
    return 0


def cmd_extend(args) -> int:
    system = _load_presentation(args.file)
    iset = _index_mask(args.set, system.r)
    label = extlattice.fresh_label(system.ground)
    _emit(presentation_doc(extlattice.extend(system, iset, label)))
    return 0


def cmd_maximalize(args) -> int:
    system = _load_presentation(args.file)
    _emit(presentation_doc(maximalize(system)))
    return 0


def cmd_minimal(args) -> int:
    system = _load_presentation(args.file)
    keep = system.ground.mask(args.keep or [])
    below = minimal_presentations_below(system, keep)
    _emit({"presentation_rank": presentation_rank(system),
           "is_minimal": is_minimal(system),
           "presentations": [presentation_doc(c) for c in below]})
    return 0


def cmd_rank(args) -> int:
    system = _load_presentation(args.file)
    mask = (system.ground.full_mask if args.keep is None
            else system.ground.mask(args.keep))
    _emit({"rank": matching.rank(system, mask)})
    return 0


def cmd_supports(args) -> int:
    system = _load_presentation(args.file)
    if args.keep is not None:
        masks = [system.support(system.ground.mask(args.keep))]
    else:
        masks = sorted(set(matching.element_supports(system)),
                       key=family_key)
    _emit({"r": system.r, "sets": [index_list(m) for m in masks]})
    return 0


def cmd_t_lattice(args) -> int:
    system = _load_presentation(args.file)
    records = extlattice.extension_matroids(system)
    _emit({"r": system.r,
           "extensions": [{"set": index_list(rec.index_set),
                           **matroid_doc(rec.matroid)} for rec in records]})
    return 0


def cmd_intersect(args) -> int:
    a = _load_presentation(args.file)
    b = _load_presentation(args.other)
    common = extlattice.common_extension_lattice(a, b)
    _emit({"lattice_ab": lattice_doc(common.lattice_ab),
           "lattice_ba": lattice_doc(common.lattice_ba),
           "pairs": [[index_list(i), index_list(j)] for i, j in common.pairs]})
    return 0


def cmd_irreducibles(args) -> int:
    lat = _load_lattice(args.file)
    join_irr, meet_irr, least = extlattice.irreducibles(lat)
    _emit({"join": [index_list(m) for m in join_irr],
           "meet": [index_list(m) for m in meet_irr],
           "least_containing": {str(i + 1): index_list(m)
                                for i, m in sorted(least.items())}})
    return 0


def cmd_construct_maximal(args) -> int:
    lat = _load_lattice(args.file)
    _emit(presentation_doc(build_maximal_presentation(lat)))
    return 0


def cmd_construct_uniform(args) -> int:
    lat = _load_lattice(args.file)
    _emit(presentation_doc(build_uniform_presentation(lat, args.n)))
    return 0


def cmd_ideals(args) -> int:
    doc = as_document(_read(args.file))
    try:
        points = require_int(doc["points"], "'points'")
        less = require_list(doc["less"], "'less'")
    except (KeyError, TypeError):
        raise ValueError("poset document needs 'points' and 'less'") from None
    for k, pair in enumerate(less, start=1):
        require_list(pair, f"'less' entry {k}")
        if len(pair) != 2 or not all(type(i) is int for i in pair):
            raise ValueError(f"'less' entry {k} must hold two integers")
    _emit_lattice(ideals_of_poset(points, less), args.dot)
    return 0


def cmd_verify(args) -> int:
    given = {flag: value for flag in ("r", "trials", "seed")
             if (value := getattr(args, flag)) is not None}
    check, defaults = SUITES[args.suite]
    unread = [f"--{flag}" for flag in given if flag not in defaults]
    if unread:
        build_parser(args.command).error(
            f"verify {args.suite} reads no {', '.join(unread)}")
    from . import verify
    got = check(verify)(**(defaults | given))
    reports = got if args.suite == "all" else [got]
    if args.json:
        _emit([rep.to_doc() for rep in reports])
    else:
        for rep in reports:
            for line in rep.lines():
                print(line)
    for rep in reports:
        print(f"[{rep.suite}] elapsed {rep.elapsed:.2f}s", file=sys.stderr)
    return 0 if all(rep.ok for rep in reports) else 1


_FILE = ("file", {"help": "input path, or - for stdin"})
_DOT = ("--dot", {"action": "store_true", "help": "emit a Hasse diagram"})
_SET = ("--set", {"required": True, "type": _index_arg,
                 "help": "comma-separated 1-based indices"})
_LABELS = ("--keep", {"type": _label_arg,
                      "help": "comma-separated element labels"})

# name: (function, help text, arguments as (name, add_argument options))
COMMANDS = {
    "lattice": (cmd_lattice, "closed index sets of a presentation",
                (_FILE, _DOT)),
    "sigma": (cmd_sigma, "closure of an index set", (_FILE, _SET)),
    "extend": (cmd_extend, "adjoin a fresh element to the given sets",
               (_FILE, _SET)),
    "maximalize": (cmd_maximalize, "greatest presentation of the matroid",
                   (_FILE,)),
    "minimal": (cmd_minimal, "minimal presentations below the input",
                (_FILE, ("--keep", {"type": _label_arg,
                                    "help": "labels whose supports must be "
                                            "preserved"}))),
    "rank": (cmd_rank, "rank of a subset (default: the whole ground)",
             (_FILE, _LABELS)),
    "supports": (cmd_supports, "support of a subset, or all supports",
                 (_FILE, _LABELS)),
    "t-lattice": (cmd_t_lattice, "extension matroids of the closed sets",
                  (_FILE,)),
    "intersect": (cmd_intersect, "common extensions of two presentations",
                  (_FILE, ("other", {"help": "second presentation path"}))),
    "irreducibles": (cmd_irreducibles, "irreducible members of a lattice file",
                     (_FILE,)),
    "construct-maximal": (cmd_construct_maximal,
                          "maximal presentation realizing a lattice file",
                          (_FILE,)),
    "construct-uniform": (cmd_construct_uniform,
                          "uniform presentation realizing a lattice file",
                          (_FILE, ("--n", {"type": int, "required": True,
                                          "help": "ground size"}))),
    "ideals": (cmd_ideals, "order-ideal lattice of a poset file", (_FILE, _DOT)),
    "verify": (cmd_verify, "run a verification suite",
               (("suite", {"choices": SUITES}),
                ("--r", {"type": int}),
                ("--trials", {"type": _count_arg}),
                ("--seed", {"type": int}),
                ("--json", {"action": "store_true",
                            "help": "emit reports as JSON"}))),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with ``command``'s subparser only, or with every one.

    A one-command parser still names every command in its usage line,
    so its messages match the full parser's.  A parser depends on no
    input, so each is built once per process and reused by later calls.
    """
    parser = argparse.ArgumentParser(
        prog="tmlat",
        description="Presentations of transversal matroids and their "
                    "extension lattices.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else (command,):
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OverflowError, OSError) as exc:
        # OverflowError: a count too large to shift into a bitmask, such as
        # a 21-digit --n.
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Console entry point.

    A reader that closes the pipe early (``tmlat lattice big.json | head``)
    ends the process silently, as it ends other Unix filters.
    """
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
