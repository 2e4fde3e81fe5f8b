"""Command-line interface: censuses, cohomology tables, retraction checks,
homomorphism inspection, and self-verification suites.

Every command is a fresh interpreter, so the command line is read without
argparse, whose import and parser cost each command milliseconds: one
table, ``_COMMANDS``, gives each command's function, positionals and
options, ``_parse`` reads argv against it as the argparse parser it
replaced did, and the same table prints ``--help``.

All output is deterministic JSON (sorted keys, fixed indentation) so runs
can be diffed and committed as golden files; ``_dumps`` writes the text of
``json.dumps(payload, sort_keys=True, indent=2)`` without json's
pure-Python encoder.  Bad input is reported as one line on stderr with exit
status 2.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import types
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, cohomology, commutator, homs
from . import retraction, words
from .census import MAX_POINTS, MAX_STRANDS, census, select
from .homs import BraidHom
from .perm import Permutation, integer

SCHEMA = 1


class InputError(Exception):
    """Input the command cannot use: reported in one line, exit status 2."""


def _bounded(low, high=None):
    """A converter: the ``int()`` of a text, no smaller than low, nor larger
    than high if it is given."""

    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError("must be >= %d, got %d" % (low, value))
        if high is not None and value > high:
            raise ValueError("must be <= %d, got %d" % (high, value))
        return value

    return convert


def _dumps(value, indent="\n"):
    """The text of ``json.dumps(value, sort_keys=True, indent=2)`` for the
    str-keyed payloads of the commands, without json's pure-Python
    indenting encoder: strings go through json's own escaper, as
    ``json.dumps`` sends them, an int is written as json writes it, and
    every other scalar goes through ``json.dumps``."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [inner + _quote(k) + ": " + _dumps(value[k], inner) for k in sorted(value)]
        return "{%s%s}" % (",".join(items), indent)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            return "[%s%s%s]" % (inner, ("," + inner).join(map(str, value)), indent)
        return "[%s%s]" % (",".join([inner + _dumps(v, inner) for v in value]), indent)
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return str(value)
    return json.dumps(value)


def _emit(payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    sys.stdout.write(_dumps(payload) + "\n")


def _cmd_census(args):
    workers = min(args.workers, os.cpu_count() or 1)
    records = census(args.k, args.n, workers=workers)
    records = select(
        records,
        transitive=True if args.transitive else None,
        cyclic=False if args.noncyclic else None,
    )
    _emit(
        {
            "command": "census",
            "k": args.k,
            "n": args.n,
            "classes": [r.to_json() for r in records],
        }
    )


def _cmd_census_commutator(args):
    records = commutator.commutator_census(args.k, args.n)
    _emit(
        {
            "command": "census-bprime",
            "k": args.k,
            "n": args.n,
            "classes": [
                dict(h.to_json(), trivial=h.is_trivial(), tame=h.is_tame())
                for h in records
            ],
        }
    )


# The bases with a fixed point count, by name.
_SIX_POINT_BASES = {
    "exceptional6": homs.exceptional_hom_six,
    "fivesix": homs.five_strand_six_points,
}


@functools.cache
def _base_hom(name, n):
    """The named base on n points, built and checked against its Artin
    relations on the first call and shared by every later one, so each
    further modulus of a base reaches ``cohomology._cocycle_diagonal`` with the
    same immutable ``BraidHom``.  A base too large for its cocycle matrix,
    or a six-point base on other than 6 points, raises ``ValueError``
    before it is built; refusals are not cached."""
    if name in _SIX_POINT_BASES:
        if n != 6:
            raise ValueError("this base acts on 6 points")
        return _SIX_POINT_BASES[name]()
    k = n if name == "standard" else max(n + 1, 5)
    cohomology.check_cocycle_size(k, n)
    if name == "standard":
        return homs.standard_hom(n)
    return homs.cyclic_hom(k, Permutation.from_cycles([tuple(range(1, n + 1))], n))


def _cmd_cohomology(args):
    try:
        base = _base_hom(args.base, args.n)
        invariants = cohomology.h1_invariants(base, args.r)
    except ValueError as exc:
        raise InputError(
            "cannot take H^1 over the %s base on %d points: %s"
            % (args.base, args.n, exc)
        )
    _emit(
        {
            "command": "cohomology",
            "base": args.base,
            "strands": base.k,
            "points": base.n,
            "modulus": args.r,
            "invariants": invariants,
        }
    )


def _read_hom(path):
    """The map in a JSON file, or in stdin for ``-``; a strand count past
    ``census.MAX_STRANDS`` is refused before its Artin relations are checked."""
    try:
        if path == "-":
            # Read stdin without closing it: a later caller may need it.
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
        if integer(data["k"]) > MAX_STRANDS:
            raise ValueError("k must be <= %d" % MAX_STRANDS)
        return BraidHom.from_json(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError("cannot read a homomorphism from %s: %s" % (path, exc))


def _cmd_retract(args):
    hom = _read_hom(args.hom)
    try:
        om = retraction.omega(hom, args.r)
        report = retraction.label_table_report(hom, args.r)
    except ValueError as exc:
        raise InputError("cannot retract onto %d-cycles: %s" % (args.r, exc))
    _emit(
        {
            "command": "retract",
            "r": args.r,
            "omega": om.to_json(),
            "report": report,
        }
    )


def _cmd_hom(args):
    hom = _read_hom(args.hom)
    payload = {
        "command": "hom",
        "hom": hom.to_json(),
        "cyclic": hom.is_cyclic(),
        "transitive": hom.is_transitive(),
        "alpha_cycles": hom.alpha().cycle_string(),
        "beta_cycles": hom.beta().cycle_string(),
    }
    if args.word is not None:
        try:
            letters = json.loads(args.word)
            if not isinstance(letters, list):
                raise ValueError("expected a JSON list of letters")
            w = words.word(letters)
            image = hom(w)
        except (ValueError, TypeError) as exc:
            raise InputError("bad --word %s: %s" % (args.word, exc))
        payload["word"] = list(w)
        payload["image"] = image.to_json()
        payload["image_cycles"] = image.cycle_string()
    _emit(payload)


def _suite_identities():
    out = {}
    for k in (4, 5, 6):
        std = homs.standard_hom(k)
        bad = [
            name
            for name, lhs, rhs in words.known_identities(k)
            if std(lhs) != std(rhs)
        ]
        out["projection k=%d" % k] = not bad
    bad = [
        name
        for name, lhs, rhs in words.known_identities(4)
        if not words.words_equal(lhs, rhs)
    ]
    out["word oracle k=4"] = not bad
    return out


def _census_counts(label, cases):
    """For each (k, n, expected), whether census(k, n) has that many
    transitive non-cyclic classes, keyed by the label filled in with k and n."""
    out = {}
    for k, n, expected in cases:
        found = select(census(k, n), transitive=True, cyclic=False)
        out[label.format(k=k, n=n)] = len(found) == expected
    return out


def _suite_artin():
    return _census_counts("k={k} count", ((4, 4, 4), (5, 5, 1), (6, 6, 2)))


def _suite_small_census():
    return _census_counts(
        "k={k} n={n} count", ((3, 4, 2), (3, 5, 1), (4, 5, 1), (5, 6, 1))
    )


def _suite_cohomology():
    out = {}
    out["standard five strands r=2"] = cohomology.h1_invariants(
        _base_hom("standard", 5), 2
    ) == [2, 2]
    out["standard five strands r=0"] = cohomology.h1_invariants(
        _base_hom("standard", 5), 0
    ) == [0, 0]
    out["exceptional six r=2"] = cohomology.h1_invariants(
        _base_hom("exceptional6", 6), 2
    ) == [2]
    out["five into six r=4"] = cohomology.h1_invariants(
        _base_hom("fivesix", 6), 4
    ) == [2, 4]
    return out


def _suite_models():
    out = {}
    try:
        catalog = homs.three_strand_catalog()
        out["three strand catalog"] = len(catalog) == 17
        out["five into six retraction"] = retraction.label_tables_clean(
            _base_hom("fivesix", 6), 2
        )
        out["exceptional six retraction"] = retraction.label_tables_clean(
            _base_hom("exceptional6", 6), 2
        )
    except (ValueError, RuntimeError):
        return {"models": False}
    return out


def _suite_commutator():
    out = {}
    std = commutator.standard_commutator_hom(5)
    via_words = commutator.restrict_braid_hom(homs.standard_hom(5))
    out["standard restriction"] = std.images() == via_words.images()
    exc = commutator.exceptional_commutator_hom_six()
    out["exceptional validates"] = not exc.is_trivial()
    return out


def _suite_special():
    out = {}
    for k in (3, 5):
        prog = words.progression_degrees(k, 40)
        expected = sorted(set(n for ns in prog.values() for n in ns))
        found = sorted(
            n for n in range(2, 41) if words.special_params(k, n)
        )
        out["progressions k=%d" % k] = found == expected
    images = words.cable_hom(3, 2)
    out["cable braid relation"] = words.words_equal(
        images[0] + images[1] + images[0], images[1] + images[0] + images[1]
    )
    return out


_SUITES = {
    "identities": _suite_identities,
    "artin": _suite_artin,
    "small_census": _suite_small_census,
    "cohomology": _suite_cohomology,
    "models": _suite_models,
    "commutator": _suite_commutator,
    "special": _suite_special,
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = {}
    for name in names:
        results[name] = _SUITES[name]()
    ok = all(all(v.values()) for v in results.values())
    _emit({"command": "verify", "results": results, "ok": ok})
    return 0 if ok else 1


# Each command: its function, its help, its positionals as (name, converter,
# help) and its options as (flag, converter, default, help).  An option's
# destination is its flag without the dashes, and an option without a
# converter is a switch that stores True.  A converter is a function of the
# text that raises ValueError, or a tuple of the texts it accepts.
_COMMANDS = {
    "census": (
        _cmd_census,
        "enumerate homomorphism classes",
        (
            ("k", _bounded(3, MAX_STRANDS), "number of strands"),
            ("n", _bounded(1, MAX_POINTS), "number of points"),
        ),
        (
            ("--workers", _bounded(1), 1, "processes, at most the CPU count"),
            ("--transitive", None, False, "keep the transitive classes only"),
            ("--noncyclic", None, False, "keep the non-cyclic classes only"),
        ),
    ),
    "census-bprime": (
        _cmd_census_commutator,
        "enumerate commutator-subgroup classes",
        (
            ("k", _bounded(5, MAX_STRANDS), "number of strands, 5..%d" % MAX_STRANDS),
            ("n", _bounded(1, MAX_POINTS), "number of points"),
        ),
        (),
    ),
    "cohomology": (
        _cmd_cohomology,
        "first cohomology of a block base",
        (
            ("base", ("standard", "exceptional6", "fivesix", "cyclic"), "the base"),
            ("n", _bounded(1), "points of the base (cycle length for cyclic)"),
            ("r", _bounded(0), "coefficient modulus (0 for integers)"),
        ),
        (),
    ),
    "retract": (
        _cmd_retract,
        "retract a homomorphism onto cycle labels",
        (
            ("hom", str, "path to a homomorphism JSON file, or -"),
            ("r", _bounded(2), "cycle length"),
        ),
        (),
    ),
    "hom": (
        _cmd_hom,
        "inspect a homomorphism, optionally on a word",
        (("hom", str, "path to a homomorphism JSON file, or -"),),
        (("--word", str, None, "JSON list of signed generator indices"),),
    ),
    "verify": (
        _cmd_verify,
        "run a self-check suite",
        (("suite", tuple(sorted(_SUITES)) + ("all",), "the suite"),),
        (),
    ),
}

_HELP = ("--help", None, False, "show this help and exit")
_VERSION = ("--version", None, False, "print the version and exit")


def _option(token, options):
    """How argparse read a token other than ``--``: None for a value,
    (option, its value after ``=``, or None) for one of options, or
    (None, None) for an option that is not there.  A long option may be cut
    to a prefix that it alone starts with; ``-h`` takes the rest of its
    token as its value, and ``-hh`` is ``-h`` twice; ``-``, a negative number
    and a text with a space that names no option are values."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] != "-":
        if token[:2] == "-h":
            value = token[3:] if token[2:3] == "=" else token[2:] or None
            return _HELP, None if value and not value.strip("h") else value
        found = []
    else:
        name, eq, value = token.partition("=")
        value = value if eq else None
        found = [o for o in options if o[0] == name]
        found = found or [o for o in options if o[0].startswith(name)]
    if len(found) > 1:
        raise InputError(
            "ambiguous option: %s could match %s"
            % (token, ", ".join(o[0] for o in found))
        )
    if found:
        return found[0], value
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _usage(command):
    """The help text of a command, or of the command line for None."""
    if command is None:
        head = "[-h] [--version] COMMAND ..."
        about = (
            "Censuses and invariants of braid-group homomorphisms into "
            "symmetric groups."
        )
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
        options = (_VERSION,)
    else:
        _, about, positionals, options = _COMMANDS[command]
        head = "%s [options] %s" % (command, " ".join(p[0] for p in positionals))
        rows = [
            (name, text + ": " + ", ".join(convert))
            if isinstance(convert, tuple)
            else (name, text)
            for name, convert, text in positionals
        ]
    rows += [
        (flag if convert is None else flag + " " + flag[2:].upper(), text)
        for flag, convert, _, text in options
    ]
    rows.append(("-h, --help", _HELP[3]))
    width = max(len(left) for left, _ in rows)
    return "usage: braidcensus %s\n\n%s\n\n%s\n" % (
        head,
        about,
        "\n".join("  %-*s  %s" % (width, left, text) for left, text in rows),
    )


def _convert(name, convert, text):
    """The value of one argument, or an InputError naming it."""
    try:
        if not isinstance(convert, tuple):
            return convert(text)
        if text in convert:
            return text
        raise ValueError("invalid choice %r (choose from %s)" % (text, ", ".join(convert)))
    except ValueError as exc:
        raise InputError("argument %s: %s" % (name, exc))


def _no_value(flag, value):
    if value is not None:
        raise InputError("argument %s: ignored explicit argument %r" % (flag, value))


def _readings(tokens, options):
    """``_option`` of each token, as argparse read them all before it acted
    on any: the first ``--`` reads as itself and every token after it as a
    value (None)."""
    if "--" not in tokens:
        return [_option(token, options) for token in tokens]
    cut = tokens.index("--")
    readings = [_option(token, options) for token in tokens[:cut]]
    return readings + ["--"] + [None] * (len(tokens) - cut - 1)


def _parse(argv):
    """The namespace of a command line, read against ``_COMMANDS`` as the
    argparse parser of earlier versions read it.  Before the command come
    only ``-h``, ``--help`` and ``--version``; the command's options may go
    before, between or after its positionals, as ``--opt value`` or
    ``--opt=value``, and the last of a repeated option wins; every text
    after ``--`` is a positional.  Help and the version are printed to
    stdout with exit status 0; bad input raises InputError."""
    argv = list(argv)
    unknown = []
    for i, reading in enumerate(_readings(argv, (_HELP, _VERSION))):
        if reading is None or reading == "--":
            break
        spec, value = reading
        if spec is None:
            unknown.append(argv[i])
            continue
        _no_value(spec[0], value)
        sys.stdout.write(_usage(None) if spec is _HELP else __version__ + "\n")
        sys.exit(0)
    else:
        raise InputError("the following arguments are required: command")
    command = argv[i]
    if command not in _COMMANDS:
        raise InputError(
            "argument command: invalid choice %r (choose from %s)"
            % (command, ", ".join(_COMMANDS))
        )
    func, _, positionals, options = _COMMANDS[command]
    args = {"command": command, "func": func}
    args.update((flag[2:], default) for flag, _, default, _ in options)
    options += (_HELP,)
    tokens = argv[i + 1:]
    readings = _readings(tokens, options)
    count = j = 0
    while j < len(tokens):
        token, reading = tokens[j], readings[j]
        j += 1
        if reading == "--":
            continue
        if reading is None:
            if count < len(positionals):
                name, convert, _ = positionals[count]
                args[name] = _convert(name, convert, token)
            else:
                unknown.append(token)
            count += 1
            continue
        spec, value = reading
        if spec is None:
            unknown.append(token)
            continue
        flag, convert = spec[:2]
        if convert is None:
            _no_value(flag, value)
            if spec is _HELP:
                sys.stdout.write(_usage(command))
                sys.exit(0)
            value = True
        else:
            if value is None:
                if j == len(tokens) or readings[j] is not None:
                    raise InputError("argument %s: expected one argument" % flag)
                value = tokens[j]
                j += 1
            value = _convert(flag, convert, value)
        args[flag[2:]] = value
    if count < len(positionals):
        raise InputError(
            "the following arguments are required: %s"
            % ", ".join(p[0] for p in positionals[count:])
        )
    if unknown:
        raise InputError("unrecognized arguments: %s" % " ".join(unknown))
    return types.SimpleNamespace(**args)


def main(argv=None):
    """Run one command line and return its exit status.  Bad input is
    reported in one line on stderr and exits with status 2."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args) or 0
    except InputError as exc:
        sys.stderr.write("braidcensus: error: %s\n" % " ".join(str(exc).split()))
        sys.exit(2)


if __name__ == "__main__":
    sys.exit(main())
