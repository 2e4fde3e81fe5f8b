"""Command-line interface: censuses, cohomology tables, retraction checks,
homomorphism inspection, and self-verification suites.

All output is deterministic JSON (sorted keys, fixed indentation) so runs
can be diffed and committed as golden files.  Bad input is reported as one
line on stderr with exit status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, cohomology, commutator, homs
from . import retraction, words
from .census import MAX_POINTS, MAX_STRANDS, census, select
from .homs import BraidHom
from .perm import Permutation, integer

SCHEMA = 1


class InputError(Exception):
    """Input the command cannot use: reported in one line, exit status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # One line without the usage block, like an InputError report.
        self.exit(2, "%s: error: %s\n" % (self.prog, " ".join(message.split())))


def _at_least(low, high=None):
    """An argparse type: an integer no smaller than low, nor larger than
    high if it is given."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be <= %d, got %d" % (high, value))
        return value

    return integer


def _emit(payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
    further modulus of a base reaches ``cohomology._smith_pair`` with the
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


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves no state in it."""
    parser = _Parser(
        prog="braidcensus",
        description="Censuses and invariants of braid-group homomorphisms "
        "into symmetric groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumerate homomorphism classes")
    p.add_argument("k", type=_at_least(3, MAX_STRANDS), help="number of strands")
    p.add_argument("n", type=_at_least(1, MAX_POINTS), help="number of points")
    p.add_argument(
        "--workers",
        type=_at_least(1),
        default=1,
        help="processes, at most the CPU count",
    )
    p.add_argument("--transitive", action="store_true")
    p.add_argument("--noncyclic", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "census-bprime", help="enumerate commutator-subgroup classes"
    )
    p.add_argument("k", type=_at_least(5, MAX_STRANDS), help="5..%d" % MAX_STRANDS)
    p.add_argument("n", type=_at_least(1, MAX_POINTS), help="number of points")
    p.set_defaults(func=_cmd_census_commutator)

    p = sub.add_parser("cohomology", help="first cohomology of a block base")
    p.add_argument(
        "base", choices=("standard", "exceptional6", "fivesix", "cyclic")
    )
    p.add_argument(
        "n",
        type=_at_least(1),
        help="points of the base (cycle length for cyclic)",
    )
    p.add_argument(
        "r", type=_at_least(0), help="coefficient modulus (0 for integers)"
    )
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("retract", help="retract a homomorphism onto cycle labels")
    p.add_argument("hom", help="path to a homomorphism JSON file, or -")
    p.add_argument("r", type=_at_least(2), help="cycle length")
    p.set_defaults(func=_cmd_retract)

    p = sub.add_parser("hom", help="inspect a homomorphism, optionally on a word")
    p.add_argument("hom", help="path to a homomorphism JSON file, or -")
    p.add_argument("--word", help="JSON list of signed generator indices")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except InputError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
