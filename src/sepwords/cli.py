"""Command-line front end.

Exit-code contract everywhere: 0 all pass / exact, 1 any fail, 2 only
budget-bounded results (a BudgetError included), 64 a usage error (bad
option, argument or word), rather than argparse's default 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .atlas import ATLAS_DEFAULT_MAX_LEN, ATLAS_MAX_LEN_CAP, compute_atlas
from .cache import CertificateCache
from .construct import MAX_TRIPLE_N, verify_witness, witness_pair
from .dfa import BudgetError, accepts, dfa_from_text, dfa_to_text, reverse
from .lang import _reversed_G_k, _reversed_H_k, build_G_k, build_H_k, build_L_k
from .lemmas import DEFAULT_SEED, known_ids, run_lemma_suite
from .solver import DEFAULT_BUDGET, SearchBudget, exact_sep

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BOUNDED = 2
EXIT_USAGE = 64  # argparse's own code, 2, would read as budget-bounded


class _Parser(argparse.ArgumentParser):
    """A parser that exits EXIT_USAGE on a usage error, with the usage and
    one `Error:` line on stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"Error: {message}\n")


def _word(w: str) -> str:
    if any(c not in "012" for c in w):
        raise argparse.ArgumentTypeError(f"words must be over {{0,1,2}}, got {w!r}")
    return w


def _positive(kind):
    """A type= callable for a `kind` number > 0; the test refuses nan too."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _cache(path: str) -> CertificateCache:
    """The --cache file: not a directory, and no regular file above it, on
    which its first write would fail after the whole table."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    above = os.path.dirname(os.path.abspath(path))
    while not os.path.lexists(above):
        above = os.path.dirname(above)
    if not os.path.isdir(above):
        raise argparse.ArgumentTypeError(f"{above!r} is not a directory")
    return CertificateCache(path)


def sep(args) -> int:
    """Minimum DFA size accepting W while rejecting X."""
    if args.w == args.x:
        args.parser.error("the two words must differ")
    budget = SearchBudget(max_states=args.max_states, max_nodes=args.budget_nodes)
    cert = exact_sep(args.w, args.x, budget=budget)
    if args.format == "json":
        print(cert.to_json())
    elif cert.exact:
        print(f"sep = {cert.value}")
    else:
        print(f"sep >= {cert.lower} (budget-bounded; upper known: {cert.upper})")
    return EXIT_PASS if cert.exact else EXIT_BOUNDED


# each language's builder and that of its reversal.  Each returns its
# language's minimal DFA in canonical order, so stc reads its size as built:
# - build_L_k: no two states of its block rule are equivalent;
# - build_G_k, build_H_k, reverse(build_L_k(k)): Brzozowski's theorem;
# - _reversed_G_k: its star's subsets start at {end}, pairwise inequivalent;
# - _reversed_H_k: its complement argument (see its docstring).
# G_k and H_k come from their small reversals, so --reversed never builds
# the exponential DFA.
_LANG_BUILDERS = {"G_k": (build_G_k, _reversed_G_k), "H_k": (build_H_k, _reversed_H_k),
                  "L_k": (build_L_k, lambda k: reverse(build_L_k(k)))}


def stc(args) -> int:
    """State complexity of a family language (minimal DFA size)."""
    forward, backward = _LANG_BUILDERS[args.lang]
    value = (backward if args.reversed else forward)(args.k).state_count
    label = f"{args.lang[:-2]}_{args.k}" + ("^R" if args.reversed else "")
    if args.format == "json":
        print(json.dumps({"lang": label, "stc": value}))
    else:
        print(f"stc({label}) = {value}")
    return EXIT_PASS


def witness(args) -> int:
    """Assemble (and optionally verify) the binary witness pair for (k, n)."""
    budget = SearchBudget(max_nodes=args.budget_nodes, wall_limit=args.wall_limit)
    report = witness_pair(args.k, args.n, budget=budget)
    if args.verify:
        report = verify_witness(report, budget=budget)
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"w' = {report.w_prime}")
        print(f"x' = {report.x_prime}")
        print(f"lower claim {report.lower_claim}, verified to "
              f"{report.lower_verified_to}; upper claim {report.upper_claim}")
        print(f"statuses: {report.statuses}")
        if report.upper_witness is not None:
            print(dfa_to_text(report.upper_witness))
    if not args.verify:
        return EXIT_PASS
    statuses = report.statuses.values()
    if "failed" in statuses:
        return EXIT_FAIL
    return EXIT_PASS if all(s == "certified" for s in statuses) else EXIT_BOUNDED


def lemma(args) -> int:
    """Run the named desk-scale checks (use 'all' for every check)."""
    ids = None if args.ids == ["all"] else args.ids
    if ids is not None and "all" in ids:
        args.parser.error("'all' must stand alone, without other check ids")
    unknown = [i for i in ids or () if i not in known_ids()]
    if unknown:
        args.parser.error(f"unknown check ids {unknown}; valid ids: all, "
                          f"{', '.join(known_ids())}")
    suite = run_lemma_suite(ids, seed=args.seed)
    if args.format == "json":
        print(suite.to_json())
    else:
        print(suite.to_text(), end="")
    return suite.exit_code


def atlas(args) -> int:
    """The S(n) table: max separation number over binary pairs of length <= n."""
    table = compute_atlas(args.max_len, cache=args.cache)
    if args.format == "json":
        print(table.to_json())
    else:  # csv doubles as the text rendering
        print(table.to_csv(), end="")
    return EXIT_PASS


def member(args) -> int:
    """Test whether WORD belongs to the language stored in a DFA text file."""
    try:
        with open(args.lang, "r", encoding="utf-8") as fh:
            d, provenance = dfa_from_text(fh.read())
        ok = accepts(d, args.word)
    except (OSError, ValueError) as e:  # no such file, a malformed one, or a
        args.parser.error(f"{args.lang}: {e}")  # word outside its alphabet
    if args.format == "json":
        print(json.dumps({"word": args.word, "member": ok, "lang": provenance or "unlabeled"}))
    else:
        print("member" if ok else "not a member")
    return EXIT_PASS if ok else EXIT_FAIL


def _parser() -> _Parser:
    # no abbreviated options: `--max` is not `--max-states`
    parser = _Parser(prog="sepwords", allow_abbrev=False, description="Separating-words "
                     "toolkit: exact solvers, languages, witnesses.")
    parser.add_argument("--format", choices=["json", "csv", "text"], default="text",
                        help="Output format.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        return sub

    positive_int = _positive(int)
    p = command(sep)
    p.add_argument("w", metavar="W", type=_word)
    p.add_argument("x", metavar="X", type=_word)
    p.add_argument("--max-states", type=positive_int, default=DEFAULT_BUDGET.max_states,
                   help="Give up beyond this many states.")
    p.add_argument("--budget-nodes", type=positive_int, default=DEFAULT_BUDGET.max_nodes,
                   help="Search-node budget.")

    p = command(stc)
    p.add_argument("--lang", choices=_LANG_BUILDERS, required=True, help="Language family.")
    p.add_argument("--k", type=positive_int, required=True, help="Family parameter, k >= 1.")
    p.add_argument("--reversed", action="store_true", help="Measure the reversal instead.")

    p = command(witness)
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--n", type=int, choices=range(1, MAX_TRIPLE_N + 1), required=True)
    p.add_argument("--verify", action="store_true", help="Certify both bounds after assembly.")
    p.add_argument("--budget-nodes", type=positive_int, default=DEFAULT_BUDGET.max_nodes,
                   help="Search-node budget of each search stage.")
    p.add_argument("--wall-limit", type=_positive(float), default=DEFAULT_BUDGET.wall_limit,
                   help="Wall-clock budget of each search stage, in seconds.")

    p = command(lemma)
    p.add_argument("ids", nargs="+")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="(default: %(default)s)")

    p = command(atlas)
    p.add_argument("--max-len", type=int, choices=range(1, ATLAS_MAX_LEN_CAP + 1),
                   default=ATLAS_DEFAULT_MAX_LEN,
                   help="Largest word length n in the table. (default: %(default)s)")
    p.add_argument("--cache", type=_cache,
                   help="JSON-lines file that records the row pairs' certificates.")

    p = command(member)
    p.add_argument("--lang", required=True,
                   help="File holding a language in the DFA text format.")
    p.add_argument("word", metavar="WORD", type=_word)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code. A usage error exits EXIT_USAGE."""
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except BudgetError as e:
        print(f"Error: budget exhausted: {e}", file=sys.stderr)
        return EXIT_BOUNDED


if __name__ == "__main__":
    sys.exit(main())
