"""Command-line front end.

Exit-code contract everywhere: 0 all pass / exact, 1 any fail, 2 only
budget-bounded results (a BudgetError included), 64 a usage error (bad
option, argument or word).
"""

from __future__ import annotations

import json
import sys

import click

from .atlas import ATLAS_MAX_LEN_CAP, compute_atlas
from .cache import CertificateCache, solve_cached
from .construct import verify_witness, witness_pair
from .dfa import BudgetError, accepts, dfa_from_text, dfa_to_text, reverse
from .lang import build_G_k, build_H_k, build_L_k, state_complexity
from .lemmas import DEFAULT_SEED, run_lemma_suite
from .solver import DEFAULT_BUDGET, SearchBudget

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BOUNDED = 2
EXIT_USAGE = 64  # click's own code, 2, would read as budget-bounded


class _Group(click.Group):
    """A click group whose usage errors, raised while parsing or inside a
    subcommand, exit with EXIT_USAGE, and whose subcommands exit with
    EXIT_BOUNDED and a one-line message when they run out of budget."""

    def make_context(self, *args, **extra):
        try:
            return super().make_context(*args, **extra)
        except click.UsageError as e:
            e.exit_code = EXIT_USAGE
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = EXIT_USAGE
            raise
        except BudgetError as e:
            bounded = click.ClickException(f"budget exhausted: {e}")
            bounded.exit_code = EXIT_BOUNDED
            raise bounded from e


def _word_arg(w: str) -> str:
    if any(c not in "012" for c in w):
        raise click.BadParameter(f"words must be over {{0,1,2}}, got {w!r}")
    return w


@click.group(cls=_Group)
@click.option("--cache", "cache_path", type=click.Path(dir_okay=False), default=None,
              help="JSON-lines result cache file.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
              default="text", help="Output format.")
@click.pass_context
def main(ctx, cache_path, fmt):
    """Separating-words toolkit: exact solvers, languages, witnesses."""
    ctx.ensure_object(dict)
    ctx.obj["cache"] = CertificateCache(cache_path) if cache_path else None
    ctx.obj["format"] = fmt


@main.command()
@click.argument("w")
@click.argument("x")
@click.option("--max-states", type=click.IntRange(min=1), default=DEFAULT_BUDGET.max_states,
              help="Give up beyond this many states.")
@click.option("--budget-nodes", type=click.IntRange(min=1), default=DEFAULT_BUDGET.max_nodes,
              help="Search-node budget.")
@click.option("--json", "as_json", is_flag=True, help="Emit the full certificate.")
@click.pass_context
def sep(ctx, w, x, max_states, budget_nodes, as_json):
    """Minimum DFA size accepting W while rejecting X."""
    w, x = _word_arg(w), _word_arg(x)
    if w == x:
        raise click.BadParameter("the two words must differ")
    budget = SearchBudget(max_states=max_states, max_nodes=budget_nodes)
    cert, _ = solve_cached(w, x, budget=budget, cache=ctx.obj["cache"])
    if as_json or ctx.obj["format"] == "json":
        click.echo(cert.to_json())
    elif cert.exact:
        click.echo(f"sep = {cert.value}")
    else:
        click.echo(f"sep >= {cert.lower} (budget-bounded; upper known: {cert.upper})")
    sys.exit(EXIT_PASS if cert.exact else EXIT_BOUNDED)


_LANG_BUILDERS = {
    "L_k": build_L_k,
    "G_k": build_G_k,
    "H_k": build_H_k,
}


@main.command()
@click.option("--lang", "lang_name", type=click.Choice(sorted(_LANG_BUILDERS)),
              required=True, help="Language family.")
@click.option("--k", type=click.IntRange(min=1), required=True,
              help="Family parameter, k >= 1.")
@click.option("--reversed", "rev", is_flag=True, help="Measure the reversal instead.")
@click.pass_context
def stc(ctx, lang_name, k, rev):
    """State complexity of a family language (minimal DFA size)."""
    lang = _LANG_BUILDERS[lang_name](k)
    value = state_complexity(reverse(lang) if rev else lang)
    label = f"{lang_name[:-2]}_{k}" + ("^R" if rev else "")
    if ctx.obj["format"] == "json":
        click.echo(json.dumps({"lang": label, "stc": value}))
    else:
        click.echo(f"stc({label}) = {value}")


@main.command()
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--verify", "do_verify", is_flag=True,
              help="Certify both bounds after assembling.")
@click.option("--budget-nodes", type=click.IntRange(min=1), default=DEFAULT_BUDGET.max_nodes,
              help="Search-node budget of each search stage.")
@click.option("--wall-limit", type=click.FloatRange(min=0, min_open=True),
              default=DEFAULT_BUDGET.wall_limit,
              help="Wall-clock budget of each search stage, in seconds.")
@click.pass_context
def witness(ctx, k, n, do_verify, budget_nodes, wall_limit):
    """Assemble (and optionally verify) the binary witness pair for (k, n)."""
    budget = SearchBudget(max_nodes=budget_nodes, wall_limit=wall_limit)
    report = witness_pair(k, n, budget=budget)
    if do_verify:
        report = verify_witness(report, budget=budget)
    if ctx.obj["format"] == "json":
        click.echo(report.to_json())
    else:
        click.echo(f"w' = {report.w_prime}")
        click.echo(f"x' = {report.x_prime}")
        click.echo(f"lower claim {report.lower_claim}, verified to "
                   f"{report.lower_verified_to}; upper claim {report.upper_claim}")
        click.echo(f"statuses: {report.statuses}")
        if report.upper_witness is not None:
            click.echo(dfa_to_text(report.upper_witness))
    if not do_verify:
        sys.exit(EXIT_PASS)
    statuses = report.statuses.values()
    if "failed" in statuses:
        sys.exit(EXIT_FAIL)
    sys.exit(EXIT_PASS if all(s == "certified" for s in statuses) else EXIT_BOUNDED)


@main.command()
@click.argument("ids", nargs=-1, required=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.pass_context
def lemma(ctx, ids, seed):
    """Run the named desk-scale checks (use 'all' for every check)."""
    wanted = None if list(ids) == ["all"] else list(ids)
    try:
        suite = run_lemma_suite(wanted, seed=seed)
    except ValueError as e:
        raise click.ClickException(str(e))
    if ctx.obj["format"] == "json":
        click.echo(suite.to_json())
    else:
        click.echo(suite.to_text(), nl=False)
    sys.exit(suite.exit_code)


@main.command()
@click.option("--max-len", type=click.IntRange(1, ATLAS_MAX_LEN_CAP),
              default=ATLAS_MAX_LEN_CAP, show_default=True,
              help="Largest word length n in the table.")
@click.pass_context
def atlas(ctx, max_len):
    """The S(n) table: max separation number over binary pairs of length <= n."""
    table = compute_atlas(max_len, cache=ctx.obj["cache"])
    fmt = ctx.obj["format"]
    if fmt == "json":
        click.echo(table.to_json())
    else:  # csv doubles as the text rendering
        click.echo(table.to_csv(), nl=False)
    sys.exit(EXIT_PASS)


@main.command()
@click.option("--lang", "lang_file", type=click.Path(exists=True, dir_okay=False),
              required=True, help="File holding a language in the DFA text format.")
@click.argument("word")
@click.pass_context
def member(ctx, lang_file, word):
    """Test whether WORD belongs to the language stored in a DFA text file."""
    word = _word_arg(word)
    try:
        with open(lang_file, "r", encoding="utf-8") as fh:
            d, provenance = dfa_from_text(fh.read())
        ok = accepts(d, word)
    except ValueError as e:  # a malformed file, or a word outside its alphabet
        raise click.UsageError(f"{lang_file}: {e}")
    if ctx.obj["format"] == "json":
        click.echo(json.dumps({"word": word, "member": ok,
                               "lang": provenance or "unlabeled"}))
    else:
        click.echo("member" if ok else "not a member")
    sys.exit(EXIT_PASS if ok else EXIT_FAIL)


if __name__ == "__main__":
    main()
