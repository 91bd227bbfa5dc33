"""Command-line surface.

Subcommands: synth, classify, christoffel, fib, enumerate, corpus gen,
corpus verify.  Output is machine readable: space-separated key=value pairs,
one record per line.  Exit codes: 0 success, 1 verification failure,
2 invalid parameters, 3 I/O or file-format error.  `christoffel`,
`enumerate`, `fib` and `synth` exit 2 before doing any work when their
record would exceed MAX_RECORD_CHARS characters (`synth` reports an int64
overflow first).  `enumerate` streams its record.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import groupby
from math import comb
from operator import attrgetter
from typing import Optional, Sequence

from . import corpus as corpus_mod
from .christoffel import christoffel_sa_params, christoffel_word, factorization_index
from .core import APPerm, _check_int64, ap_inverse
from .enumeration import enumerate_strings
from .errors import CorpusFormatError
from .lyndonlab import _SWAP, balanced_via_slope, fibonacci_lengths, fibonacci_word
from .synthesis import _rank_alphabet, _require_alphabet, classify, synth_general
from .textindex import _smallest_period, bwt_runs, compact_runs, progression_of

__all__ = ["main", "MAX_RECORD_CHARS"]

# Largest record `christoffel`, `enumerate`, `fib` or `synth` prints.
# `christoffel` and `synth` hold their word or text in memory, though not a
# second copy joined into the record, and `fib` the word and its swapped copy,
# so a larger request would exhaust memory instead.
MAX_RECORD_CHARS = 1 << 30


def _perm_from_args(args) -> APPerm:
    return APPerm(args.n, args.k, args.p1)


def _cmd_synth(args) -> int:
    perm = _perm_from_args(args)
    _check_int64(perm)  # the overflow message comes before the size refusal
    _check_int64(ap_inverse(perm))
    _check_record_size(perm.n)
    sigma = args.sigma if args.sigma is not None else classify(perm)[1]
    values = [int(v) for v in args.splits.split(",")] if args.splits else []
    result = synth_general(perm, sigma, values)
    parts = [f"case={result.case.value}"]
    if result.s is not None:
        parts.append(f"s={result.s}")
    parts.append(f"p_s={result.p_s}")
    if result.predicted_period is not None:
        parts.append(f"period={result.predicted_period}")
    parts.append(f"bwt={compact_runs(bwt_runs(perm, result.split.boundaries))}")
    # Written field by field, so the text is never copied into a joined record.
    print("text=", result.text, sep="", end=" ")
    print(*parts)
    return 0


def _cmd_classify(args) -> int:
    text = args.text
    if not text:
        print("error: empty text", file=sys.stderr)
        return 2
    perm = progression_of(text)
    if perm is None:
        print("ap=false")
        return 0
    parts = [
        "ap=true",
        f"n={perm.n}",
        f"k={perm.k}",
        f"p1={perm.p1}",
        f"case={classify(perm)[0].value}",
    ]
    period = _smallest_period(text, perm)
    if period is not None:
        parts.append(f"period={period}")
    # A word is Lyndon exactly when its suffix array starts with 1.
    parts.append(f"lyndon={'true' if perm.p1 == 1 else 'false'}")
    if text.count("a") + text.count("b") == len(text):
        parts.append(f"balanced={'true' if balanced_via_slope(text) else 'false'}")
    print(" ".join(parts))
    return 0


def _cmd_christoffel(args) -> int:
    _check_record_size(args.p + args.q)
    word = christoffel_word(args.p, args.q)
    parts = [f"n={len(word)}"]
    if args.p >= 1 and args.q >= 1:
        perm = christoffel_sa_params(args.p, args.q)
        parts += [
            f"k={perm.k}",
            f"p1={perm.p1}",
            f"s={args.p}",
            f"bwt={compact_runs(corpus_mod.predicted_bwt_runs(perm))}",
            f"fact_index={factorization_index(args.p, args.q)}",
        ]
    print("word=", word, sep="", end=" ")
    print(*parts)
    return 0


def _check_record_size(chars: int) -> None:
    if chars > MAX_RECORD_CHARS:
        bound = min(chars, 1 << 64)  # still a lower bound, and within Python's digit limit
        raise ValueError(
            f"record exceeds the limit of {MAX_RECORD_CHARS} characters (at least {bound})"
        )


def _cmd_fib(args) -> int:
    # f_100 is far above the limit, so larger m need not be followed.
    f = fibonacci_lengths(min(max(args.m, 2), 100))
    _check_record_size(f[-1] * (1 + args.m % 2))  # odd m also prints the swapped word
    fw = fibonacci_word(args.m)
    ratio = f[args.m - 3] if args.m >= 3 else 1
    # Written field by field, so the record is never joined in memory.
    out = sys.stdout
    out.write(f"m={args.m} word=")
    out.write(fw.word)
    out.write(f" length={fw.length} ratio={ratio} ap_word=")
    if args.m % 2:
        out.write("swapped swapped=")
        out.write(fw.word.translate(_SWAP))
    else:
        out.write("word")
    out.write("\n")
    return 0


def _cmd_enumerate(args) -> int:
    perm = _perm_from_args(args)
    free = args.sigma - _require_alphabet(perm, args.sigma)[1]
    # C(n + free, free) >= n + free once free >= 1: a cheap bound refuses first.
    _check_record_size(perm.n * (perm.n + free if free else 1))
    count = comb(perm.n + free, free)
    _check_record_size(count * perm.n)
    _rank_alphabet(args.sigma)  # refuses more ranks than the table has before any output
    sys.stdout.write(f"count={count} strings=[")
    yielded = 0
    for yielded, text in enumerate(enumerate_strings(perm, args.sigma), 1):
        sys.stdout.write("," + text if yielded > 1 else text)
    if yielded != count:
        raise RuntimeError(f"enumerated {yielded} strings, expected {count}")
    sys.stdout.write("]\n")
    return 0


def _cmd_corpus_gen(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",")]
    cases = args.cases.split(",")
    manifest = corpus_mod.generate_corpus(
        args.out, sizes, cases, args.seed, threads=args.threads
    )
    for entry in manifest.entries:
        print(corpus_mod._manifest_line(entry))
    print(f"manifest={corpus_mod.MANIFEST_NAME} entries={len(manifest.entries)}")
    return 0


def _cmd_corpus_verify(args) -> int:
    results = corpus_mod.verify_corpus(
        args.manifest,
        directory=args.dir,
        zero_based=args.zero_based,
        threads=args.threads,
        only_id=args.id,
        sa_override=args.sa,
        bwt_override=args.bwt,
    )
    failed = False
    for entry_id, group in groupby(results, key=attrgetter("entry_id")):
        parts = [f"id={entry_id}"]
        for res in group:
            parts.append(f"{res.check}={'pass' if res.ok else 'fail'}")
            if not res.ok:
                parts.append(f"{res.check}_offset={res.first_bad}")
                failed = True
        print(" ".join(parts))
    print(f"result={'fail' if failed else 'pass'}")
    return 1 if failed else 0


# Built on the first call and reused by every later main(); do not change it.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsa",
        description="Synthesize and verify strings with arithmetically progressed suffix arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize the canonical text for (n, k, p1)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--sigma", type=int, default=None, help="alphabet size (default: minimal)")
    p.add_argument("--splits", default="", help="comma-separated free split values")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("classify", help="report whether a text's suffix array progresses arithmetically")
    p.add_argument("text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("christoffel", help="lower Christoffel word and its index shape")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(func=_cmd_christoffel)

    p = sub.add_parser("fib", help="Fibonacci word and its progression ratio")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_fib)

    p = sub.add_parser("enumerate", help="all strings over a given alphabet with this suffix array")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("corpus", help="generate or verify ground-truth corpora")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    g = corpus_sub.add_parser("gen", help="write texts, suffix-array files, and a manifest")
    g.add_argument("--out", required=True)
    g.add_argument("--sizes", required=True, help="comma-separated lengths")
    g.add_argument("--cases", required=True, help=f"comma-separated cases from {','.join(corpus_mod.CASES)}")
    g.add_argument("--seed", default="0")
    g.add_argument("--threads", type=int, default=None)
    g.set_defaults(func=_cmd_corpus_gen)

    v = corpus_sub.add_parser("verify", help="check candidate SA/BWT files against a manifest")
    v.add_argument("manifest")
    v.add_argument("--dir", default=None, help="directory holding the files (default: beside the manifest)")
    v.add_argument("--id", default=None, help="verify a single entry")
    v.add_argument("--sa", default=None, help="candidate suffix-array file (with --id)")
    v.add_argument("--bwt", default=None, help="candidate BWT file (with --id)")
    v.add_argument("--zero-based", action="store_true", help="candidate SA values are 0-based")
    v.add_argument("--threads", type=int, default=None)
    v.set_defaults(func=_cmd_corpus_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorpusFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
