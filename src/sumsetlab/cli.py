"""Command-line front end.

Subcommands: sumset, cn, audit, verify, enumerate. Exit codes: 0 success or
clean result, 1 mathematical failure, 2 input parse error (a modulus above
MAX_MODULUS among them), 3 hypothesis violation, 4 resource guard tripped
(a sweep above its ceiling, memory exhausted, or a sweep process that ended
without sending its results, as one killed by the system does). A reader
that closes standard output early ends the run with 0 and no message.
Structured output (--format records) is one self-describing record per line
so sweeps can stream; human output formats the same data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager

from .audit import audit_sigma_chain
from .errors import (
    CeilingExceeded,
    CompositeModulus,
    HypothesisViolation,
    InvalidArgument,
    NotVanishing,
    ShardLost,
    SumsetLabError,
)
from .field import Prime
from .nullstellensatz import cn_decompose, verify_witness
from .poly import BiPoly, build_locus_poly
from .sets import FpSet, classify_pair, restricted_sumset, sumset
from .sweep import (
    report_to_json,
    verify_bounds,
    verify_karolyi_inverse,
    verify_main_theorem,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_GUARD = 4

# the largest modulus accepted, checked before the primality test: trial
# division then takes under 25,000 steps, and the polynomial kernels are
# exact up to here. sumset, cn and audit run at this cap (a sweep stops at
# its ceiling first); only the set masks cost memory in proportion to p,
# p bits each
MAX_MODULUS = 2**31 - 1


class _ParseFailure(Exception):
    pass


def _parse_prime(value: int) -> Prime:
    if value > MAX_MODULUS:
        raise _ParseFailure(f"modulus {value} above the supported maximum {MAX_MODULUS}")
    try:
        return Prime(value)
    except CompositeModulus as exc:
        raise _ParseFailure(str(exc)) from None


def _parse_set(text: str, prime: Prime) -> FpSet:
    residues = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise _ParseFailure(f"malformed set literal {text!r}")
        try:
            residues.append(int(part))
        except ValueError:
            raise _ParseFailure(f"malformed set literal {text!r}") from None
    p = prime.value
    reduced = []
    for r in residues:
        if not 0 <= r < p:
            print(
                f"warning: residue {r} reduced to {r % p} (mod {p})", file=sys.stderr
            )
        reduced.append(r % p)
    if len(set(reduced)) != len(reduced):
        print(f"warning: duplicate residues dropped from {text!r}", file=sys.stderr)
    return FpSet.of(prime, reduced)


@contextmanager
def _output(path: str | None):
    # the file named by --out, or stdout when none is given
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as handle:
        yield handle


def cmd_sumset(args) -> int:
    prime = _parse_prime(args.prime)
    a = _parse_set(args.set_a, prime)
    b = _parse_set(args.set_b, prime)
    s = sumset(a, b)
    r = restricted_sumset(a, b)
    cls = classify_pair(a, b)
    if args.format == "records":
        record = {
            "type": "sumset",
            "p": prime.value,
            "a": a.literal(),
            "b": b.literal(),
            "sumset": s.literal(),
            "sumset_size": len(s),
            "restricted": r.literal(),
            "restricted_size": len(r),
            "labels": sorted(cls.labels),
        }
        print(json.dumps(record))
    else:
        print(f"p = {prime.value}")
        print(f"A ({len(a)}): {a.literal()}")
        print(f"B ({len(b)}): {b.literal()}")
        print(f"A+B  ({len(s)}): {s.literal()}")
        print(f"A∔B ({len(r)}): {r.literal()}")
        print(f"labels: {', '.join(sorted(cls.labels)) or '(none)'}")
    return EXIT_OK


def cmd_cn(args) -> int:
    prime = _parse_prime(args.prime)
    a = _parse_set(args.set_a, prime)
    b = _parse_set(args.set_b, prime)
    if args.f_file:
        try:
            if args.f_file == "-":
                text = sys.stdin.read()
            else:
                with open(args.f_file) as handle:
                    text = handle.read()
            f = BiPoly.from_text(prime, text)
        except (OSError, ValueError) as exc:
            raise _ParseFailure(f"cannot read polynomial: {exc}") from None
    else:
        f = build_locus_poly(restricted_sumset(a, b))
    try:
        witness = cn_decompose(f, a, b)
    except NotVanishing as exc:
        x, y = exc.point
        print(f"no witness: f({x}, {y}) = {exc.value} != 0", file=sys.stderr)
        return EXIT_MATH
    verdict = verify_witness(f, witness)
    with _output(args.out) as out:
        print(f"# f: degree {f.total_degree} over p={prime.value}", file=out)
        print("h_A:", file=out)
        print(witness.h_a.to_text(), file=out)
        print("h_B:", file=out)
        print(witness.h_b.to_text(), file=out)
        da = witness.h_a.total_degree
        db = witness.h_b.total_degree
        print(f"deg(h_A) = {da} (bound {witness.degree_bound_a})", file=out)
        print(f"deg(h_B) = {db} (bound {witness.degree_bound_b})", file=out)
        print(f"verdict: {'valid' if verdict.ok else 'INVALID: ' + verdict.failure}", file=out)
    return EXIT_OK if verdict.ok else EXIT_MATH


def cmd_audit(args) -> int:
    prime = _parse_prime(args.prime)
    a = _parse_set(args.set_a, prime)
    b = _parse_set(args.set_b, prime)
    trace = audit_sigma_chain(a, b)
    with _output(args.out) as out:
        if trace.warning:
            print(f"# warning: {trace.warning}", file=out)
        for line in trace.iter_lines():
            print(line, file=out)
        if args.show_closed_forms:
            for step in trace.steps:
                if step.parity == "even":
                    print(
                        f"closed-form step={step.index} denominator: "
                        f"direct={step.denominator} "
                        f"closed={step.denominator_closed_form}",
                        file=out,
                    )
                else:
                    agrees = step.pivot_closed_form_agrees
                    print(
                        f"closed-form step={step.index} pivot: "
                        f"direct={step.pivot} closed={step.pivot_closed_form} "
                        f"agrees={'n/a' if agrees is None else str(agrees).lower()}",
                        file=out,
                    )
        failed = trace.failed_records()
        print(
            f"# trace: {'clean' if trace.clean else f'{len(failed)} failed checks'}; "
            f"A == B: {str(trace.sets_equal).lower()}",
            file=out,
        )
    return EXIT_OK if trace.clean else EXIT_MATH


def cmd_verify(args) -> int:
    prime = _parse_prime(args.prime)
    if args.theorem == "bounds":
        # the bounds sweep covers every pair of subsets at any size
        for flag, value in (("-k", args.k), ("--target", args.target)):
            if value is not None:
                raise _ParseFailure(f"{flag} does not apply to the bounds sweep")
    out_path = args.out
    if out_path is None:
        kpart = f"-k{args.k}" if args.theorem != "bounds" else ""
        out_path = f"sweep-{args.theorem}-p{prime.value}{kpart}.json"
    # fail before a long sweep, without opening (and so truncating) the report
    out_dir = os.path.dirname(out_path) or "."
    if not os.path.isdir(out_dir):
        raise _ParseFailure(f"report directory {out_dir!r} does not exist")
    if os.path.isdir(out_path):
        raise _ParseFailure(f"report path {out_path!r} is a directory")
    # each sweep applies its own default ceiling unless --ceiling is given
    guard = {} if args.ceiling is None else {"ceiling": args.ceiling}
    started = time.perf_counter()
    if args.theorem == "bounds":
        report = verify_bounds(prime, workers=args.workers, **guard)
        summary = (
            f"bounds p={report.p}: {len(report.violations)} violations "
            f"over {report.pairs_scanned} ordered pairs "
            f"[{time.perf_counter() - started:.2f}s]"
        )
    else:
        if args.k is None:
            raise _ParseFailure("-k is required for this sweep")
        runner = verify_main_theorem if args.theorem == "main" else verify_karolyi_inverse
        report = runner(
            prime,
            args.k,
            workers=args.workers,
            target=args.target,
            **guard,
        )
        name = "counterexamples" if args.theorem == "main" else "exceptions"
        if report.expectation_checked:
            qualifier = ""
        elif all(report.hypothesis_flags.values()):
            qualifier = " (non-default target; recorded only)"
        else:
            qualifier = " (hypotheses unmet; recorded only)"
        summary = (
            f"{args.theorem} p={report.p} k={report.k}: "
            f"{len(report.counterexamples)} {name}{qualifier}; "
            f"{len(report.extremal_pairs)} extremal orbits, "
            f"{report.pairs_scanned} ordered pairs scanned "
            f"[{time.perf_counter() - started:.2f}s]"
        )
    with open(out_path, "w") as handle:
        handle.write(report_to_json(report))
    if args.format == "records":
        for rec in report.extremal_pairs:
            print(json.dumps({"type": "extremal", **rec.to_dict()}))
        for rec in report.counterexamples:
            print(json.dumps({"type": "counterexample", **rec.to_dict()}))
        for v in report.violations:
            print(json.dumps({"type": "violation", **v}))
    print(summary)
    print(f"report written to {out_path}")
    return EXIT_OK if report.passed else EXIT_MATH


def cmd_enumerate(args) -> int:
    from .sweep import enumerate_k_subsets

    prime = _parse_prime(args.prime)
    if args.k is None:
        raise _ParseFailure("-k is required for enumerate")
    if args.limit is not None and args.limit < 0:
        raise InvalidArgument(f"limit must be nonnegative, got {args.limit}")
    # the generator runs its argument guards on the first step, even at --limit 0
    for count, s in enumerate(enumerate_k_subsets(prime, args.k, start=args.start)):
        if count == args.limit:
            break
        print(s.literal())
    return EXIT_OK


# built on the first main call, not at import, and then reused: each build
# leaves a few hundred objects of cyclic garbage until a full collection
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Exact sumset arithmetic and exhaustive verification over Z/pZ",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, sets=False, k=False):
        sp.add_argument("-p", "--prime", type=int, required=True, help="prime modulus")
        if sets:
            sp.add_argument("-A", dest="set_a", required=True, help="set literal, e.g. 0,1,2")
            sp.add_argument("-B", dest="set_b", required=True, help="set literal")
        if k:
            sp.add_argument("-k", type=int, default=None, help="subset size")
        sp.add_argument(
            "--format", choices=("human", "records"), default="human",
            help="human tables or one structured record per line",
        )

    sp = sub.add_parser("sumset", help="print A+B and the restricted sumset with labels")
    add_common(sp, sets=True)
    sp.set_defaults(func=cmd_sumset)

    sp = sub.add_parser("cn", help="canonical grid-vanishing witness for f on A x B")
    add_common(sp, sets=True)
    sp.add_argument("--f", dest="f_file", default=None,
                    help="polynomial file ('c:i,j' lines; '-' for stdin); "
                         "defaults to the locus polynomial of the restricted sumset")
    sp.add_argument("--out", default=None, help="write the witness to a file")
    sp.set_defaults(func=cmd_cn)

    sp = sub.add_parser("audit", help="replay the coefficient-identity chain on one pair")
    add_common(sp, sets=True)
    sp.add_argument("--show-closed-forms", action="store_true",
                    help="print direct vs closed-form values side by side")
    sp.add_argument("--out", default=None, help="write the trace to a file")
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("verify", help="run an exhaustive sweep and write a report")
    sp.add_argument("theorem", choices=("main", "karolyi", "bounds"))
    add_common(sp, k=True)
    sp.add_argument("--target", type=int, default=None,
                    help="override the extremal restricted-sumset size")
    sp.add_argument("--workers", type=int, default=1, help="processes that run shards, this one included")
    sp.add_argument("--out", default=None, help="report file path")
    sp.add_argument("--ceiling", type=int, default=None,
                    help="exhaustive ceiling override for p")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("enumerate", help="stream k-subsets in lexicographic order")
    add_common(sp, k=True)
    sp.add_argument("--start", type=int, default=0, help="restart index")
    sp.add_argument("--limit", type=int, default=None, help="stop after this many sets")
    sp.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed standard output early shows here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader took what it wanted: send the rest of the output to
        # devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (_ParseFailure, InvalidArgument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except CeilingExceeded as exc:
        print(f"guard: {exc} (raise with --ceiling)", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("guard: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except ShardLost as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except SumsetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
