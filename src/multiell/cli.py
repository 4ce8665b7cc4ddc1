"""Command-line interface: list, verify, sweep, selftest.

Exit codes: 0 on success/pass, 2 when a verification or selftest check
fails, 3 on domain or convergence errors.  An optional key=value config
file (keys: digits, tol, level_cap) is read from the path in the
MULTIELL_CONFIG environment variable; command-line flags win over it.
"""

from __future__ import annotations

import argparse
import os
import sys

import mpmath

from .errors import DomainError, IntegrandFailureError, NonConvergenceError
from .identities import export, get_identity, list_identities, sweep, verify
from .precision import PrecisionContext
from .quadrature import MAX_LEVEL
from .selftest import run_selftest

CONFIG_ENV = "MULTIELL_CONFIG"


def _tolerance(text):
    mpmath.mpf(text)  # raises unless PrecisionContext can read it; kept as text
    return text


# setting -> (parser of its config value, default)
_SETTINGS = {"digits": (int, 50), "tol": (_tolerance, None), "level_cap": (int, MAX_LEVEL)}


def _load_config():
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    config = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SETTINGS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                config[key] = _SETTINGS[key][0](value)
            except ValueError:
                raise DomainError(f"{path}:{lineno}: malformed {key} value {value!r}") from None
    return config


def _setting(args, config, key):
    """The command-line flag if given, else the config file's value, else the default."""
    value = getattr(args, key)
    return config.get(key, _SETTINGS[key][1]) if value is None else value


def _context(args, config):
    return PrecisionContext(_setting(args, config, "digits"),
                            pass_tol=_setting(args, config, "tol"))


def _parse_pairs(pairs, what):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise DomainError(f"expected name=value for {what}, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _emit(reports, args, ctx):
    if args.format == "text":
        lines = []
        for r in reports:
            params = ", ".join(f"{k}={ctx.mp.nstr(v, 8) if not isinstance(v, int) else v}"
                               for k, v in r.params.items())
            lines.append(f"{r.id}  {params}".rstrip())
            lines.append(f"  lhs     = {ctx.mp.nstr(r.lhs_value, ctx.digits)}")
            lines.append(f"  rhs     = {ctx.mp.nstr(r.rhs_value, ctx.digits)}")
            lines.append(f"  abs err = {ctx.mp.nstr(r.abs_err, 3)}   rel err = {ctx.mp.nstr(r.rel_err, 3)}")
            lines.append(f"  digits  = {r.digits_used}   time = {r.wall_time:.2f}s")
            lines.append(f"  {'PASSED' if r.passed else 'FAILED'}")
        payload = ("\n".join(lines) + "\n").encode()
    else:
        payload = export(reports, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _cmd_list(args, config):
    for rec in list_identities():
        print(rec.summary())
    return 0


def _cmd_verify(args, config):
    ctx = _context(args, config)
    params = _parse_pairs(args.param, "--param")
    report = verify(args.identity, params, ctx, max_level=_setting(args, config, "level_cap"))
    _emit([report], args, ctx)
    return 0 if report.passed else 2


def _cmd_sweep(args, config):
    ctx = _context(args, config)
    try:
        lo, hi, steps = args.range.split(":")
        steps = int(steps)
    except ValueError:
        raise DomainError(f"--range must be lo:hi:steps, got {args.range!r}")
    fixed = _parse_pairs(args.fixed, "--fixed")
    reports = sweep(args.identity, args.param, lo, hi, steps, ctx,
                    fixed=fixed, max_level=_setting(args, config, "level_cap"))
    _emit(reports, args, ctx)
    return 0 if all(r.passed for r in reports) else 2


def _cmd_selftest(args, config):
    results = run_selftest(digits=_setting(args, config, "digits"), quick=args.quick)
    return 0 if all(r.passed for r in results) else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multiell",
        description="Verify multiple elliptic integral identities at high precision.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the identity catalog")

    # flags shared by verify and sweep
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None)
    common.add_argument("--tol", default=None, help="override the pass tolerance")
    common.add_argument("--level-cap", dest="level_cap", type=int, default=None)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None, help="write output to a file")

    p_verify = sub.add_parser("verify", parents=[common], help="verify one identity")
    p_verify.add_argument("identity", help="catalog id, e.g. I8 or I1")
    p_verify.add_argument("--param", action="append", metavar="NAME=VALUE",
                          help="identity parameter (repeatable)")

    p_sweep = sub.add_parser("sweep", parents=[common], help="verify along a parameter grid")
    p_sweep.add_argument("identity")
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--range", required=True, metavar="LO:HI:STEPS")
    p_sweep.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                         help="fix another parameter (repeatable)")

    p_self = sub.add_parser("selftest", help="run the property suites")
    p_self.add_argument("--quick", action="store_true",
                        help="reduced precision (30 digits)")
    p_self.add_argument("--digits", type=int, default=None)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config()
        return _COMMANDS[args.command](args, config)
    except (DomainError, NonConvergenceError, IntegrandFailureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
