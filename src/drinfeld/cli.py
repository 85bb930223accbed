"""Command-line surface: deterministic JSON-lines reports for point
enumeration, building geometry, reduction, cover membership,
distributions, edge residues, integrated products, and the certification
bundle.

Records go to stdout (or --out); logs go to stderr.  Every record carries
the parameters that produced it, and re-running a command with the same
arguments reproduces the bytes exactly.  Every command, its flags, their
defaults and their caps are declared once in the command table at the end
of this module.  Resource caps are read from DRINFELD_MAX_* environment
variables and are checked, with the cardinality estimates, before any
enumeration starts; --N, which sets the bigint size, has the fixed
ceiling MAX_N, and --p, which the primality test divides by trial, has
the fixed ceiling MAX_P."""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import random
import sys
import time

try:
    import tomllib
except ModuleNotFoundError:  # needs python >= 3.11
    tomllib = None

from . import certify
from .building import Ball, Lattice, PointedSimplex, tree_ball_size
from .certificates import (
    convergence_certificate,
    representative_swap_certificate,
    restriction_certificate,
)
from .covers import (
    SymmetricSpacePoint,
    member_closed_cover,
    member_open_cover,
    reduce_to_building,
)
from .distributions import MassZeroVector, random_family, random_mass_zero
from .intlinalg import gaussian_binomial, is_prime
from .padic import FieldDesc, FieldElem, PrecisionError
from .products import alpha_level, evaluate_product, residue_round_trip
from .projpoints import REP_SYSTEMS, enumerate_points, point_count
from .residues import GLOBAL_SIGN, lambda_edge, oracle_slope_table, sweep_oracle

LOG = logging.getLogger("drinfeld")

DEFAULT_CAPS = {
    "DRINFELD_MAX_LEVEL": 6,
    "DRINFELD_MAX_RADIUS": 6,
    "DRINFELD_MAX_DIM": 4,
    "DRINFELD_MAX_COUNT": 500000,
}

# Ceiling of --N: the commands default to 24 or 40 working digits and the
# largest precision fixed inside the library is 90.
MAX_N = 1000
# Ceiling of --p, checked before the primality test: trial division takes
# about 10 ms to prove 2^31 - 1 prime.
MAX_P = 2**31 - 1


class UsageError(Exception):
    """Bad arguments or configuration: exits with status 2."""


def _cap(name):
    raw = os.environ.get(name)
    if raw is None:
        return DEFAULT_CAPS[name]
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}")


def _check_cap(value, cap_name, what):
    cap = _cap(cap_name)
    if value > cap:
        raise UsageError(
            f"{what} {value} exceeds the cap {cap_name}={cap}; "
            f"raise the environment variable to allow this run"
        )


def _emit(args, records):
    text = "".join(json.dumps(r) + "\n" for r in records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        LOG.info("wrote %d records to %s", len(records), args.out)
    else:
        sys.stdout.write(text)


# --- input parsing -----------------------------------------------------------


def _load_json_arg(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{what} is not valid JSON: {e}")


def _build(flag, make, *args):
    """make(*args), with the TypeError or ValueError by which a library
    constructor refuses its input reported as a usage error of flag."""
    try:
        return make(*args)
    except (TypeError, ValueError) as e:
        raise UsageError(f"{flag}: {e}") from None


def _parse_coord(desc, ob):
    """A coordinate: an integer, a digit list, or {"coeffs": [...], "shift": s}."""
    if isinstance(ob, dict):
        if "coeffs" not in ob:
            raise TypeError('a coordinate object needs "coeffs"')
        return FieldElem.from_coeffs(desc, ob["coeffs"], ob.get("shift", 0))
    if isinstance(ob, list):
        return FieldElem.from_coeffs(desc, ob)
    return FieldElem.from_int(desc, ob)


def _parse_point(args):
    desc = _build("--p/--e/--f/--N", FieldDesc, args.p, args.e, args.f, args.N)
    parsed = _load_json_arg(args.coords, "--coords")
    if not isinstance(parsed, list) or len(parsed) < 2:
        raise UsageError("--coords must be a JSON list of at least two coordinates")
    return SymmetricSpacePoint(
        [_build("--coords", _parse_coord, desc, c) for c in parsed]
    )


def _parse_chain(p, text, what, edge=False):
    """A pointed chain: a JSON list (or {"chain": [...]}) of lattices, each a
    row matrix or {"hnf": rows, "scale": s}; of exactly two with edge."""
    obj = _load_json_arg(text, what)
    if isinstance(obj, dict):
        obj = obj.get("chain", obj)
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{what} must be a JSON chain of lattices")
    if edge and len(obj) != 2:
        raise UsageError(f"{what} must be a chain of two lattices")
    return _build(what, lambda: PointedSimplex.from_chain([
        Lattice.from_rows(p, item.get("hnf"), item.get("scale", 0))
        if isinstance(item, dict) else Lattice.from_rows(p, item)
        for item in obj
    ]))


def _read_distribution(args):
    """The distribution text of --dist or of the --in file, and its flag."""
    if args.dist:
        return args.dist, "--dist"
    if not args.infile:
        raise UsageError("provide the distribution with --dist or --in")
    try:
        with open(args.infile) as fh:
            return fh.read(), "--in"
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --in file {args.infile}") from exc


def _parse_distribution(p, d, text, what):
    return _build(what, MassZeroVector.from_json, p, d, _load_json_arg(text, what))


def _load_distribution(args):
    return _parse_distribution(args.p, args.d, *_read_distribution(args))


def _check_dimension(mu, dim, what):
    if mu.dim != dim:
        raise UsageError(
            f"the distribution has dimension {mu.dim} but {what} has "
            f"dimension {dim}"
        )


# --- command handlers --------------------------------------------------------


def _check_point_estimate(p, n, d):
    """|P^d(Z/p^n)| against DRINFELD_MAX_COUNT, before anything enumerates it."""
    _check_cap(point_count(p, n, d), "DRINFELD_MAX_COUNT", "estimated point count")


def cmd_points(args):
    _check_point_estimate(args.p, args.n, args.d)
    records = [
        {"p": args.p, "d": args.d, "level": pt.level, "rep": list(pt.rep)}
        for pt in enumerate_points(args.p, args.n, args.d)
    ]
    _emit(args, records)
    return 0


def _degree(p, n):
    """Neighbor count of a vertex of n x n rows: the proper nonzero
    subspaces of F_p^n."""
    return sum(gaussian_binomial(n, k, p) for k in range(1, n))


def _check_ball_estimate(p, d, radius):
    if d == 1:
        estimate = tree_ball_size(p, radius)
    else:
        degree = _degree(p, d + 1)
        estimate = sum(degree**r for r in range(radius + 1))
    _check_cap(estimate, "DRINFELD_MAX_COUNT", "estimated vertex count")


def cmd_building_ball(args):
    _check_ball_estimate(args.p, args.d, args.radius)
    ball = Ball(Lattice.standard(args.p, args.d), args.radius)
    records = [
        {"p": args.p, "d": args.d, "radius": args.radius, **rec}
        for rec in ball.to_json()
    ]
    _emit(args, records)
    if args.dot:
        names = {
            lat: ";".join(",".join(str(c) for c in row) for row in lat.rows)
            for lat in ball.vertices
        }
        lines = ["graph ball {"]
        for a, b in ball.edges():
            lines.append(f'  "{names[a]}" -- "{names[b]}";')
        lines.append("}")
        with open(args.dot, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        LOG.info("wrote DOT graph to %s", args.dot)
    return 0


def cmd_building_neighbors(args):
    rows = _load_json_arg(args.vertex, "--vertex")
    vertex = _build("--vertex", Lattice.from_rows, args.p, rows).homothety_rep()
    _check_cap(_degree(args.p, vertex.dim), "DRINFELD_MAX_COUNT",
               "neighbor count")
    records = [
        {
            "p": args.p,
            "vertex_hnf": [list(r) for r in vertex.rows],
            "neighbor_hnf": [list(r) for r in nb.rows],
        }
        for nb in vertex.neighbors()
    ]
    _emit(args, records)
    return 0


def cmd_building_type(args):
    sigma = _parse_chain(args.p, args.chain, "--chain")
    _emit(args, [{
        "p": args.p,
        "chain": sigma.to_json()["chain"],
        "type_vector": list(sigma.type_vector()),
        "boundary_indices": list(sigma.boundary_indices()),
        "det_exponent": sigma.lattices[0].det_exponent,
    }])
    return 0


def cmd_tau(args):
    z = _parse_point(args)
    bp = reduce_to_building(z, level=args.level)
    _emit(args, [{"point": z.to_json(), **bp.to_json()}])
    return 0


def cmd_cover(args):
    z = _parse_point(args)
    _emit(args, [{
        "point": z.to_json(),
        "n": args.n,
        "member_open": member_open_cover(z, args.n),
        "member_closed": member_closed_cover(z, args.n),
    }])
    return 0


def cmd_dist_random(args):
    _check_point_estimate(args.p, args.n, args.d)
    rng = random.Random(args.seed)
    mu = random_mass_zero(args.p, args.n, args.d, rng,
                          size=args.size, coeff_bound=args.coeff_bound)
    _emit(args, [{"p": args.p, "d": args.d, "seed": args.seed, **mu.to_json()}])
    return 0


def cmd_dist_push(args):
    mu = _load_distribution(args)
    if not 1 <= args.to <= mu.level:
        raise UsageError(f"--to must be between 1 and the level {mu.level}")
    pushed = mu.pushforward(args.to)
    _emit(args, [{"p": args.p, "d": args.d, **pushed.to_json()}])
    return 0


def cmd_dist_check(args):
    source = _read_distribution(args)
    try:
        mu = _parse_distribution(args.p, args.d, *source)
    except UsageError as e:
        _emit(args, [{"p": args.p, "d": args.d, "mass_zero": False,
                      "error": str(e)}])
        return 1
    _emit(args, [{
        "p": args.p, "d": args.d, "mass_zero": True,
        "level": mu.level, "support_size": len(mu.support()),
    }])
    return 0


def cmd_lambda(args):
    sigma = _parse_chain(args.p, args.edge, "--edge", edge=True)
    pair = _load_json_arg(args.pair, "--pair")
    if not isinstance(pair, list) or len(pair) != 2:
        raise UsageError("--pair must be a JSON list of two covectors")
    record = {
        "edge": sigma.to_json()["chain"],
        "pair": pair,
        "value": _build("--pair", lambda_edge, sigma, *pair),
    }
    if args.oracle:
        a, b = map(tuple, pair)
        rng = random.Random(args.seed)
        table = oracle_slope_table(sigma, [a, b], e_oracle=args.e_oracle,
                                   rng=rng, check_membership=False)
        record["oracle_value"] = table[b] - table[a]
        record["agrees"] = record["oracle_value"] == record["value"]
    _emit(args, [record])
    if args.oracle and not record["agrees"]:
        return 1
    return 0


def cmd_sweep_lambda(args):
    _check_ball_estimate(args.p, args.d, args.radius)
    rng = random.Random(args.seed)
    classes = enumerate_points(args.p, 1, args.d)
    edges = Ball(Lattice.standard(args.p, args.d), args.radius).pointed_edges()
    records = [
        {
            "edge": sigma.to_json()["chain"],
            "slopes": {",".join(map(str, x.rep)): slopes[x] for x in classes},
            "agrees_with_oracle": agrees,
        }
        for sigma, slopes, agrees in sweep_oracle(
            edges, classes, rng, e_oracle=args.e_oracle
        )
    ]
    disagreements = sum(not r["agrees_with_oracle"] for r in records)
    records.append({
        "p": args.p, "d": args.d, "radius": args.radius,
        "edges": len(edges), "disagreements": disagreements,
    })
    _emit(args, records)
    return 1 if disagreements else 0


def cmd_alpha_eval(args):
    mu = _load_distribution(args)
    z = _parse_point(args)
    _check_dimension(mu, z.dim, "the point")
    u = alpha_level(mu, rep_system=args.rep_system)
    value = evaluate_product(u, z, certified_level=args.certified_level)
    _emit(args, [{
        "product": u.to_json(),
        "point": z.to_json(),
        "value": value.to_json(),
    }])
    return 0


def cmd_alpha_converge(args):
    if not args.i < args.n < args.nprime:
        raise UsageError("need --i < --n < --nprime")
    _check_point_estimate(args.p, args.nprime, 1)
    rng = random.Random(args.seed)
    _, z1, z2 = _build("--N", certify._dual_pair, args.p, args.N)
    records = []
    for index in range(args.families):
        fam = random_family(args.p, args.nprime, 1, rng)
        for rec in (
            convergence_certificate(fam, z1, z2, args.i, args.n, args.nprime),
            representative_swap_certificate(fam, z1, z2, args.i, args.n),
            restriction_certificate(fam, z1, z2, args.i, args.n, args.nprime),
        ):
            rec["family_index"] = index
            records.append(rec)
    _emit(args, records)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_alpha_residue(args):
    mu = _load_distribution(args)
    sigma = _parse_chain(args.p, args.edge, "--edge", edge=True)
    _check_dimension(mu, sigma.dim, "the edge")
    left, right = residue_round_trip(mu, sigma,
                                     require_local=not args.allow_shallow)
    _emit(args, [{
        "edge": sigma.to_json()["chain"],
        "dlog_residue": left,
        "pairing": right,
        "global_sign": GLOBAL_SIGN,
        "agree": left == right,
    }])
    return 0 if left == right else 1


def cmd_alpha_equivariance(args):
    if not args.i < args.n:
        raise UsageError("need --i < --n")
    _check_point_estimate(args.p, args.n, 1)
    rng = random.Random(args.seed)
    _, z1, z2 = _build("--N", certify._dual_pair, args.p, args.N)
    records = []
    draws = certify.translate_certificates(args.p, 1, args.n, args.i, z1, z2,
                                           args.translates, rng)
    for index, (_, rec) in enumerate(draws):
        rec["translate_index"] = index
        records.append(rec)
    _emit(args, records)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_certify_all(args):
    started = time.monotonic()
    try:
        bundle = certify.run_all(
            ps=None if args.p is None else {args.p},
            ds=None if args.d is None else {args.d},
            seed=args.seed,
        )
    except certify.EmptySelection as exc:
        raise UsageError(str(exc)) from exc
    elapsed = time.monotonic() - started
    for rec in bundle["criteria"]:
        LOG.info("criterion %2d %-32s %s", rec["criterion"], rec["name"],
                 {True: "PASS", False: "FAIL", None: "SKIP"}[rec["pass"]])
    LOG.info("bundle finished in %.1fs: %s", elapsed,
             "all PASS" if bundle["all_pass"] else "FAILURES PRESENT")
    text = json.dumps(bundle, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if bundle["all_pass"] else 1


# --- command table -----------------------------------------------------------

# Every flag once: its add_argument keywords.  Each command below picks its
# flags from here and gives each a default, or REQUIRED.
FLAGS = {
    "config": {"help": "INI (or TOML) file with a [drinfeld] section "
               "mirroring the flags"},
    "out": {"help": "write records to this file instead of stdout"},
    "verbose": {"action": "store_true", "help": "log progress to stderr"},
    "p": {"type": int},
    "d": {"type": int},
    "n": {"type": int},
    "radius": {"type": int},
    "dot": {"help": "also write a DOT graph to this file"},
    "vertex": {"help": "JSON row matrix spanning the lattice"},
    "chain": {"help": "JSON chain of lattices"},
    "coords": {"help": "JSON list of coordinates; each is an integer, a "
               "digit list, or {coeffs, shift}"},
    "e": {"type": int, "help": "ramification index"},
    "f": {"type": int, "help": "residue degree"},
    "N": {"type": int, "help": "working digits"},
    "level": {"type": int, "help": "certify at this level instead of "
              "searching"},
    "seed": {"type": int},
    "size": {"type": int},
    "coeff-bound": {"type": int},
    "dist": {"help": "distribution JSON literal"},
    "in": {"dest": "infile", "help": "distribution JSON file"},
    "to": {"type": int},
    "edge": {"help": "JSON chain of two lattices"},
    "pair": {"help": "JSON list of two integer covector lifts"},
    "oracle": {"action": "store_true",
               "help": "cross-check against the sampling oracle"},
    "e-oracle": {"type": int},
    "certified-level": {"type": int},
    "rep-system": {"choices": REP_SYSTEMS},
    "i": {"type": int},
    "nprime": {"type": int},
    "families": {"type": int},
    "translates": {"type": int},
    "allow-shallow": {"action": "store_true",
                      "help": "skip the locality level guard"},
}

REQUIRED = object()
COMMON = {"config": None, "out": None, "verbose": False}
POINT = {"coords": REQUIRED, "e": 1, "f": 1, "N": 24}
DIST = {"dist": None, "in": None}

GROUPS = {
    "building": "lattice-building geometry",
    "dist": "mass-zero distributions",
    "alpha": "integrated products",
}

COMMANDS = {
    ("points",): (cmd_points, "enumerate projective points over Z/p^n",
                  {"p": REQUIRED, "d": REQUIRED, "n": REQUIRED}),
    ("building", "ball"): (
        cmd_building_ball, "breadth-first ball around the standard vertex",
        {"p": REQUIRED, "d": REQUIRED, "radius": REQUIRED, "dot": None}),
    ("building", "neighbors"): (cmd_building_neighbors,
                                "neighbor classes of a vertex",
                                {"p": REQUIRED, "vertex": REQUIRED}),
    ("building", "type"): (cmd_building_type, "type data of a pointed chain",
                           {"p": REQUIRED, "chain": REQUIRED}),
    ("tau",): (cmd_tau, "reduce a point to the building",
               {"p": REQUIRED, **POINT, "level": None}),
    ("cover",): (cmd_cover, "open/closed cover membership of a point",
                 {"p": REQUIRED, **POINT, "n": REQUIRED}),
    ("dist", "random"): (cmd_dist_random, "sample a random mass-zero vector",
                         {"p": REQUIRED, "d": REQUIRED, "n": REQUIRED,
                          "seed": 0, "size": 4, "coeff-bound": 5}),
    ("dist", "push"): (cmd_dist_push, "pushforward to a lower level",
                       {"p": REQUIRED, "d": REQUIRED, **DIST, "to": REQUIRED}),
    ("dist", "check"): (cmd_dist_check, "validate a distribution record",
                        {"p": REQUIRED, "d": REQUIRED, **DIST}),
    ("lambda",): (cmd_lambda, "residue of one covector pair on one edge",
                  {"p": REQUIRED, "edge": REQUIRED, "pair": REQUIRED,
                   "oracle": False, "e-oracle": 3, "seed": 0}),
    ("sweep-lambda",): (cmd_sweep_lambda, "sweep all residues over a ball "
                        "against the sampling oracle",
                        {"p": REQUIRED, "d": REQUIRED, "radius": 2,
                         "e-oracle": 3, "seed": 0}),
    ("alpha", "eval"): (cmd_alpha_eval,
                        "evaluate the integrated product at a point",
                        {"p": REQUIRED, "d": REQUIRED, **DIST, **POINT,
                         "certified-level": None, "rep-system": "lex"}),
    ("alpha", "converge"): (cmd_alpha_converge, "refinement, swap, and "
                            "restriction certificates for random families",
                            {"p": REQUIRED, "i": 1, "n": 2, "nprime": 3,
                             "families": 5, "seed": 0, "N": 40}),
    ("alpha", "residue"): (cmd_alpha_residue,
                           "dlog residue versus the slope pairing",
                           {"p": REQUIRED, "d": REQUIRED, **DIST,
                            "edge": REQUIRED, "allow-shallow": False}),
    ("alpha", "equivariance"): (cmd_alpha_equivariance, "equivariance "
                                "certificates for random translates",
                                {"p": REQUIRED, "i": 1, "n": 2,
                                 "translates": 5, "seed": 0, "N": 40}),
    ("certify-all",): (cmd_certify_all, "run the full certification bundle "
                       "(--p and --d restrict it)",
                       {"p": None, "d": None, "seed": 0}),
}

# Flags that size the work: the least value each takes, and the environment
# variable that caps it (None: a floor only).
CAPS = {
    "n": (1, "DRINFELD_MAX_LEVEL"),
    "nprime": (1, "DRINFELD_MAX_LEVEL"),
    "level": (1, "DRINFELD_MAX_LEVEL"),
    "i": (1, "DRINFELD_MAX_LEVEL"),
    "certified-level": (1, "DRINFELD_MAX_LEVEL"),
    "d": (0, "DRINFELD_MAX_DIM"),
    "radius": (0, "DRINFELD_MAX_RADIUS"),
    "size": (0, "DRINFELD_MAX_COUNT"),
    "coeff-bound": (0, None),
    "families": (0, "DRINFELD_MAX_COUNT"),
    "translates": (0, "DRINFELD_MAX_COUNT"),
    "e-oracle": (3, None),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="Finite-level models of invertible functions on the "
        "p-adic symmetric space: enumeration, reduction, residues, and "
        "certified congruences.",
    )
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (handler, help_text, flags) in COMMANDS.items():
        group = words[:-1]
        if group not in subs:
            sub = subs[()].add_parser(group[0], help=GROUPS[group[0]])
            subs[group] = sub.add_subparsers(dest="subcommand", required=True)
        sp = subs[group].add_parser(words[-1], help=help_text)
        for flag, default in {**COMMON, **flags}.items():
            sp.add_argument(f"--{flag}", **FLAGS[flag],
                            default=None if default is REQUIRED else default)
        sp.set_defaults(handler=handler, words=words)
    return parser


def _check_args(args):
    """The checks of single flags, before any work: required flags, --p
    against MAX_P and then prime, --N against MAX_N, and every flag of
    CAPS against its floor and its cap."""
    for flag, default in COMMANDS[args.words][2].items():
        dest = FLAGS[flag].get("dest", flag.replace("-", "_"))
        if default is REQUIRED and getattr(args, dest) is None:
            raise UsageError(f"missing --{flag}")
    if args.p is not None and args.p > MAX_P:
        raise UsageError(f"--p {args.p} exceeds the ceiling MAX_P={MAX_P}")
    if args.p is not None and not is_prime(args.p):
        raise UsageError(f"--p must be a prime number, got {args.p}")
    if getattr(args, "N", None) is not None and args.N > MAX_N:
        raise UsageError(f"--N {args.N} exceeds the ceiling MAX_N={MAX_N}")
    for flag, (least, cap_name) in CAPS.items():
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None and value < least:
            raise UsageError(f"--{flag} must be at least {least}, got {value}")
        if value is not None and cap_name:
            _check_cap(value, cap_name, f"--{flag}")


def _read_config(path):
    if path.endswith(".toml") and tomllib is None:
        raise UsageError("TOML configs need python >= 3.11; use INI here")
    # bad TOML and undecodable text are ValueErrors, and an INI file
    # without a section header is a configparser.Error
    try:
        if path.endswith(".toml"):
            with open(path, "rb") as fh:
                data = tomllib.load(fh)
            return data.get("drinfeld", data)
        ini = configparser.ConfigParser()
        ini.optionxform = str  # keys are flag names, and --N is not --n
        with open(path) as fh:
            ini.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}") from exc
    except (ValueError, configparser.Error) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from exc
    if ini.has_section("drinfeld"):
        return dict(ini.items("drinfeld"))
    return dict(ini.defaults())


def _config_argv(args):
    """The config keys that name a flag of this command, as argv tokens.
    A switch reads INI booleans; other values go to argparse as text (TOML
    values that are not strings as JSON), so type and choices apply."""
    flags = {**COMMON, **COMMANDS[args.words][2]}
    tokens = []
    for key, value in _read_config(args.config).items():
        flag = key.replace("_", "-")
        if flag not in flags or flag == "config":
            continue
        if FLAGS[flag].get("action") == "store_true":
            states = configparser.ConfigParser.BOOLEAN_STATES
            on = value if isinstance(value, bool) else states.get(str(value).lower())
            if on is None:
                raise UsageError(f"config key {key} must be a boolean")
            if on:
                tokens.append(f"--{flag}")
        else:
            text = value if isinstance(value, str) else json.dumps(value)
            tokens.append(f"--{flag}={text}")
    return tokens


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config goes right after the command words, so a flag on
            # the command line comes later and wins
            at = len(args.words)
            args = parser.parse_args(argv[:at] + _config_argv(args) + argv[at:])
        _check_args(args)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(message)s",
        )
        return args.handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except PrecisionError as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
