"""Command-line surface: deterministic JSON-lines reports for point
enumeration, building geometry, reduction, cover membership,
distributions, edge residues, integrated products, and the certification
bundle.

Records go to stdout (or --out); logs go to stderr.  Every record carries
the parameters that produced it, and re-running a command with the same
arguments reproduces the bytes exactly.  Resource caps are read from
DRINFELD_MAX_* environment variables and are checked against cardinality
estimates before any enumeration starts."""

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
    equivariance_certificate,
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
from .intlinalg import gaussian_binomial, inv_scaled
from .padic import FieldDesc, FieldElem, PrecisionError, is_prime
from .products import alpha_level, dlog_residue, evaluate_product
from .projpoints import enumerate_points, point_count
from .residues import GLOBAL_SIGN, lambda_edge, oracle_slope_table, pair_distribution, sweep_oracle

LOG = logging.getLogger("drinfeld")

DEFAULT_CAPS = {
    "DRINFELD_MAX_LEVEL": 6,
    "DRINFELD_MAX_RADIUS": 6,
    "DRINFELD_MAX_DIM": 4,
    "DRINFELD_MAX_COUNT": 500000,
}


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


def _need(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing --{name.replace('_', '-')}")


def _check_prime(p):
    if not is_prime(p):
        raise UsageError(f"--p must be a prime number, got {p}")


def _check_cap(value, cap_name, what):
    cap = _cap(cap_name)
    if value > cap:
        raise UsageError(
            f"{what} {value} exceeds the cap {cap_name}={cap}; "
            f"raise the environment variable to allow this run"
        )


def _emit(args, records):
    text = "".join(json.dumps(r) + "\n" for r in records)
    if getattr(args, "out", None):
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


def _field_desc(args):
    return FieldDesc(p=args.p, e=args.e, f=args.f, N=args.N)


def _parse_coord(desc, ob):
    if isinstance(ob, int):
        return FieldElem.from_int(desc, ob)
    if isinstance(ob, list):
        return FieldElem.from_coeffs(desc, ob)
    if isinstance(ob, dict):
        return FieldElem.from_coeffs(desc, ob["coeffs"], ob.get("shift", 0))
    raise UsageError(
        "each coordinate must be an integer, a digit list, or "
        '{"coeffs": [...], "shift": s}'
    )


def _parse_point(args):
    _need(args, "p", "coords")
    _check_prime(args.p)
    desc = _field_desc(args)
    parsed = _load_json_arg(args.coords, "--coords")
    if not isinstance(parsed, list) or len(parsed) < 2:
        raise UsageError("--coords must be a JSON list of at least two coordinates")
    return SymmetricSpacePoint([_parse_coord(desc, c) for c in parsed])


def _parse_chain(p, text, what="--edge"):
    obj = _load_json_arg(text, what)
    if isinstance(obj, dict):
        obj = obj.get("chain", obj)
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{what} must be a JSON chain of lattices")
    lats = []
    for item in obj:
        if isinstance(item, dict):
            lat = Lattice.from_rows(p, item["hnf"], item.get("scale", 0))
        else:
            lat = Lattice.from_rows(p, item)
        lats.append(lat)
    try:
        return PointedSimplex.from_chain(lats)
    except ValueError as e:
        raise UsageError(f"{what} is not a valid chain: {e}")


def _load_distribution(args):
    if getattr(args, "dist", None):
        obj = _load_json_arg(args.dist, "--dist")
    elif getattr(args, "infile", None):
        with open(args.infile) as fh:
            obj = json.load(fh)
    else:
        raise UsageError("provide the distribution with --dist or --in")
    try:
        return MassZeroVector.from_json(args.p, args.d, obj)
    except (KeyError, ValueError) as e:
        raise UsageError(f"bad distribution: {e}")


# --- command handlers --------------------------------------------------------


def cmd_points(args):
    _need(args, "p", "d", "n")
    _check_prime(args.p)
    _check_cap(args.n, "DRINFELD_MAX_LEVEL", "level")
    _check_cap(args.d, "DRINFELD_MAX_DIM", "dimension")
    estimate = point_count(args.p, args.n, args.d)
    _check_cap(estimate, "DRINFELD_MAX_COUNT", "estimated point count")
    records = [
        {"p": args.p, "d": args.d, "level": pt.level, "rep": list(pt.rep)}
        for pt in enumerate_points(args.p, args.n, args.d)
    ]
    _emit(args, records)
    return 0


def _ball_estimate(p, d, radius):
    if d == 1:
        return tree_ball_size(p, radius)
    degree = sum(gaussian_binomial(d + 1, k, p) for k in range(1, d + 1))
    return sum(degree**r for r in range(radius + 1))


def _check_ball_caps(args):
    _check_cap(args.radius, "DRINFELD_MAX_RADIUS", "radius")
    _check_cap(args.d, "DRINFELD_MAX_DIM", "dimension")
    _check_cap(
        _ball_estimate(args.p, args.d, args.radius),
        "DRINFELD_MAX_COUNT",
        "estimated vertex count",
    )


def cmd_building_ball(args):
    _need(args, "p", "d", "radius")
    _check_prime(args.p)
    _check_ball_caps(args)
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
    _need(args, "p", "vertex")
    _check_prime(args.p)
    rows = _load_json_arg(args.vertex, "--vertex")
    vertex = Lattice.from_rows(args.p, rows).homothety_rep()
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
    _need(args, "p", "chain")
    _check_prime(args.p)
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
    _need(args, "n")
    z = _parse_point(args)
    _check_cap(args.n, "DRINFELD_MAX_LEVEL", "level")
    _emit(args, [{
        "point": z.to_json(),
        "n": args.n,
        "member_open": member_open_cover(z, args.n),
        "member_closed": member_closed_cover(z, args.n),
    }])
    return 0


def cmd_dist_random(args):
    _need(args, "p", "d", "n")
    _check_prime(args.p)
    _check_cap(args.n, "DRINFELD_MAX_LEVEL", "level")
    _check_cap(args.size, "DRINFELD_MAX_COUNT", "support size")
    rng = random.Random(args.seed)
    mu = random_mass_zero(args.p, args.n, args.d, rng,
                          size=args.size, coeff_bound=args.coeff_bound)
    _emit(args, [{"p": args.p, "d": args.d, "seed": args.seed, **mu.to_json()}])
    return 0


def cmd_dist_push(args):
    _need(args, "p", "d", "to")
    _check_prime(args.p)
    mu = _load_distribution(args)
    if not 1 <= args.to <= mu.level:
        raise UsageError(f"--to must be between 1 and the level {mu.level}")
    pushed = mu.pushforward(args.to)
    _emit(args, [{"p": args.p, "d": args.d, **pushed.to_json()}])
    return 0


def cmd_dist_check(args):
    _need(args, "p", "d")
    try:
        mu = _load_distribution(args)
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
    _need(args, "p", "edge", "pair")
    _check_prime(args.p)
    sigma = _parse_chain(args.p, args.edge)
    pair = _load_json_arg(args.pair, "--pair")
    if not (isinstance(pair, list) and len(pair) == 2):
        raise UsageError("--pair must be a JSON list of two covector lifts")
    a, b = (tuple(int(c) for c in v) for v in pair)
    record = {
        "edge": sigma.to_json()["chain"],
        "pair": [list(a), list(b)],
        "value": lambda_edge(sigma, a, b),
    }
    if args.oracle:
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
    _need(args, "p", "d")
    _check_prime(args.p)
    _check_ball_caps(args)
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
    _need(args, "p", "d")
    mu = _load_distribution(args)
    z = _parse_point(args)
    u = alpha_level(mu, rep_system=args.rep_system)
    value = evaluate_product(u, z, certified_level=args.certified_level)
    _emit(args, [{
        "product": u.to_json(),
        "point": z.to_json(),
        "value": value.to_json(),
    }])
    return 0


def cmd_alpha_converge(args):
    _need(args, "p")
    _check_prime(args.p)
    if not args.i < args.n < args.nprime:
        raise UsageError("need --i < --n < --nprime")
    _check_cap(args.nprime, "DRINFELD_MAX_LEVEL", "level")
    _check_cap(args.families, "DRINFELD_MAX_COUNT", "family count")
    rng = random.Random(args.seed)
    desc, z1, z2 = certify._dual_pair(args.p, N=args.N)
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
    _need(args, "p", "d", "edge")
    _check_prime(args.p)
    mu = _load_distribution(args)
    sigma = _parse_chain(args.p, args.edge)
    require_local = not args.allow_shallow
    left = dlog_residue(alpha_level(mu), sigma, require_local=require_local)
    right = GLOBAL_SIGN * pair_distribution(mu, sigma,
                                            require_local=require_local)
    _emit(args, [{
        "edge": sigma.to_json()["chain"],
        "dlog_residue": left,
        "pairing": right,
        "global_sign": GLOBAL_SIGN,
        "agree": left == right,
    }])
    return 0 if left == right else 1


def cmd_alpha_equivariance(args):
    _need(args, "p")
    _check_prime(args.p)
    _check_cap(args.translates, "DRINFELD_MAX_COUNT", "translate count")
    rng = random.Random(args.seed)
    desc, z1, z2 = certify._dual_pair(args.p, N=args.N)
    records = []
    for index in range(args.translates):
        g = certify.random_unimodular(2, rng)
        ginv, _ = inv_scaled(g)
        mu = random_mass_zero(args.p, args.n, 1, rng)
        rec = equivariance_certificate(g, ginv, mu, z1, z2, args.i)
        rec["translate_index"] = index
        records.append(rec)
    _emit(args, records)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_certify_all(args):
    if args.p is not None:
        _check_prime(args.p)
    started = time.monotonic()
    bundle = certify.run_all(
        ps=None if args.p is None else {args.p},
        ds=None if args.d is None else {args.d},
        seed=args.seed,
    )
    elapsed = time.monotonic() - started
    for rec in bundle["criteria"]:
        LOG.info("criterion %2d %-32s %s", rec["criterion"], rec["name"],
                 "PASS" if rec["pass"] else "FAIL")
    LOG.info("bundle finished in %.1fs: %s", elapsed,
             "all PASS" if bundle["all_pass"] else "FAILURES PRESENT")
    text = json.dumps(bundle, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if bundle["all_pass"] else 1


# --- parser construction -----------------------------------------------------


def _add_point_flags(sub):
    sub.add_argument("--coords", help="JSON list of coordinates; each is an "
                     "integer, a digit list, or {coeffs, shift}")
    sub.add_argument("--e", type=int, default=1, help="ramification index")
    sub.add_argument("--f", type=int, default=1, help="residue degree")
    sub.add_argument("--N", type=int, default=24, help="working digits")


def _common_parent():
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help="INI (or TOML) file with a "
                        "[drinfeld] section mirroring the flags")
    parent.add_argument("--out", help="write records to this file instead "
                        "of stdout")
    parent.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    return parent


def _build_parser():
    parent = _common_parent()
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="Finite-level models of invertible functions on the "
        "p-adic symmetric space: enumeration, reduction, residues, and "
        "certified congruences.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("points", parents=[parent],
                         help="enumerate projective points over Z/p^n")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--n", type=int)
    sp.set_defaults(handler=cmd_points)

    building = subs.add_parser("building", help="lattice-building geometry")
    bsubs = building.add_subparsers(dest="subcommand", required=True)
    sp = bsubs.add_parser("ball", parents=[parent],
                          help="breadth-first ball around the standard vertex")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--radius", type=int)
    sp.add_argument("--dot", help="also write a DOT graph to this file")
    sp.set_defaults(handler=cmd_building_ball)
    sp = bsubs.add_parser("neighbors", parents=[parent],
                          help="neighbor classes of a vertex")
    sp.add_argument("--p", type=int)
    sp.add_argument("--vertex", help="JSON row matrix spanning the lattice")
    sp.set_defaults(handler=cmd_building_neighbors)
    sp = bsubs.add_parser("type", parents=[parent],
                          help="type data of a pointed chain")
    sp.add_argument("--p", type=int)
    sp.add_argument("--chain", help="JSON chain of lattices")
    sp.set_defaults(handler=cmd_building_type)

    sp = subs.add_parser("tau", parents=[parent],
                         help="reduce a point to the building")
    sp.add_argument("--p", type=int)
    _add_point_flags(sp)
    sp.add_argument("--level", type=int, help="certify at this level "
                    "instead of searching")
    sp.set_defaults(handler=cmd_tau)

    sp = subs.add_parser("cover", parents=[parent],
                         help="open/closed cover membership of a point")
    sp.add_argument("--p", type=int)
    _add_point_flags(sp)
    sp.add_argument("--n", type=int)
    sp.set_defaults(handler=cmd_cover)

    dist = subs.add_parser("dist", help="mass-zero distributions")
    dsubs = dist.add_subparsers(dest="subcommand", required=True)
    sp = dsubs.add_parser("random", parents=[parent],
                          help="sample a random mass-zero vector")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", type=int, default=4)
    sp.add_argument("--coeff-bound", type=int, default=5)
    sp.set_defaults(handler=cmd_dist_random)
    sp = dsubs.add_parser("push", parents=[parent],
                          help="pushforward to a lower level")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--dist", help="distribution JSON literal")
    sp.add_argument("--in", dest="infile", help="distribution JSON file")
    sp.add_argument("--to", type=int)
    sp.set_defaults(handler=cmd_dist_push)
    sp = dsubs.add_parser("check", parents=[parent],
                          help="validate a distribution record")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--dist", help="distribution JSON literal")
    sp.add_argument("--in", dest="infile", help="distribution JSON file")
    sp.set_defaults(handler=cmd_dist_check)

    sp = subs.add_parser("lambda", parents=[parent],
                         help="residue of one covector pair on one edge")
    sp.add_argument("--p", type=int)
    sp.add_argument("--edge", help="JSON chain of two lattices")
    sp.add_argument("--pair", help="JSON list of two integer covector lifts")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the sampling oracle")
    sp.add_argument("--e-oracle", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=cmd_lambda)

    sp = subs.add_parser("sweep-lambda", parents=[parent],
                         help="sweep all residues over a ball against the "
                         "sampling oracle")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--e-oracle", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=cmd_sweep_lambda)

    alpha = subs.add_parser("alpha", help="integrated products")
    asubs = alpha.add_subparsers(dest="subcommand", required=True)
    sp = asubs.add_parser("eval", parents=[parent],
                          help="evaluate the integrated product at a point")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--dist", help="distribution JSON literal")
    sp.add_argument("--in", dest="infile", help="distribution JSON file")
    _add_point_flags(sp)
    sp.add_argument("--certified-level", type=int)
    sp.add_argument("--rep-system", default="lex", choices=("lex", "revlex"))
    sp.set_defaults(handler=cmd_alpha_eval)
    sp = asubs.add_parser("converge", parents=[parent],
                          help="refinement, swap, and restriction "
                          "certificates for random families")
    sp.add_argument("--p", type=int)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--nprime", type=int, default=3)
    sp.add_argument("--families", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--N", type=int, default=40)
    sp.set_defaults(handler=cmd_alpha_converge)
    sp = asubs.add_parser("residue", parents=[parent],
                          help="dlog residue versus the slope pairing")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--dist", help="distribution JSON literal")
    sp.add_argument("--in", dest="infile", help="distribution JSON file")
    sp.add_argument("--edge", help="JSON chain of two lattices")
    sp.add_argument("--allow-shallow", action="store_true",
                    help="skip the locality level guard")
    sp.set_defaults(handler=cmd_alpha_residue)
    sp = asubs.add_parser("equivariance", parents=[parent],
                          help="equivariance certificates for random "
                          "translates")
    sp.add_argument("--p", type=int)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--translates", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--N", type=int, default=40)
    sp.set_defaults(handler=cmd_alpha_equivariance)

    sp = subs.add_parser("certify-all", parents=[parent],
                         help="run the full certification bundle")
    sp.add_argument("--p", type=int, help="restrict to this prime")
    sp.add_argument("--d", type=int, help="restrict to this dimension")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=cmd_certify_all)

    return parser


def _given_dests(argv):
    """Dests that argv sets itself: argv parsed again with every default
    suppressed, so a flag left out leaves no attribute behind."""
    parser = _build_parser()
    parsers = [parser]
    while parsers:
        for action in parsers.pop()._actions:
            action.default = argparse.SUPPRESS
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return set(vars(parser.parse_args(argv)))


def _merge_config(args, argv):
    """Fill every flag that argv leaves out from the config file."""
    path = getattr(args, "config", None)
    if not path:
        return
    if path.endswith(".toml"):
        if tomllib is None:
            raise UsageError("TOML configs need python >= 3.11; use INI here")
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
        table = data.get("drinfeld", data)
    else:
        ini = configparser.ConfigParser()
        ini.optionxform = str  # keys are flag names, and --N is not --n
        if not ini.read(path):
            raise UsageError(f"cannot read config file {path}")
        if ini.has_section("drinfeld"):
            table = dict(ini.items("drinfeld"))
        else:
            table = dict(ini.defaults())
    given = _given_dests(argv)
    for key, value in table.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in given:
            continue
        if isinstance(value, str) and isinstance(getattr(args, dest), bool):
            states = configparser.ConfigParser.BOOLEAN_STATES
            if value.lower() not in states:
                raise UsageError(f"config key {key} must be a boolean")
            value = states[value.lower()]
        elif isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                pass
        setattr(args, dest, value)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
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
