"""Batch command-line frontend.

Each subcommand runs one module pipeline, writes its numeric artifacts
(CSV with full-precision scientific notation, JSON, optionally SVG) into
the output directory, and finishes with a manifest.json recording the
configuration, library versions, wall time, and a SHA-256 per output
file. All sampling is driven by the --seed flag, so identical
invocations produce identical numeric files.

Exit codes: 0 on success, 1 on numerical failure (a GeometryError from
the modules), 2 on input problems (bad flags, missing or malformed
files).
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .forms import GeometryError, QuadraticSpace, standard_space
from .model import HPoint, HalfspaceDomain, hilbert_distance, pair_class
from .graphs import constant_graph, equatorial_graph, folded_boundary_graph, \
    isotropic_boundary_graph, lipschitz_check, maximal_graph
from .crowns import crown_orbit_graph, detect_crowns
from .groups import BendDatum, CoxeterDiagram, HnnLetter, bend_amalgam, \
    bend_hnn, bend_residuals, canonical_X, det_roots, gt_polygon, \
    signature_scan, toy_bend_datum, word_ball
from .anosov import gap_series, limit_cone_sample, negativity_test, \
    sample_limit_set


class InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError("%s: %s" % (path, err.strerror or err))
    except json.JSONDecodeError as err:
        raise InputError("%s: line %d column %d: %s"
                         % (path, err.lineno, err.colno, err.msg))


# What a JSON input must be, by array rank: (element type, shape).
_EXPECTED = {1: ("a numeric vector", "a flat vector"),
             2: ("a rectangular numeric array", "a matrix (list of rows)")}


def _as_array(data, origin, ndim):
    numeric, shape = _EXPECTED[ndim]
    try:
        array = np.array(data, dtype=float)
    except (TypeError, ValueError):
        raise InputError("%s: expected %s" % (origin, numeric))
    if array.ndim != ndim:
        raise InputError("%s: expected %s" % (origin, shape))
    if not np.isfinite(array).all():
        raise InputError("%s: entries must be finite" % origin)
    return array


def _read_csv_rows(path):
    rows = []
    try:
        with open(path) as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                try:
                    row = [float(f) for f in fields]
                except ValueError:
                    if line_no == 1:
                        continue
                    raise InputError("%s: line %d: non-numeric field"
                                     % (path, line_no))
                if not all(map(math.isfinite, row)):
                    raise InputError("%s: line %d: non-finite field"
                                     % (path, line_no))
                rows.append(row)
    except OSError as err:
        raise InputError("%s: %s" % (path, err.strerror or err))
    if not rows:
        raise InputError("%s: no numeric rows" % path)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("%s: rows have inconsistent width" % path)
    return np.array(rows)


def _load_array(path, ndim):
    return _as_array(_load_json(path), path, ndim)


def _resolve_tol(args):
    tol, origin = args.tol, "--tol"
    env = os.environ.get("PQGEO_TOL")
    if tol is None and env:
        try:
            tol, origin = float(env), "PQGEO_TOL"
        except ValueError:
            raise InputError("PQGEO_TOL is not a number: %r" % env)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise InputError("%s must be finite and non-negative, not %r"
                         % (origin, tol))
    return tol


def _space_from_args(args, tol):
    if args.gram:
        gram = _load_array(args.gram, 2)
        try:
            return QuadraticSpace(gram, tol=tol)
        except GeometryError as err:
            raise InputError("%s: %s" % (args.gram, err))
    if args.p is not None and args.q is not None:
        return standard_space(args.p, args.q + 1, tol=tol)
    raise InputError("need either --gram or both --p and --q")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    return "%.16e" % value


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _plain(obj):
    """JSON form of numpy arrays and scalars: the lists and numbers held."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _write_json(path, obj):
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True, default=_plain)
        handle.write("\n")


def _svg_scatter(path, points, xlabel, ylabel, title):
    width = height = 480
    pad = 48.0
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (width, height, width, height),
             '<rect width="%d" height="%d" fill="white"/>' % (width, height)]
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        if xmax - xmin < 1e-12:
            xmin, xmax = xmin - 1.0, xmax + 1.0
        if ymax - ymin < 1e-12:
            ymin, ymax = ymin - 1.0, ymax + 1.0
        span_x = xmax - xmin
        span_y = ymax - ymin
        xmin, xmax = xmin - 0.05 * span_x, xmax + 0.05 * span_x
        ymin, ymax = ymin - 0.05 * span_y, ymax + 0.05 * span_y

        def sx(x):
            return pad + (x - xmin) / (xmax - xmin) * (width - 2 * pad)

        def sy(y):
            return height - pad - (y - ymin) / (ymax - ymin) * \
                (height - 2 * pad)

        parts.append('<g stroke="#888" stroke-width="1">')
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>'
                     % (pad, height - pad, width - pad, height - pad))
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>'
                     % (pad, pad, pad, height - pad))
        parts.append('</g>')
        parts.append('<g font-family="sans-serif" font-size="11" '
                     'fill="#444">')
        parts.append('<text x="%.2f" y="%.2f">%.4g</text>'
                     % (pad, height - pad + 14, xmin))
        parts.append('<text x="%.2f" y="%.2f" text-anchor="end">%.4g</text>'
                     % (width - pad, height - pad + 14, xmax))
        parts.append('<text x="%.2f" y="%.2f">%.4g</text>'
                     % (4, height - pad, ymin))
        parts.append('<text x="%.2f" y="%.2f">%.4g</text>' % (4, pad, ymax))
        parts.append('</g>')
        parts.append('<g fill="#1f6fb2" fill-opacity="0.75">')
        for x, y in points:
            parts.append('<circle cx="%.2f" cy="%.2f" r="3"/>'
                         % (sx(x), sy(y)))
        parts.append('</g>')
    else:
        parts.append('<text x="%d" y="%d" font-family="sans-serif" '
                     'font-size="14" text-anchor="middle">no points</text>'
                     % (width // 2, height // 2))
    parts.append('<g font-family="sans-serif" font-size="13" fill="#111">')
    parts.append('<text x="%d" y="20" text-anchor="middle">%s</text>'
                 % (width // 2, title))
    parts.append('<text x="%d" y="%d" text-anchor="middle">%s</text>'
                 % (width // 2, height - 8, xlabel))
    parts.append('<text x="14" y="%d" text-anchor="middle" '
                 'transform="rotate(-90 14 %d)">%s</text>'
                 % (height // 2, height // 2, ylabel))
    parts.append('</g>')
    parts.append('</svg>')
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(parts) + "\n")


def _run_classify_pair(args, tol, out):
    space = _space_from_args(args, tol)
    x, y = _load_array(args.x, 1), _load_array(args.y, 1)
    px = HPoint(space, x, normalize=True)
    py = HPoint(space, y, normalize=True)
    kind = pair_class(px, py)
    value = float(space.eval(px.vec, py.vec))
    _write_json(out("classify-pair.json"),
                {"class": kind, "pairing": value,
                 "x": px.vec, "y": py.vec})
    return "pair class: %s (b = %.12g)" % (kind, value)


def _domain_from_args(args, tol):
    space = _space_from_args(args, tol)
    return HalfspaceDomain(space, _load_array(args.domain, 2))


def _run_hilbert_dist(args, tol, out):
    domain = _domain_from_args(args, tol)
    dist = hilbert_distance(domain, _load_array(args.y, 1),
                            _load_array(args.z, 1))
    _write_json(out("hilbert-dist.json"),
                {"distance": dist,
                 "constraints": domain.constraints.shape[0]})
    return "hilbert distance: %.16g" % dist


def _run_omega_test(args, tol, out):
    domain = _domain_from_args(args, tol)
    status, worst = domain.membership(_load_array(args.x, 1))
    _write_json(out("omega-test.json"),
                {"status": status, "worst_constraint": worst})
    return "omega membership: %s (constraint %d)" % (status, worst)


def _parse_floats(text, origin):
    try:
        return [float(f) for f in text.split(",")]
    except ValueError:
        raise InputError("%s: expected comma-separated numbers" % origin)


def _graph_from_args(args):
    family = args.family
    if family in ("crown-orbit", "maximal-crown"):
        if family == "maximal-crown":
            if args.p is None:
                raise InputError("--family=maximal-crown needs --p")
            if args.q is not None and args.q != args.p - 1:
                raise InputError("maximal-crown orbits need q = p - 1")
            tau = np.full(args.p, 1.0 / math.sqrt(args.p))
        else:
            if not args.tau:
                raise InputError("--family=crown-orbit needs --tau")
            tau = np.array(_parse_floats(args.tau, "--tau"))
            if args.p is not None and args.p != tau.size:
                raise InputError("--p disagrees with the length of --tau")
        return crown_orbit_graph(tau)
    if args.p is None or args.q is None:
        raise InputError("--family=%s needs --p and --q" % family)
    builders = {
        "constant": constant_graph,
        "maximal": maximal_graph,
        "equatorial": equatorial_graph,
        "isotropic-boundary": isotropic_boundary_graph,
        "folded-boundary": folded_boundary_graph,
    }
    return builders[family](args.p, args.q)


def _run_graph_check(args, tol, out):
    graph = _graph_from_args(args)
    report = lipschitz_check(graph, pairs=args.pairs, rng=args.seed)
    U = graph.sample_domain(args.samples, rng=args.seed)
    V = graph.evaluate(U)
    header = ["u%d" % i for i in range(U.shape[1])] + \
        ["v%d" % (i + 1) for i in range(V.shape[1])]
    _write_csv(out("graph-samples.csv"), header, np.hstack((U, V)))
    payload = {
        "family": args.family,
        "max_ratio": report.max_ratio,
        "margin": report.margin,
        "strict": report.strict,
        "violations": report.violations,
        "pairs_used": report.pairs_used,
        "kernel_dim": report.kernel_dim,
    }
    _write_json(out("graph-report.json"), payload)
    summary = "family %s: max ratio %.6f, strict=%s" % (
        args.family, report.max_ratio, report.strict)
    if report.kernel_dim is not None:
        summary += ", kernel dim %d" % report.kernel_dim
    return summary


def _run_crown_scan(args, tol, out):
    space = _space_from_args(args, tol)
    rows = _read_csv_rows(args.input)
    if rows.shape[1] != space.dim:
        raise InputError("%s: rows have %d columns, form has dimension %d"
                         % (args.input, rows.shape[1], space.dim))
    scan = detect_crowns(space, rows, args.j, max_results=args.max_results)
    crowns = [{"indices": c.indices, "lifts": c.lifts, "pairing": c.pairing}
              for c in scan]
    _write_json(out("crowns.json"),
                {"j": args.j, "count": len(scan), "complete": scan.complete,
                 "crowns": crowns})
    return "found %d %d-crowns (complete=%s)" % (len(scan), args.j,
                                                 scan.complete)


def _run_coxeter_scan(args, tol, out):
    data = _load_json(args.diagram)
    try:
        diagram = CoxeterDiagram.from_dict(data)
    except GeometryError as err:
        raise InputError("%s: %s" % (args.diagram, err))
    if args.steps < 2:
        raise InputError("--steps must be at least 2")
    grid = np.linspace(args.t_min, args.t_max, args.steps)
    rows = signature_scan(diagram, grid)
    table = [(r.t, r.signature.pos, r.signature.neg, r.signature.null,
              r.det, r.relation_residual) for r in rows]
    _write_csv(out("coxeter-scan.csv"),
               ["t", "pos", "neg", "null", "det", "max-relation-residual"],
               table)
    summary = "%d grid rows" % len(rows)
    if len(diagram.infinite_pairs()) == 1:
        roots = det_roots(diagram)
        _write_json(out("det-roots.json"),
                    {"roots": roots.roots,
                     "coefficients": roots.coefficients,
                     "residuals": roots.residuals,
                     "both_positive": roots.both_positive})
        summary += "; det roots %.12g, %.12g" % roots.roots
    return summary


def _run_gt_polygon(args, tol, out):
    poly = gt_polygon(args.k, args.n, args.q)
    space = poly.space
    table = []
    count = 2 * poly.k
    for j in range(count):
        v = poly.vertices[j]
        nxt = poly.vertices[(j + 1) % count]
        table.append([j] + list(v) + [space.eval(v), space.eval(v, nxt)])
    header = ["index"] + ["x%d" % i for i in range(2 + args.q)] + \
        ["norm", "edge_pairing"]
    _write_csv(out("gt-polygon.csv"), header, table)
    _write_json(out("gt-polygon.json"),
                {"k": poly.k, "n": poly.n, "q": args.q, "alpha": poly.alpha,
                 "edge_pairing": poly.edge_pairing})
    return "2k = %d vertices, alpha = %.12g" % (count, poly.alpha)


def _bend_datum_from_json(path, tol):
    data = _load_json(path)
    for field in ("gram", "factors", "edge_groups", "factor_chains",
                  "direction"):
        if field not in data:
            raise InputError("%s: missing field '%s'" % (path, field))
    gram = _as_array(data["gram"], path + ":gram", 2)
    space = QuadraticSpace(gram, tol=tol)
    factors = [[_as_array(g, path + ":factors", 2) for g in gens]
               for gens in data["factors"]]
    edge_groups = [[_as_array(g, path + ":edge_groups", 2) for g in gens]
                   for gens in data["edge_groups"]]
    letters = []
    for spec_ in data.get("stable_letters", []):
        matrix = _as_array(spec_["matrix"], path + ":stable_letters", 2)
        letters.append(HnnLetter(matrix, spec_.get("edge", 0),
                                 spec_.get("chain", ())))
    positions = [[tuple(pair) for pair in entry]
                 for entry in data.get("edge_positions", [])]
    datum = BendDatum(space, factors, edge_groups, data["factor_chains"],
                      edge_positions=positions, stable_letters=letters)
    direction = _as_array(data["direction"], path + ":direction", 2)
    return datum, direction


def _run_bend(args, tol, out):
    if args.toy:
        datum = toy_bend_datum()
        direction = canonical_X(2, 1, 1)
    elif args.datum:
        datum, direction = _bend_datum_from_json(args.datum, tol)
    else:
        raise InputError("need --datum or --toy")
    bent = bend_amalgam(datum, args.factor, direction, args.s)
    letters = [bend_hnn(datum, i, direction, args.s)
               for i in range(len(datum.stable_letters))]
    residuals = bend_residuals(datum, bent, letters)
    payload = {
        "s": args.s,
        "factor": args.factor,
        "factors": [[g for g in gens] for gens in bent],
        "stable_letters": letters,
        "residuals": residuals,
    }
    _write_json(out("bend.json"), payload)
    return "bent factor %d at s=%g; residuals form %.3g, edge %.3g, hnn %.3g" \
        % (args.factor, args.s, residuals["form"], residuals["edge"],
           residuals["hnn"])


def _generators_from_args(args, space):
    data = _load_json(args.gens)
    if not isinstance(data, list) or not data:
        raise InputError("%s: expected a non-empty list of matrices"
                         % args.gens)
    gens = [_as_array(m, args.gens, 2) for m in data]
    for g in gens:
        if g.shape != (space.dim, space.dim):
            raise InputError("%s: generator shape %s does not match "
                             "form dimension %d"
                             % (args.gens, g.shape, space.dim))
    return gens


def _ball_and_rays(args, space):
    """The word ball of radius --L and its limit-cone rays."""
    ball = word_ball(_generators_from_args(args, space), args.L)
    return ball, limit_cone_sample(ball, args.r)


def _run_anosov_diagnose(args, tol, out):
    space = _space_from_args(args, tol)
    chart = args.chart.split(",")
    if len(chart) != 2:
        raise InputError("--chart needs two comma-separated indices")
    try:
        ci, cj = int(chart[0]), int(chart[1])
    except ValueError:
        raise InputError("--chart needs integer indices")
    if not (0 <= ci < space.dim and 0 <= cj < space.dim):
        raise InputError("--chart indices out of range for dimension %d"
                         % space.dim)
    # Every stage runs before the first artifact is written, so a failure
    # leaves --out without a partial set of files.
    ball, rays = _ball_and_rays(args, space)
    series = gap_series(ball, args.r)
    points = sample_limit_set(space, ball, args.gap_threshold)
    negativity = None
    if len(points) >= 2:
        report = negativity_test(space, points)
        negativity = {"status": report.status, "margin": report.margin,
                      "witness": report.witness}
    _write_csv(out("gaps.csv"),
               ["length", "min", "median", "count"], series.rows())
    _write_csv(out("limit-set.csv"),
               ["x%d" % i for i in range(space.dim)], points.rows)
    _write_csv(out("cone-rays.csv"),
               ["lambda%d" % (i + 1) for i in range(args.r)], rays)
    _svg_scatter(out("limit-set.svg"),
                 [(row[ci], row[cj]) for row in points.rows],
                 "x%d" % ci, "x%d" % cj, "sampled limit set")
    _write_json(out("diagnose.json"),
                {"ball_size": len(ball), "limit_points": len(points),
                 "cone_rays": int(rays.shape[0]), "negativity": negativity})
    summary = "ball %d, limit points %d, rays %d" % (len(ball), len(points),
                                                     rays.shape[0])
    if negativity:
        summary += ", negativity %s (margin %.6g)" % (
            negativity["status"], negativity["margin"])
    return summary


def _run_limit_cone(args, tol, out):
    ball, rays = _ball_and_rays(args, _space_from_args(args, tol))
    _write_csv(out("cone-rays.csv"),
               ["lambda%d" % (i + 1) for i in range(args.r)], rays)
    return "%d cone rays from a ball of %d" % (rays.shape[0], len(ball))


HANDLERS = {
    "classify-pair": _run_classify_pair,
    "hilbert-dist": _run_hilbert_dist,
    "omega-test": _run_omega_test,
    "graph-check": _run_graph_check,
    "crown-scan": _run_crown_scan,
    "coxeter-scan": _run_coxeter_scan,
    "gt-polygon": _run_gt_polygon,
    "bend": _run_bend,
    "anosov-diagnose": _run_anosov_diagnose,
    "limit-cone": _run_limit_cone,
}


def _space_flags(sp):
    """--gram, or --p and --q, for the commands that take a form."""
    sp.add_argument("--gram", help="JSON Gram matrix file")
    sp.add_argument("--p", type=int, help="spacelike rank of the model")
    sp.add_argument("--q", type=int,
                    help="timelike rank of the model (form has q+1 minus "
                         "signs)")


def _group_flags(sp, radius):
    """Generators, their form, and the word-ball radius and rank."""
    sp.add_argument("--gens", required=True,
                    help="JSON list of generator matrices")
    _space_flags(sp)
    sp.add_argument("--L", type=int, default=radius, help="word-ball radius")
    sp.add_argument("--r", type=int, default=2,
                    help="Jordan projection rank")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all pseudo-random sampling")
    common.add_argument("--tol", type=float, default=None,
                        help="relative tolerance, finite and >= 0 "
                             "(default: PQGEO_TOL or builtin 1e-9)")
    common.add_argument("--out", default=".",
                        help="output directory for artifacts")

    parser = argparse.ArgumentParser(
        prog="pqgeo",
        description="desk-scale computations in pseudo-Riemannian "
                    "hyperbolic geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify-pair", parents=[common],
                        help="classify a pair of interior points")
    _space_flags(sp)
    sp.add_argument("--x", required=True, help="JSON vector file")
    sp.add_argument("--y", required=True, help="JSON vector file")

    sp = sub.add_parser("hilbert-dist", parents=[common],
                        help="Hilbert distance inside a half-space domain")
    _space_flags(sp)
    sp.add_argument("--domain", required=True,
                    help="JSON list of constraint lifts")
    sp.add_argument("--y", required=True, help="JSON vector file")
    sp.add_argument("--z", required=True, help="JSON vector file")

    sp = sub.add_parser("omega-test", parents=[common],
                        help="membership in the invisible domain")
    _space_flags(sp)
    sp.add_argument("--domain", required=True,
                    help="JSON list of constraint lifts")
    sp.add_argument("--x", required=True, help="JSON vector file")

    sp = sub.add_parser("graph-check", parents=[common],
                        help="Lipschitz check of a builtin graph family")
    sp.add_argument("--family", required=True,
                    choices=["constant", "maximal", "equatorial",
                             "isotropic-boundary", "folded-boundary",
                             "crown-orbit", "maximal-crown"])
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--tau", help="comma-separated weights for crown-orbit")
    sp.add_argument("--pairs", type=int, default=2000)
    sp.add_argument("--samples", type=int, default=256,
                    help="rows in the emitted sample CSV")

    sp = sub.add_parser("crown-scan", parents=[common],
                        help="detect crowns among boundary samples")
    sp.add_argument("--input", required=True,
                    help="CSV of boundary lifts, one per row")
    _space_flags(sp)
    sp.add_argument("--j", type=int, default=2)
    sp.add_argument("--max-results", type=int, default=None)

    sp = sub.add_parser("coxeter-scan", parents=[common],
                        help="signature scan of a deformed Cartan matrix")
    sp.add_argument("--diagram", required=True,
                    help="JSON diagram file with an 'm' order matrix")
    sp.add_argument("--t-min", type=float, default=0.0)
    sp.add_argument("--t-max", type=float, default=5.0)
    sp.add_argument("--steps", type=int, default=500)

    sp = sub.add_parser("gt-polygon", parents=[common],
                        help="equilateral polygon vertex configuration")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, default=1)

    sp = sub.add_parser("bend", parents=[common],
                        help="bend an amalgam factor and HNN letters")
    sp.add_argument("--datum", help="JSON bend datum file")
    sp.add_argument("--toy", action="store_true",
                    help="use the builtin O(2,2) toy datum")
    sp.add_argument("--s", type=float, required=True,
                    help="bending parameter")
    sp.add_argument("--factor", type=int, default=1,
                    help="index of the factor to bend")

    sp = sub.add_parser("anosov-diagnose", parents=[common],
                        help="spectral diagnostics of a generated group")
    _group_flags(sp, 8)
    sp.add_argument("--gap-threshold", type=float, default=1.0,
                    help="minimum top eigenvalue gap for limit points")
    sp.add_argument("--chart", default="0,1",
                    help="coordinate pair for the SVG scatter")

    sp = sub.add_parser("limit-cone", parents=[common],
                        help="sample limit-cone rays of a generated group")
    _group_flags(sp, 6)

    return parser


def _write_manifest(args, written, wall_time):
    """manifest.json: the configuration and a hash of each written file."""
    listed = []
    for name in written:
        with open(os.path.join(args.out, name), "rb") as handle:
            blob = handle.read()
        listed.append({"path": name, "bytes": len(blob),
                       "sha256": hashlib.sha256(blob).hexdigest()})
    manifest = {
        "config": vars(args),
        "versions": {
            "pqgeo": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_seconds": wall_time,
        "outputs": listed,
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    start = time.perf_counter()
    written = []

    def out(name):
        """Path of an artifact in --out; the manifest lists it in turn."""
        written.append(name)
        return os.path.join(args.out, name)

    try:
        tol = _resolve_tol(args)
        os.makedirs(args.out, exist_ok=True)
        summary = HANDLERS[args.command](args, tol, out)
        _write_manifest(args, written, time.perf_counter() - start)
    except GeometryError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (InputError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    print(summary)
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
