"""Command-line surface: geodesic sampling, spheres, figures, distances.

Exit codes are a stable scripting contract: 0 on success, 2 for invalid
arguments (a grid too large for memory among them), 3 for I/O failures, 4
when a solver or detector fails to produce a result.  Every command is
deterministic; identical flags yield byte-identical output files.

An optional JSON config file can supply any long-option value (keys named
like the option, dashes or underscores); explicit command-line flags win
over the file.  Points are comma-separated triples `x,y,z`, angles are in
radians.

A query pays little around its solve: a plain line that starts with a
command is read straight from that command's action table, with argparse's
value checks but no argparse parse, and only help, errors and unusual
spellings go through the top-level parser, which gives the same namespace
and keeps every message and exit code (see _parse); a text output is
written through its file descriptor, and `distance` solves its one target
on float64 scalars with no array machinery (see heisgeo.distances).  Every
fixed-shape record (a geodesic sample, a connecting geodesic) is one format
string filled with its values, with the bytes of format_float or of
json.dumps with sorted keys.
"--" has Python 3.13's reading on every supported Python, held by the
parser class _Parser: "--opt=--" gives the option the value "--", as does
a positional after the first "--".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

from . import __version__
from .core import FRAME_NAMES, HeisPoint, left_quotient, nabla, sectional_curvature
from .distances import (
    ShootingConvergenceError,
    TargetUnreachableError,
    cygan_distance,
    riemannian_distance,
    shoot_candidates,
)
from .geodesics import TWO_PI, GeodesicSpec, _polyline_columns
from .meshing import (
    DEFAULT_DETECTION_GRID,
    NoSingularityError,
    SphereGrid,
    ball_cutaway_mesh,
    clip_sphere_to_metric,
    plane_exp_surface,
    singular_point_closeup,
    sphere_exp_mesh,
)
from .writers import format_float, write_obj, write_ply

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4

_FIGURE_PLANE_RESOLUTION = (128, 96)
_FIGURE_PLANE_SMAX = 6.0
_FIGURE_CLOSEUP_RESOLUTION = (96, 48)

# Fixed-shape output records, one format string each.  A value's text is the
# one format_float (%.17g) or json.dumps (float.__repr__, sorted keys) would
# give it: every value printed is finite, because the candidates are
# certified and HeisPoint, FrameVector and GeodesicSpec refuse non-finite
# values.
_CSV_SAMPLE = ",".join(["%.17g"] * 7)  # s, x, y, z, alpha, beta, gamma
_JSONL_SAMPLE = '{"alpha": %r, "beta": %r, "gamma": %r, "s": %r, "x": %r, "y": %r, "z": %r}'
_CANDIDATE = '{"gamma": %r, "phi": %r, "residual": %r, "s": %r}'
_AXIS_CANDIDATE = '{"axis_family": true, ' + _CANDIDATE[1:]


def _parse_vector(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z triple, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_point(text: str) -> HeisPoint:
    try:
        return HeisPoint(*_parse_vector(text))
    except ValueError as exc:  # HeisPoint refuses a non-finite coordinate
        raise argparse.ArgumentTypeError(f"coordinates must be finite, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads dash-led values and "--" alike on every
    supported Python.

    A dash-led number (-1,2,3, -.5,0,0, -1e3) is a value, not an option,
    before the command too.  A one-value action given the lone argument
    "--" ("--opt=--", or a positional after the first "--") takes the text
    "--" through its type and choices checks as argparse consumes it, as
    Python 3.13 does, so a refused value exits 2 even when a later spelling
    would override it; Python 3.10-3.12 (and 3.13.0, for the positional)
    store an empty list there, unchecked.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers (every one a _Parser);
    built once, never changed."""
    parser = _Parser(
        prog="heisgeo",
        description="Geodesics, distances and figure meshes of the Heisenberg group "
        "with its left-invariant metric.",
    )
    parser.add_argument("--version", action="version", version=f"heisgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    geo = sub.add_parser("geodesic", help="sample a geodesic polyline")
    geo.add_argument("--gamma", type=float, default=None, help="vertical velocity component")
    geo.add_argument("--phi", type=float, default=0.0, help="initial planar direction (radians)")
    geo.add_argument("--smax", type=float, default=None, help="arc length to sample up to")
    geo.add_argument("--n", type=int, default=100, help="number of segments")
    geo.add_argument("--base", type=_parse_point, default=HeisPoint(0.0, 0.0, 0.0))
    geo.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    geo.add_argument("--out", default="-", help="output path, - for stdout")

    sph = sub.add_parser("sphere", help="emit a geodesic sphere mesh")
    sph.add_argument("--radius", type=float, default=None)
    sph.add_argument("--nphi", type=int, default=DEFAULT_DETECTION_GRID[0])
    sph.add_argument("--ngamma", type=int, default=DEFAULT_DETECTION_GRID[1])
    sph.add_argument("--half", action="store_true", help="clip to one side of a plane")
    sph.add_argument("--cut-normal", type=_parse_vector, default=(0.0, 1.0, 0.0))
    sph.add_argument(
        "--clip-to-metric",
        action="store_true",
        help="drop vertices metrically closer to the origin than the radius",
    )
    sph.add_argument("--metric-tol", type=float, default=1e-3)
    sph.add_argument("--format", choices=("obj", "ply"), default="obj")
    sph.add_argument("--out", default=None)

    surf = sub.add_parser("surface", help="emit the exp-image of the {X,T} plane")
    surf.add_argument("--theta-min", type=float, default=0.0)
    surf.add_argument("--theta-max", type=float, default=TWO_PI)
    surf.add_argument("--smin", type=float, default=0.0)
    surf.add_argument("--smax", type=float, default=_FIGURE_PLANE_SMAX)
    surf.add_argument("--ntheta", type=int, default=_FIGURE_PLANE_RESOLUTION[0])
    surf.add_argument("--ns", type=int, default=_FIGURE_PLANE_RESOLUTION[1])
    surf.add_argument("--format", choices=("obj", "ply"), default="obj")
    surf.add_argument("--out", default=None)

    fig = sub.add_parser("figures", help="emit the full figure suite with a manifest")
    fig.add_argument("--out-dir", default=None)
    fig.add_argument("--nphi", type=int, default=DEFAULT_DETECTION_GRID[0])
    fig.add_argument("--ngamma", type=int, default=DEFAULT_DETECTION_GRID[1])
    fig.add_argument("--format", choices=("obj", "ply"), default="obj")

    dist = sub.add_parser("distance", help="distance between two points")
    dist.add_argument("p", type=_parse_point, help="first point x,y,z")
    dist.add_argument("q", type=_parse_point, help="second point x,y,z")
    dist.add_argument("--metric", choices=("riemannian", "cygan"), default="riemannian")
    dist.add_argument(
        "--all-candidates",
        action="store_true",
        help="print every connecting geodesic as JSON lines",
    )
    dist.add_argument("--tol", type=float, default=1e-8)
    dist.add_argument("--out", default="-", help="output path, - for stdout")

    curv = sub.add_parser("curvature", help="print sectional curvatures and the connection")
    curv.add_argument("--out", default="-", help="output path, - for stdout")

    for command in sub.choices.values():
        command.add_argument(
            "--config", default="", help="JSON file with defaults for these options"
        )
    return parser, sub.choices


def _plain_line(
    command: argparse.ArgumentParser, tokens: list[str]
) -> argparse.Namespace | None:
    """The namespace the command's parser makes of a plain line, or None.

    The line is read straight from the parser's own action table.  A plain
    line holds only
    - exact long options that store one value or a switch, a value as the
      next token (not starting with "-", unless it is "-") or after the
      option's first "=" (not empty);
    - a "--", followed by exactly the positionals still to come;
    - exactly as many positionals as the command has.
    Each value is read by the parser's own _get_values, with its type and
    choices checks and its reading of "--", so a refused value raises
    argparse.ArgumentError even when a later repeat would override it, as
    argparse refuses it.  Defaults follow argparse:
    SUPPRESS is skipped and no default is type- or choice-checked (argparse
    would pass a str default through the type, but no option has both).
    Any other line gives None.
    """
    args = argparse.Namespace()
    positionals = []
    for action in command._actions:
        if not action.option_strings:
            positionals.append(action)
        if action.dest is argparse.SUPPRESS or action.default is argparse.SUPPRESS:
            continue
        setattr(args, action.dest, action.default)
    read = 0  # positionals read so far
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--":
            tail = tokens[i:]
            if not tail or len(tail) != len(positionals) - read:
                return None
            for action, text in zip(positionals[read:], tail):
                setattr(args, action.dest, command._get_values(action, [text]))
            return args
        if token[:1] != "-":
            if read == len(positionals):
                return None
            action = positionals[read]
            setattr(args, action.dest, command._get_values(action, [token]))
            read += 1
            continue
        flag, eq, text = token.partition("=")
        action = command._option_string_actions.get(flag) if flag[:2] == "--" else None
        if type(action) is argparse._StoreTrueAction and not eq:
            setattr(args, action.dest, action.const)
            continue
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        if not eq:
            if i == len(tokens):
                return None
            text = tokens[i]
            i += 1
            if text[:1] == "-" and text != "-":
                return None
        elif not text:
            return None
        setattr(args, action.dest, command._get_values(action, [text]))
    return args if read == len(positionals) else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser parses it, in fewer steps.

    Two routes.  The top-level parser hands every token after the command
    to that command's parser, so a plain line that starts with a command
    (see _plain_line) is read straight from that command's action table,
    with no argparse parse.  Everything else goes through the top-level
    parser: help, --version, no or an unknown command, abbreviated options,
    dash-led values, "--" anywhere else, and every line a type or choices
    check refuses.  Every message and exit code is therefore the top-level
    parser's.  Both routes read "--" as Python 3.13 does, through _Parser.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    try:
        args = None if command is None else _plain_line(command, argv[1:])
    except argparse.ArgumentError:
        args = None
    if args is not None:
        args.command = argv[0]
        return args
    return parser.parse_args(argv)


def _config_args(args: argparse.Namespace, command: argparse.ArgumentParser) -> list[str]:
    """The JSON config file's option values as command-line tokens.

    A string is passed as it is, an array as its comma-joined items and any
    other value as its JSON text; a switch takes true (present) or false
    (absent).  Only options of the command are accepted; positional
    arguments are always given on the line, so a key naming one is unknown,
    and so is "config": a config file cannot name another.
    """
    if not args.config:
        return []
    with open(args.config) as handle:
        values = json.load(handle)
    if not isinstance(values, dict):
        raise ValueError("config file must contain a JSON object")
    options = {
        a.dest: a
        for a in command._actions
        if a.option_strings and a.dest in args and a.dest != "config"
    }
    tokens = []
    for key, value in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} does not match any option")
        flag = action.option_strings[0]
        if action.nargs != 0:
            items = value if isinstance(value, list) else [value]
            text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)
            tokens.append(f"{flag}={text}")
        elif value is True:
            tokens.append(flag)
        elif value is not False:
            raise ValueError(f"config key {key!r} is a switch: true or false")
    return tokens


def _write_lines(lines: list[str], out) -> None:
    """The lines, each ended by a newline, on stdout for "-", else in the file out.

    The file gets the text's bytes through its descriptor, in one write in
    practice: for the few lines a command prints this is much cheaper than
    a buffered text file, and the bytes are the same on every platform.
    """
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    data = memoryview(text.encode())
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write_mesh(mesh, out: str, fmt: str) -> None:
    if fmt == "obj":
        write_obj(mesh, out)
    else:
        write_ply(mesh, out)


def _cmd_geodesic(args) -> int:
    spec = GeodesicSpec.from_direction(args.gamma, args.phi, base=args.base)
    s, x, y, z, alpha, beta, gamma = _polyline_columns(spec, args.smax, args.n)
    if args.format == "csv":
        lines = ["s,x,y,z,alpha,beta,gamma"]
        lines += [_CSV_SAMPLE % row for row in zip(s, x, y, z, alpha, beta, gamma)]
    else:
        lines = [_JSONL_SAMPLE % row for row in zip(alpha, beta, gamma, s, x, y, z)]
    _write_lines(lines, args.out)
    return EXIT_OK


def _cmd_sphere(args) -> int:
    if args.half:
        mesh = ball_cutaway_mesh(
            args.radius, args.cut_normal, n_phi=args.nphi, n_gamma=args.ngamma
        )
    else:
        mesh = sphere_exp_mesh(
            SphereGrid(n_phi=args.nphi, n_gamma=args.ngamma, radius=args.radius)
        )
    if args.clip_to_metric:
        mesh = clip_sphere_to_metric(mesh, args.radius, tol=args.metric_tol)
    _write_mesh(mesh, args.out, args.format)
    return EXIT_OK


def _cmd_surface(args) -> int:
    mesh = plane_exp_surface(
        theta_range=(args.theta_min, args.theta_max),
        s_range=(args.smin, args.smax),
        resolution=(args.ntheta, args.ns),
    )
    _write_mesh(mesh, args.out, args.format)
    return EXIT_OK


def _figure_table(n_phi: int, n_gamma: int) -> dict[str, tuple[str, str, dict]]:
    """Manifest key -> (file stem, kind, parameters) of each figure.

    The kind names the meshing function and the parameters are its
    arguments (see _FIGURE_BUILDERS), in the JSON form the manifest records.
    """
    grid = {"n_phi": n_phi, "n_gamma": n_gamma}
    closeup = {
        "resolution": list(_FIGURE_CLOSEUP_RESOLUTION),
        "detection_grid": [n_phi, n_gamma],
    }
    return {
        "fig1": ("fig1_plane_surface", "plane_exp_surface", {
            "theta_range": [0.0, TWO_PI],
            "s_range": [0.0, _FIGURE_PLANE_SMAX],
            "resolution": list(_FIGURE_PLANE_RESOLUTION),
        }),
        "fig2_r1": ("fig2_sphere_r1", "sphere_exp_mesh", {"radius": 1.0, **grid}),
        "fig2_r3": ("fig2_sphere_r3", "sphere_exp_mesh", {"radius": 3.0, **grid}),
        "fig3": ("fig3_half_ball_r5", "ball_cutaway_mesh",
                 {"radius": 5.0, "cut_normal": [0.0, 1.0, 0.0], **grid}),
        "fig4": ("fig4_singular_closeup_r5", "singular_point_closeup",
                 {"radius": 5.0, "window": 0.08, **closeup}),
        "fig5": ("fig5_singular_closeup_r20", "singular_point_closeup",
                 {"radius": 20.0, "window": 0.05, **closeup}),
    }


# Figure kind -> mesh from the manifest parameters.  Each builder looks its
# function up in this module when called, so a wrapper set on the module
# attribute (a tracer, a test's monkeypatch) sees the figure calls too.
_FIGURE_BUILDERS = {
    "plane_exp_surface": lambda p: plane_exp_surface(**p),
    "sphere_exp_mesh": lambda p: sphere_exp_mesh(SphereGrid(**p)),
    "ball_cutaway_mesh": lambda p: ball_cutaway_mesh(
        p["radius"], p["cut_normal"], n_phi=p["n_phi"], n_gamma=p["n_gamma"]
    ),
    "singular_point_closeup": lambda p: singular_point_closeup(**p),
}


def _cmd_figures(args) -> int:
    table = _figure_table(args.nphi, args.ngamma)
    # The close-ups are built before anything is written: they refuse a grid
    # with no contact, and their detection grid checks --nphi and --ngamma.
    # They are written first, each dropped once written; then every other
    # figure is built, written and dropped before the next is built.  The
    # manifest's keys are sorted, so the order leaves its bytes alone.
    meshes = {
        key: _FIGURE_BUILDERS[kind](params)
        for key, (_, kind, params) in table.items()
        if kind == "singular_point_closeup"
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    figures = {}
    for key in [*meshes, *(k for k in table if k not in meshes)]:
        stem, kind, params = table[key]
        name = f"{stem}.{args.format}"
        mesh = meshes.pop(key) if key in meshes else _FIGURE_BUILDERS[kind](params)
        _write_mesh(mesh, out_dir / name, args.format)
        del mesh
        figures[key] = {"file": name, "kind": kind, **params}
    manifest = {"format": args.format, "figures": figures}
    _write_lines([json.dumps(manifest, sort_keys=True, indent=2)], out_dir / "manifest.json")
    return EXIT_OK


def _cmd_distance(args) -> int:
    if not 0.0 < args.tol < math.inf:
        raise ValueError("--tol must be positive and finite")
    if args.metric == "cygan":
        if args.all_candidates:
            raise ValueError("--all-candidates applies to the riemannian metric only")
        _write_lines([format_float(cygan_distance(args.p, args.q))], args.out)
        return EXIT_OK
    if args.all_candidates:
        candidates = shoot_candidates(left_quotient(args.p, args.q), tol=args.tol)
        # shoot_candidates flags every entry of a list alike.
        line = _AXIS_CANDIDATE if candidates[0].axis_family else _CANDIDATE
        lines = [line % (c.spec.gamma, c.spec.phi, c.residual, c.s) for c in candidates]
        _write_lines(lines, args.out)
        return EXIT_OK
    _write_lines([format_float(riemannian_distance(args.p, args.q, tol=args.tol))], args.out)
    return EXIT_OK


def _frame_combination(vec) -> str:
    parts = []
    for coeff, name in zip((vec.a, vec.b, vec.c), FRAME_NAMES):
        if coeff == 0.0:
            continue
        if coeff == 1.0:
            parts.append(name)
        elif coeff == -1.0:
            parts.append(f"-{name}")
        else:
            parts.append(f"{format_float(coeff)}*{name}")
    return " + ".join(parts) if parts else "0"


def _cmd_curvature(args) -> int:
    lines = ["sectional curvatures of the orthonormal frame planes:"]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        value = sectional_curvature(i, j)
        lines.append(
            f"  K({FRAME_NAMES[i - 1]},{FRAME_NAMES[j - 1]}) = {format_float(value)}"
        )
    lines.append("connection table (row acts on column):")
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            lines.append(
                f"  nabla_{FRAME_NAMES[i - 1]} {FRAME_NAMES[j - 1]} = "
                f"{_frame_combination(nabla(i, j))}"
            )
    _write_lines(lines, args.out)
    return EXIT_OK


_COMMANDS = {
    "geodesic": _cmd_geodesic,
    "sphere": _cmd_sphere,
    "surface": _cmd_surface,
    "figures": _cmd_figures,
    "distance": _cmd_distance,
    "curvature": _cmd_curvature,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = _build_parser()[1]
    args = _parse(argv)
    try:
        tokens = _config_args(args, commands[args.command])
    except (OSError, json.JSONDecodeError) as exc:
        print(f"heisgeo: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if tokens:
        # The config's tokens go right after the subcommand and the line is
        # parsed again: every value takes the flags' type and choices
        # checks, and the line's own flags come later, so they win in any
        # spelling (--radius 2, --radius=2, --rad 2).
        at = argv.index(args.command) + 1
        args = _parse(argv[:at] + tokens + argv[at:])
    # An option declared with default None must be set by the line or the config.
    for action in commands[args.command]._actions:
        if action.default is None and getattr(args, action.dest) is None:
            flag = action.option_strings[0]
            print(f"heisgeo: {flag} is required (flag or config file)", file=sys.stderr)
            return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # Every command builds its output before its first write (figures:
        # its close-ups, whose detection spheres take the grid given), and
        # the writers remove a regular mesh file that runs out of memory
        # while it is formatted, so a grid too large for memory leaves no
        # partial file behind.
        print(f"heisgeo: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"heisgeo: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ShootingConvergenceError, TargetUnreachableError, NoSingularityError) as exc:
        print(f"heisgeo: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
