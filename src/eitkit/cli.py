"""Command-line interface: mesh generation and validation, forward solves,
the canonical subspace demonstration, and both reconstruction paths.

Exit codes: 0 success, 1 usage/IO error, 2 domain or validation error,
3 failed demonstration claim, 4 rank-deficient stack.

Every command accepts ``--config FILE`` (flat ``key = value`` lines under
``[<command>]`` or ``[global]`` section headers, where lines before the
first header belong to ``[global]``; flags override file values) and
``--seed N``. A config key must be a flag of its section's command (under
``[global]``, of any command) or ``seed``, and a switch's value must be
one of ``1/true/yes/on`` or ``0/false/no/off`` in any case; an unknown key
or any other switch value is a line-numbered error (exit 2). Each output
starts with a reproducibility header echoing the resolved configuration,
the seed and the version, so reruns are byte-identical; timestamps go to
standard error only.

Each command and flag is declared once, in ``_COMMANDS``: the dispatch,
the parser (``main`` builds only the one its argv names), the config
sections and keys, the defaults, the required-flag checks, the resolution
and the output header all come from that table, so no handler names its
own command.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import DimensionError, DomainError, EitError, FormatError, RankDeficiencyError
from .forward import CurrentPattern, apply_pattern, assemble, measure, solve_forward, uniform_field
from .mesh import Mesh, build_disk_mesh, load_mesh, parse_mesh_file, save_mesh, validate
from .multifreq import _pattern_entry, load_sweep_config, recover_conductivity, simulate_sweep, stack_solve
from .phantom import make_demo_fixture
from .statistics import correlation, load_ensemble, third_cumulants
from .subspace import build_projector, extract_candidates, fitting_residual, save_candidates, truncated_svd
from .textio import _at_line, convert, data_lines, key_value, put_once, read_lines, sections, write_lines

DEMO_OFF_ENTRY_TOL = 1e-10
DEMO_RESIDUAL_TOL = 1e-8
STATISTICS = ("correlation", "cumulant", "pooled")
RENDER_PAIR_BUDGET = 8192  # element-pixel pairs tested at once by render_element_field
# each gray level 0..255 as a PGM token: its digits, zero padding, a space
_PGM_TOKENS = np.array([list(str(v).encode().ljust(3, b"\0") + b" ") for v in range(256)], dtype=np.uint8)
REQUIRED = object()  # the table default of a flag its command cannot run without


class DemoClaimError(EitError):
    """A checked claim of the canonical demonstration failed."""


class UsageError(Exception):
    """Missing or contradictory flags (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # spec'd exit-code contract: usage errors are 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser(argv: list[str]) -> tuple[_Parser, list[str]]:
    """The parser of the command ``argv`` names, and the rest of ``argv``. An
    argv naming none meets the top-level parser: it exits with help, version or error."""
    path = next((p for p in _COMMANDS if argv[:p.count(" ") + 1] == p.split()), None)
    if path is None:
        top = _Parser(prog="eitkit", usage="%(prog)s [-h] [--version] command ...",
                      description=__doc__.split("\n\n")[0])
        top.add_argument("--version", action="version", version=f"eitkit {__version__}")
        commands = top.add_argument_group("commands")
        for name, (_, help_text, _) in _COMMANDS.items():
            commands.add_argument(name, nargs="?", help=help_text)  # --help lists it; argv still errs below
        top.parse_args(argv)
        top.error("choose a command: " + ", ".join(_COMMANDS))
    parser = _Parser(prog=f"eitkit {path}")
    parser.set_defaults(command_path=path)
    parser.add_argument("--config", help="key = value config file supplying flag defaults")
    parser.add_argument("--seed", type=int, help="seed echoed into outputs")
    if path == "mesh validate":
        parser.add_argument("path", help="mesh file to check")
    for dest, (default, conv, text) in _COMMANDS[path][2].items():
        flag = "--" + dest.replace("_", "-")
        if conv is _as_bool:
            parser.add_argument(flag, action="store_const", const=True, help=text)
            continue
        if default is not None and default is not REQUIRED:  # `is`, as 0 == False
            text += f" (default {str(default).replace('e-0', 'e-')})"  # 1e-8, not 1e-08
        if hasattr(conv, "choices"):
            parser.add_argument(flag, choices=conv.choices, help=text)
        else:
            parser.add_argument(flag, type=conv, help=text)
    return parser, argv[path.count(" ") + 1:]


def _load_config(path) -> dict[str, dict[str, tuple[int, str]]]:
    """Config sections as ``{command path: {key: (line_no, value)}}``; lines
    before the first header form the ``global`` section. A key must be a
    flag of its section's command (of any command under ``global``) or
    ``seed``, and appear at most once in its section."""
    keys = {name: {"seed", *flags} for name, (_, _, flags) in _COMMANDS.items()}
    keys["global"] = set().union(*keys.values())
    config = {}
    for name, lines in sections(read_lines(path), set(keys), preamble="global").items():
        config[name] = {}
        for line_no, text in lines:
            key, value = key_value(line_no, text)
            key = key.lower().replace("-", "_")
            if key not in keys[name]:
                raise FormatError(f"unknown key {key!r} in [{name}]", line_no=line_no)
            put_once(config[name], key, (line_no, value), line_no, f"[{name}] key")
    return config


def _resolve(args, command_path: str) -> dict:
    """Each flag of ``command_path`` and the seed: the flag value if given,
    else the config-file value, else the table default.

    Every value is converted before a missing required flag is reported, so
    a bad config value is a line-numbered FormatError (exit 2) first.
    """
    config = _load_config(args.config) if args.config else {}
    from_file = {**config.get("global", {}), **config.get(command_path, {})}

    resolved = {}
    for dest, (default, conv, _) in {**_COMMANDS[command_path][2], "seed": (0, int, None)}.items():
        value = getattr(args, dest)
        if value is None and dest in from_file:
            line_no, raw = from_file[dest]
            value = convert(raw, conv, line_no, dest)
        resolved[dest] = default if value is None else value
    for dest, value in resolved.items():
        if value is REQUIRED:
            raise UsageError(f"{command_path} needs --{dest.replace('_', '-')}")
    return resolved


def _as_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


_as_bool.__name__ = "one of 1, true, yes, on, 0, false, no, off"


def _one_of(*choices: str):
    """Converter accepting only ``choices``; a config value outside them
    becomes a line-numbered FormatError through ``convert``."""
    def conv(raw: str) -> str:
        if raw not in choices:
            raise ValueError(raw)
        return raw
    conv.__name__ = "one of " + ", ".join(choices)
    conv.choices = choices
    return conv


def _header(command: str, resolved: dict) -> tuple[str, ...]:
    return (f"eitkit {__version__}", f"command = {command}",
            *(f"{key} = {resolved[key]}" for key in sorted(resolved)))


# ---------------------------------------------------------------- mesh ----


def cmd_mesh_gen(args, resolved: dict, header: tuple[str, ...]) -> int:
    mesh = build_disk_mesh(resolved["radius"], resolved["refine"], resolved["electrodes"])
    save_mesh(mesh, resolved["out"], header_lines=header)
    print(f"wrote {resolved['out']}: {mesh.n_nodes} nodes, {mesh.n_elements} elements, "
          f"{len(mesh.boundary_nodes)} boundary nodes, {len(mesh.electrodes)} electrodes")
    return 0


def cmd_mesh_validate(args, resolved: dict, header: tuple[str, ...]) -> int:
    mesh = parse_mesh_file(args.path)
    report = validate(mesh)
    print(str(report))
    return 0 if report.ok else 2


# ------------------------------------------------------------- forward ----


def _check_sigma(eid: int, sigma: float) -> float:
    """``sigma``, if it is a positive, finite conductivity for element ``eid``."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainError(f"conductivity of element {eid} must be positive and finite, got {sigma!r}")
    return sigma


def _load_sigma_csv(path, mesh: Mesh) -> np.ndarray:
    """One ``element,sigma`` row per mesh element, after an optional header;
    a repeated row, an element id not on the mesh, or a conductivity that is
    not positive and finite is a line-numbered error."""
    ids = {e.id for e in mesh.elements}
    values: dict[int, float] = {}
    for k, (line_no, text) in enumerate(data_lines(read_lines(path))):
        if k == 0 and text.lower().replace(" ", "") == "element,sigma":
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise FormatError(f"expected 'element,sigma', got {text!r}", line_no=line_no)
        eid = convert(parts[0], int, line_no, "element")
        if eid not in ids:
            raise FormatError(f"element {eid} is not on the mesh", line_no=line_no)
        sigma = _at_line(line_no, _check_sigma, eid, convert(parts[1], float, line_no, "sigma"))
        put_once(values, eid, sigma, line_no, "element")
    missing = [e.id for e in mesh.elements if e.id not in values]
    if missing:
        raise FormatError(f"sigma file is missing element(s) {missing[:8]}")
    return np.array([values[e.id] for e in mesh.elements])


def _load_pattern_file(path, mesh: Mesh) -> CurrentPattern:
    """One ``<electrode>: <amps>`` entry per line, naming an electrode on the mesh."""
    currents: dict[int, float] = {}
    for line_no, text in data_lines(read_lines(path)):
        is_node, eid, amp = _pattern_entry(text, line_no)
        if is_node or eid not in mesh.electrode_map:
            raise FormatError(f"expected '<mesh electrode>: <amps>', got {text!r}", line_no=line_no)
        currents[eid] = currents.get(eid, 0.0) + amp
    return CurrentPattern(currents)


def cmd_forward(args, resolved: dict, header: tuple[str, ...]) -> int:
    if (resolved["sigma"] is None) == (resolved["uniform"] is None):
        raise UsageError(f"{args.command_path} needs exactly one of --sigma or --uniform")

    mesh = load_mesh(resolved["mesh"])
    if resolved["uniform"] is not None:
        field = uniform_field(mesh, resolved["uniform"])
    else:
        field = _load_sigma_csv(resolved["sigma"], mesh)
    pattern = _load_pattern_file(resolved["pattern"], mesh)
    ground = resolved["ground"] if resolved["ground"] is not None else mesh.nodes[0].id
    reference = resolved["reference"] if resolved["reference"] is not None else min(mesh.electrode_map)

    system = apply_pattern(assemble(mesh, field), mesh, pattern, ground)
    solution = solve_forward(system)
    voltages = measure(solution, mesh, reference)

    electrode_ids = [eid for eid in sorted(mesh.electrode_map) if eid != reference]
    lines = ["electrode,voltage"] + [f"{eid},{v:.17g}" for eid, v in zip(electrode_ids, voltages)]
    write_lines(resolved["out"], lines, header)
    print(f"wrote {resolved['out']}: {voltages.size} voltages, "
          f"solve residual {solution.residual_inf:.3g}")
    return 0


# ---------------------------------------------------------------- demo ----


def cmd_demo(args, resolved: dict, header: tuple[str, ...]) -> int:
    tol = resolved["tolerance"]
    if not (np.isfinite(tol) and tol >= 0):  # a NaN tolerance would pass every claim
        raise UsageError(f"--tolerance must be finite and at least 0, got {tol}")
    d = resolved["d"]

    mixing, generator = make_demo_fixture()
    ensemble = generator(resolved["repeats"])
    m = ensemble.channel_count
    stat = correlation(ensemble)
    decomposition = truncated_svd(stat, d)
    projector = build_projector(decomposition.R, d)
    candidates = extract_candidates(projector, m, d)
    basis_shape = (projector.channel_count * projector.rank, projector.rank ** 2)

    print("\n".join(f"# {line}" for line in header))
    print(f"channels M={m}, rank d={d}, basis factor shape {basis_shape}")
    for k, (mat, lam) in enumerate(zip(candidates.candidates, candidates.eigenvalues)):
        print(f"candidate {k} (eigenvalue {lam:.3e}):")
        print("\n".join("  " + "  ".join(f"{v: .6f}" for v in row) for row in mat))
    residuals = [fitting_residual(mat, decomposition) for mat in candidates.candidates]
    print(f"max fit residual over candidates: {max(residuals):.3e}")
    print(f"solution set is non-unique: all {len(candidates.candidates)} candidates "
          "minimize the fit exactly")

    if d != 3:
        print(f"claim checks skipped: d={d} overrides the canonical d=3 setup")
        return 0

    if basis_shape != (12, 9):
        raise DemoClaimError(f"basis factor shape {basis_shape}, expected (12, 9)")
    if len(candidates.candidates) != 9:
        raise DemoClaimError(f"{len(candidates.candidates)} candidates, expected 9")
    for k, mat in enumerate(candidates.candidates):
        if mat.shape != (4, 3):
            raise DemoClaimError(f"candidate {k} has shape {mat.shape}, expected (4, 3)")
        flat = np.abs(mat).ravel()
        peak = int(np.argmax(flat))
        if abs(flat[peak] - 1.0) > tol:
            raise DemoClaimError(
                f"candidate {k}: largest entry magnitude {float(flat[peak])!r} is not 1.0 within {tol:g}"
            )
        rest = np.delete(flat, peak)
        if rest.size and float(rest.max()) > DEMO_OFF_ENTRY_TOL:
            raise DemoClaimError(
                f"candidate {k}: second-largest entry {float(rest.max()):.3e} exceeds "
                f"{DEMO_OFF_ENTRY_TOL:g}"
            )
    worst = max(residuals)
    if worst > DEMO_RESIDUAL_TOL:
        raise DemoClaimError(f"candidate fit residual {worst:.3e} exceeds {DEMO_RESIDUAL_TOL:g}")
    print("all claims hold: 12x9 factor, 9 single-entry unit candidates, exact fits")
    return 0


# --------------------------------------------------------- reconstruct ----


def cmd_reconstruct_svd(args, resolved: dict, header: tuple[str, ...]) -> int:
    if resolved["demo_fixture"] and resolved["ensemble"]:
        raise UsageError("give either --ensemble or --demo-fixture, not both")
    if resolved["demo_fixture"]:
        _, generator = make_demo_fixture()
        ensemble = generator()
    elif resolved["ensemble"]:
        ensemble = load_ensemble(resolved["ensemble"])
    else:
        raise UsageError(f"{args.command_path} needs --ensemble or --demo-fixture")

    d = resolved["d"]
    if resolved["statistic"] == "correlation":
        matrix = correlation(ensemble, center=resolved["center"]).matrix
    elif resolved["statistic"] == "cumulant":
        matrix = third_cumulants(ensemble).matrix(resolved["cumulant_index"])
    else:
        matrix = third_cumulants(ensemble).pooled()

    decomposition = truncated_svd(matrix, d)
    projector = build_projector(decomposition.R, d)
    candidates = extract_candidates(projector, ensemble.channel_count, d)
    save_candidates(candidates, resolved["out"], header_lines=header)

    residuals = [fitting_residual(mat, decomposition) for mat in candidates.candidates]
    print(f"wrote {resolved['out']}: {len(candidates.candidates)} candidate matrices")
    print(f"non-uniqueness notice: the subspace fit admits d^2 = {d * d} solutions; "
          f"max residual {max(residuals):.3e}. A single injection cannot pick one; "
          "extra injections (multifreq) can.")
    return 0


def render_element_field(mesh: Mesh, values: np.ndarray, pixels: int):
    """Rasterize a per-element field onto a square pixel grid.

    ``values`` holds one entry per element. Gray levels map the field range
    linearly to 0..255 (mid-gray 128 when the field is constant); pixels
    outside every element are 0. A pixel is inside an element when its
    barycentric coordinates pass with a 1e-12 tolerance; a pixel inside
    several elements (on a shared edge or vertex) takes the lowest-index one.

    Each element is tested only against the pixels of its bounding box,
    widened by 1e-9 of the mesh's bounding-box diagonal so that every pixel
    the tolerance admits is a candidate. The element-pixel pairs are
    tested in blocks of about ``RENDER_PAIR_BUDGET``, so the cost is
    O(P² + pairs) and the memory O(P²) plus one block.
    Returns (grid, (vmin, vmax)).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_elements,):
        raise DimensionError(f"need one value per element ({mesh.n_elements}), got shape {values.shape}")
    lo = mesh.coords.min(axis=0)
    hi = mesh.coords.max(axis=0)
    xs = np.linspace(lo[0], hi[0], pixels)
    ys = np.linspace(hi[1], lo[1], pixels)  # top row of the image is max y

    vmin, vmax = float(values.min()), float(values.max())
    if vmax > vmin:
        grays = np.rint((values - vmin) / (vmax - vmin) * 255).astype(int)
    else:
        grays = np.full(values.shape, 128, dtype=int)

    n_e = mesh.n_elements
    tri = mesh.coords[mesh.triangles]
    ax, ay = tri[:, 0, 0], tri[:, 0, 1]
    bax, bay = tri[:, 1, 0] - ax, tri[:, 1, 1] - ay
    cax, cay = tri[:, 2, 0] - ax, tri[:, 2, 1] - ay
    det = bax * cay - cax * bay

    # candidate columns [c0, c0 + width) and rows [r0, r1) of each element's
    # box; ys descends, so rows are found on its ascending reverse
    margin = 1e-9 * mesh.bounding_box_diagonal
    (x_lo, y_lo), (x_hi, y_hi) = tri.min(axis=1).T - margin, tri.max(axis=1).T + margin
    c0 = np.searchsorted(xs, x_lo, "left")
    width = np.searchsorted(xs, x_hi, "right") - c0
    r0 = pixels - np.searchsorted(ys[::-1], y_hi, "right")
    r1 = pixels - np.searchsorted(ys[::-1], y_lo, "left")
    counts = width * (r1 - r0)
    firsts = np.cumsum(counts) - counts  # each element's first pair
    del tri, x_lo, y_lo, x_hi, y_hi  # keeps the peak of the block loop low

    owner = np.full(pixels * pixels, n_e)  # n_e marks a pixel outside every element
    start = 0
    while start < n_e:
        stop = int(np.searchsorted(firsts, firsts[start] + RENDER_PAIR_BUDGET))
        e = np.repeat(np.arange(start, stop), counts[start:stop])
        pair = np.arange(firsts[start], firsts[start] + e.size) - firsts[e]  # index within its box
        row, col = np.divmod(pair, width[e])
        row += r0[e]
        col += c0[e]
        dx, dy = xs[col] - ax[e], ys[row] - ay[e]
        l1 = (dx * cay[e] - cax[e] * dy) / det[e]
        l2 = (bax[e] * dy - dx * bay[e]) / det[e]
        inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1 + 1e-12)
        np.minimum.at(owner, (row * pixels + col)[inside], e[inside])
        start = stop
    grid = np.append(grays, 0)[owner]
    return grid.reshape(pixels, pixels), (vmin, vmax)


def _write_pgm(path, grid: np.ndarray, header_lines: tuple[str, ...]) -> None:
    """Plain (P2) PGM; each image row's gray levels, 0..255, are wrapped
    greedily into lines of at most 70 characters.

    The body is built in one pass over all pixels from the 256-entry table
    ``_PGM_TOKENS``: each gray level's digits and a trailing space, four
    bytes a pixel with zeros as padding. A line that starts at offset ``b``
    of its row takes every token whose end, trailing space included, is at
    most ``b + 71``; one search over all rows' cumulative token ends finds
    that break for every row at once, so the loop runs once per output line
    of the longest row, not once per pixel. The space after the last token
    of a line becomes a newline, the padding is dropped, and the body is
    written as one ASCII buffer.
    """
    h, w = grid.shape
    head = ["P2", *(f"# {line}" for line in header_lines), f"{w} {h}", "255"]
    gray = np.asarray(grid).ravel()
    if gray.size and not (0 <= gray.min() and gray.max() <= 255):
        raise DomainError(f"PGM gray levels must lie in 0..255, got {gray.min()}..{gray.max()}")
    chars = _PGM_TOKENS.view(np.uint32)[gray].view(np.uint8)  # (h w, 4)
    # each token's end past its row's start, with its space; rows are set
    # apart far enough that no line's search runs into the next row
    stride = 4 * w + 71
    lengths = np.count_nonzero(_PGM_TOKENS, axis=1)[gray].reshape(h, w)
    ends = (np.cumsum(lengths, axis=1) + stride * np.arange(h)[:, None]).ravel()
    last = np.arange(1, h + 1) * w - 1  # each row's last token
    start, rows = stride * np.arange(h), np.arange(h if w else 0)
    while rows.size:
        stop = np.searchsorted(ends, start + 71, side="right") - 1
        chars[stop, 3] = ord("\n")
        more = stop < last[rows]
        start, rows = ends[stop[more]], rows[more]
    body = chars[chars != 0].tobytes().decode("ascii")
    write_lines(path, head + ([body[:-1]] if body else [""] * h))


def cmd_reconstruct_multifreq(args, resolved: dict, header: tuple[str, ...]) -> int:
    if resolved["pixels"] < 1:
        raise UsageError(f"--pixels must be at least 1, got {resolved['pixels']}")

    mesh = load_mesh(resolved["mesh"])
    config, tissue = load_sweep_config(resolved["sweep"], mesh)
    stacked = simulate_sweep(mesh, tissue, config)
    solve = stack_solve(stacked)
    recovered = recover_conductivity(solve.S_hat, mesh, solve_residual=solve.residual)

    diagnostics = [
        f"matrix_solve_residual = {solve.residual:.17g}",
        f"assembly_fit_residual = {recovered.fit_residual:.17g}",
        f"sigma_spread = {stacked.sigma_spread:.17g}",
    ]
    if recovered.negative_elements:
        diagnostics.append(f"negative_elements = {list(recovered.negative_elements)}")
    lines = ["element,sigma"] + [f"{e.id},{v:.17g}" for e, v in zip(mesh.elements, recovered.sigma)]
    write_lines(resolved["out_sigma"], lines, header + tuple(diagnostics))

    grid, (vmin, vmax) = render_element_field(mesh, recovered.sigma, resolved["pixels"])
    _write_pgm(
        resolved["out_image"],
        grid,
        header + (f"sigma_range = [{vmin:.17g}, {vmax:.17g}]",),
    )

    print(f"wrote {resolved['out_sigma']} and {resolved['out_image']}")
    print(f"injections: {stacked.n_injections}, matrix residual {solve.residual:.3e}, "
          f"fit residual {recovered.fit_residual:.3e}, sigma spread {stacked.sigma_spread:.3e}")
    if recovered.negative_elements:
        print(f"warning: negative estimates at elements {list(recovered.negative_elements)}")
    return 0


# ---------------------------------------------------------------- main ----


# command path -> (handler, help, {flag dest: (default, converter, help)}),
# the handler called as handler(args, resolved flags, header lines); every
# command also takes --config and --seed
_COMMANDS = {
    "mesh gen": (cmd_mesh_gen, "build a disk mesh", {
        "radius": (1.0, float, "disk radius in meters"),
        "refine": (0, int, "subdivision levels"),
        "electrodes": (8, int, "electrode count"),
        "out": (REQUIRED, str, "output mesh file"),
    }),
    "mesh validate": (cmd_mesh_validate, "check a mesh file and print the report", {}),
    "forward": (cmd_forward, "solve one drive pattern and write electrode voltages", {
        "mesh": (REQUIRED, str, "mesh file"),
        "sigma": (None, str, "per-element conductivity CSV"),
        "uniform": (None, float, "uniform conductivity in S/m"),
        "pattern": (REQUIRED, str, "pattern file: '<electrode>: <amps>' lines"),
        "ground": (None, int, "node pinned to zero potential"),
        "reference": (None, int, "reference electrode for voltages (default: lowest id)"),
        "out": (REQUIRED, str, "output voltage CSV"),
    }),
    "demo": (cmd_demo, "run the canonical 4-channel/3-source subspace demonstration and "
             "check its claims", {
        "tolerance": (1e-8, float, "tolerance on the unit entries"),
        "d": (3, int, "override the subspace rank"),
        "repeats": (1, int, "ensemble design repeats"),
    }),
    "reconstruct svd": (cmd_reconstruct_svd, "emit the full candidate set of the subspace fit", {
        "ensemble": (None, str, "measurement ensemble CSV"),
        "demo_fixture": (False, _as_bool, "use the canonical demonstration ensemble"),
        "d": (3, int, "signal-subspace rank"),
        "statistic": ("correlation", _one_of(*STATISTICS), "statistic fed to the decomposition"),
        "cumulant_index": (0, int, "which cumulant matrix, 0..M-1, when --statistic cumulant"),
        "center": (False, _as_bool, "remove the sample mean before the correlation"),
        "out": (REQUIRED, str, "candidate-set CSV output"),
    }),
    "reconstruct multifreq": (cmd_reconstruct_multifreq, "simulate a sweep, solve the stack, "
                              "recover sigma", {
        "mesh": (REQUIRED, str, "mesh file"),
        "sweep": (REQUIRED, str, "sweep config file"),
        "out_sigma": (REQUIRED, str, "recovered sigma CSV"),
        "out_image": (REQUIRED, str, "grayscale PGM image"),
        "pixels": (120, int, "image width/height, at least 1"),
    }),
}


def main(argv=None) -> int:
    parser, rest = _parser(list(sys.argv[1:] if argv is None else argv))
    args = parser.parse_args(rest)

    try:
        resolved = _resolve(args, args.command_path)
        code = _COMMANDS[args.command_path][0](args, resolved, _header(args.command_path, resolved))
    except RankDeficiencyError as exc:
        print(f"eitkit: rank deficiency: {exc}", file=sys.stderr)
        code = 4
    except DemoClaimError as exc:
        print(f"eitkit: demonstration claim failed: {exc}", file=sys.stderr)
        code = 3
    except EitError as exc:
        print(f"eitkit: error: {exc}", file=sys.stderr)
        code = 2
    except (OSError, UsageError) as exc:
        print(f"eitkit: error: {exc}", file=sys.stderr)
        code = 1
    print(f"finished at {datetime.now(timezone.utc).isoformat()}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
