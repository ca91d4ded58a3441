"""Command-line interface: one subcommand per module surface.

Every report is a single JSON document on stdout embedding a run manifest
(argv, seeds, version, wall time, file digests).  Exit codes: 0 success,
1 failed check, 2 usage error; errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, counting, density, numtheory, reproduce, search, spectral
from .constructions import (
    ConstructionError,
    ConstructionId,
    closed_form_count,
    generate,
)
from .counting import count_report
from .graphs import DIRECTED, ORIENTED, GraphError, read_graph, write_graph


class _JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        raise SystemExit(2)


class _Manifest:
    def __init__(self, argv, seed=None):
        self.argv = list(argv)
        self.seed = seed
        self.start = time.perf_counter()
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    @staticmethod
    def _digest(path: str) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def read_text(self, path: str) -> str:
        text = Path(path).read_text()
        self.inputs[path] = self._digest(path)
        return text

    def write_text(self, path: str, text: str):
        Path(path).write_text(text)
        self.outputs[path] = self._digest(path)

    def to_dict(self) -> dict:
        return {
            "argv": self.argv,
            "seed": self.seed,
            "version": __version__,
            "wall_time_s": round(time.perf_counter() - self.start, 4),
            "inputs": self.inputs,
            "outputs": self.outputs,
        }


def _emit(payload: dict, manifest: _Manifest) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest.to_dict()
    print(json.dumps(payload, sort_keys=True))


def _parse_construction(args) -> ConstructionId:
    return ConstructionId(args.construction, d=args.d, k=args.cycle, c=args.c,
                          t=args.t, variant=args.variant)


def _add_construction_flags(sub):
    sub.add_argument("--construction", required=True)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--cycle", type=int, default=None,
                     help="cycle-length parameter for sparse_singleton_blowup")
    sub.add_argument("--c", type=float, default=None)
    sub.add_argument("--t", type=int, default=None)
    sub.add_argument("--variant", default="adjacent")


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonArgumentParser(prog="dicycles")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", parents=[], help="generate a construction")
    _add_construction_flags(gen)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--out", default=None)

    count = subs.add_parser("count", help="cycle/walk/path counts")
    count.add_argument("--in", dest="infile", required=True)
    count.add_argument("--k", type=int, required=True)
    count.add_argument("--paths-up-to", type=int, default=None)
    count.add_argument("--per-arc", action="store_true")
    count.add_argument("--per-vertex", action="store_true")

    check = subs.add_parser("check", help="freeness and neighbor condition")
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--forbid", default="",
                       help="comma list, e.g. C4,C6,TT3")
    check.add_argument("--neighbor-k", type=int, default=None)
    check.add_argument("--neighbor-d", type=int, default=None)

    clear = subs.add_parser("clear", help="delete material on no k-cycle")
    clear.add_argument("--in", dest="infile", required=True)
    clear.add_argument("--k", type=int, required=True)
    clear.add_argument("--l", type=int, required=True)
    clear.add_argument("-o", "--out", default=None)

    frob = subs.add_parser("frobenius", help="representability query")
    frob.add_argument("--l", type=int, required=True)
    frob.add_argument("--gens", required=True, help="comma list, e.g. 3,5")

    predict = subs.add_parser("predict", help="extremal-value table row")
    predict.add_argument("--k", type=int, required=True)
    predict.add_argument("--l", type=int, required=True)
    predict.add_argument("--n", type=int, required=True)
    predict.add_argument("--mode", choices=[ORIENTED, DIRECTED], default=ORIENTED)

    opt = subs.add_parser("optimize", help="weights or threshold constant")
    opt.add_argument("--pattern", required=True,
                     help="c5c7 | c5c3 | cycle:<d> | hub:<t> | threshold")
    opt.add_argument("--k", type=int, default=5)
    opt.add_argument("--threshold-range", type=float, nargs=2, default=(0.0, 1.0))
    opt.add_argument("--resolution", type=int, default=512)

    spec = subs.add_parser("spectral", help="eigenvalues and bipartite bounds")
    spec.add_argument("--in", dest="infile", required=True)
    spec.add_argument("--k", type=int, default=None)

    srch = subs.add_parser("search", help="exhaustive or local extremal search")
    srch.add_argument("--n", type=int, required=True)
    srch.add_argument("--k", type=int, required=True)
    srch.add_argument("--forbid", required=True)
    srch.add_argument("--mode", choices=[ORIENTED, DIRECTED], default=ORIENTED)
    srch.add_argument("--local", action="store_true")
    srch.add_argument("--budget", type=int, default=100_000)
    srch.add_argument("--seed", type=int, default=0)

    rep = subs.add_parser("reproduce", help="run an acceptance check")
    rep.add_argument("target", choices=sorted(reproduce.REGISTRY) + ["all"])
    return parser


def _cmd_gen(args, manifest):
    cid = _parse_construction(args)
    g = generate(cid, args.n, seed=args.seed)
    text = write_graph(g)
    payload = {"construction": cid.label(), "n": g.n, "arcs": g.num_arcs}
    k = {"balanced_cycle_blowup": cid.d, "sparse_singleton_blowup": cid.k,
         "iterated_c4": 4, "c5c3_tournament_blobs": 5,
         "c5c7_bipartite_blobs": 5, "c3c6_sparse": 3, "c3_3t_sparse": 3,
         "c7_chords_blowup": 5, "threshold_c7": 5, "random_bipartite": None,
         "complete_bipartite_digraph": 4}[cid.kind]
    if k is not None:
        try:
            value = closed_form_count(cid, args.n, k)
        except (ConstructionError, GraphError, density.DensityError) as exc:
            payload["closed_form_error"] = f"{type(exc).__name__}: {exc}"
        else:
            if isinstance(value, int):
                payload["closed_form_count"] = {"k": k, "value": str(value)}
            else:
                payload["closed_form_count"] = {
                    "k": k, "value": float(value.value), "kind": value.kind}
    if args.out:
        manifest.write_text(args.out, text)
        sidecar = json.dumps(payload, sort_keys=True)
        manifest.write_text(args.out + ".json", sidecar)
    else:
        payload["graph"] = text
    _emit(payload, manifest)
    return 0


def _cmd_count(args, manifest):
    g = read_graph(manifest.read_text(args.infile))
    report = count_report(g, args.k, paths_up_to=args.paths_up_to,
                          per_arc=args.per_arc, per_vertex=args.per_vertex)
    _emit(report.to_dict(), manifest)
    return 0


def _cmd_check(args, manifest):
    if (args.neighbor_k is None) != (args.neighbor_d is None):
        raise ValueError("--neighbor-k and --neighbor-d must be given together")
    if not args.forbid and args.neighbor_k is None:
        raise ValueError("nothing to check: give --forbid, or --neighbor-k with --neighbor-d")
    g = read_graph(manifest.read_text(args.infile))
    payload: dict = {"n": g.n}
    ok = True
    if args.forbid:
        forb = search.parse_forbidden(args.forbid.split(","))
        rows = {}
        for item in forb:
            if item == search.TT3:
                present = search.has_transitive_triangle(g)
                rows["TT3"] = {"subgraph": present}
            else:
                present = counting.has_cycle_subgraph(g, item)
                rows[f"C{item}"] = {
                    "subgraph": present,
                    "closed_walk": counting.has_closed_walk(g, item),
                }
            ok = ok and not present
        payload["forbidden"] = rows
    if args.neighbor_k is not None:
        report = counting.check_neighbor_condition(g, args.neighbor_k, args.neighbor_d)
        payload["neighbor_condition"] = {
            "holds": report.holds, "limit": report.limit,
            "witness_vertex": report.witness_vertex,
            "witness_cycle": list(report.witness_cycle) if report.witness_cycle else None,
        }
        ok = ok and report.holds
    payload["passed"] = ok
    _emit(payload, manifest)
    return 0 if ok else 1


def _cmd_clear(args, manifest):
    g = read_graph(manifest.read_text(args.infile))
    result = counting.clear(g, args.k, args.l)
    if args.out:
        manifest.write_text(args.out, write_graph(result.cleared))
    _emit({
        "removed_arcs": result.removed_arcs,
        "removed_vertices": result.removed_vertices,
        "is_fixed_point": result.is_fixed_point,
        "ell_walk_free": result.ell_walk_free,
        "cleared_n": result.cleared.n,
        "cleared_arcs": result.cleared.num_arcs,
    }, manifest)
    return 0


def _cmd_frobenius(args, manifest):
    gens = tuple(int(x) for x in args.gens.split(","))
    result = numtheory.representable(numtheory.RepresentabilityQuery(args.l, gens))
    _emit(result.to_dict(), manifest)
    return 0


def _cmd_predict(args, manifest):
    row = numtheory.predicted_extremal(args.k, args.l, args.n, args.mode)
    _emit(row.to_dict(), manifest)
    return 0


def _cmd_optimize(args, manifest):
    from .constructions import c5c3_pattern, c5c7_pattern
    from .graphs import directed_cycle, uniform_pattern

    # the flag is read by the threshold pattern only, but is checked for all
    if args.resolution < 1:
        raise density.DensityError(f"resolution must be at least 1, got {args.resolution}")
    name = args.pattern
    if name == "threshold":
        result = density.optimize_threshold(tuple(args.threshold_range),
                                            resolution=args.resolution, k=args.k)
        _emit(result.to_dict(), manifest)
        return 0
    if name == "c5c7":
        model = density.density_model(c5c7_pattern(), args.k)
    elif name == "c5c3":
        model = density.density_model(c5c3_pattern(), args.k)
    elif name.startswith("cycle:"):
        d = int(name.split(":", 1)[1])
        model = density.density_model(uniform_pattern(directed_cycle(d)), args.k)
    elif name.startswith("hub:"):
        model = density.hub_split_model(int(name.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown pattern {name!r}")
    result = density.optimize_weights(model)
    _emit(result.to_dict(), manifest)
    return 0


def _cmd_spectral(args, manifest):
    g = read_graph(manifest.read_text(args.infile))
    spec = spectral.spectrum(g)
    payload = {
        "eigenvalues": [[z.real, z.imag] for z in spec.eigenvalues],
        "symmetrized": list(spec.symmetrized),
        "bipartition": list(spec.bipartition) if spec.bipartition else None,
    }
    if spec.bipartition is not None:
        payload["positive_sum"] = spectral.positive_real_part_sum(spec).to_dict()
    if args.k is not None:
        payload["hom_count"] = spectral.hom_count_via_spectrum(spec, args.k)
        if spec.bipartition is not None and args.k % 4 == 2:
            payload["cycle_bound"] = spectral.bipartite_cycle_bound(g, args.k).to_dict()
    _emit(payload, manifest)
    return 0


def _cmd_search(args, manifest):
    forbidden = args.forbid.split(",")
    if args.local:
        record = search.local_search_extremal(args.n, args.k, forbidden,
                                              args.budget, args.seed, args.mode)
    else:
        record = search.exhaustive_extremal(args.n, args.k, forbidden, args.mode,
                                            threads=args.threads)
    _emit(record.to_dict(), manifest)
    return 0


def _cmd_reproduce(args, manifest):
    names = sorted(reproduce.REGISTRY) if args.target == "all" else [args.target]
    results = [reproduce.run(name) for name in names]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.elapsed:.1f}s)", file=sys.stderr)
    _emit({"results": [r.to_dict() for r in results]}, manifest)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "check": _cmd_check,
    "clear": _cmd_clear,
    "frobenius": _cmd_frobenius,
    "predict": _cmd_predict,
    "optimize": _cmd_optimize,
    "spectral": _cmd_spectral,
    "search": _cmd_search,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    manifest = _Manifest(argv, seed=getattr(args, "seed", None))
    try:
        return _COMMANDS[args.command](args, manifest)
    except (ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
