"""Command line entry point.

One binary, eight subcommands: probe, tree, export-dot, discover, plan,
serve-redirect, run, gen. Data goes to stdout (or --out), diagnostics to
stderr. Exit codes: 0 success, 1 operational error, 2 usage error.
"""
from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import itertools
import json
import logging
import math
import os
import signal
import socket
import sys
import time
from pathlib import Path

from .discovery import FixtureWhois, discover_local_edges
from .errors import EdiscoError, InvalidPeriodError
from .placement import FixtureCapacityService, load_service_profiles, plan_round
from .probing import ProbeConfig, TracerouteProber
from .redirect import FrontEnd, RedirectService, rules_from_plan_document
from .rounds import (
    MIN_PERIOD_S,
    RoundConfig,
    append_journal,
    discover_phase,
    load_json,
    load_run_config,
    make_resolver,
    parse_listen,
    run_every,
    run_round,
)
from .simharness import ScenarioSpec, generate_scenario, validate_bundle
from .topology import (
    DEFAULT_PREFIX_LEN,
    AggregationTree,
    address_int,
    build_tree,
    compute_centrality,
    export_dot,
    ingest_recorded_paths,
    paths_to_document,
)

logger = logging.getLogger(__name__)


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _emit_document(args, document):
    _emit(args, json.dumps(document, indent=2, sort_keys=True))


def _from_flags(cls, args):
    """A `cls` dataclass built from the parsed flags named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _load_tree(args) -> AggregationTree:
    if getattr(args, "tree", None):  # `tree` takes no --tree
        return AggregationTree.from_document(load_json(args.tree))
    if args.traces and args.root:
        paths = ingest_recorded_paths(load_json(args.traces))
        return compute_centrality(build_tree(paths, args.root, args.prefix_len))
    raise EdiscoError("need either --tree or both --traces and --root")


# -- subcommand handlers -------------------------------------------------------


def cmd_probe(args) -> int:
    try:
        for client in args.clients:
            address_int(client)
        config = _from_flags(ProbeConfig, args)
    except ValueError as exc:
        print(f"edisco probe: {exc}", file=sys.stderr)
        return 2
    prober = TracerouteProber(config)
    paths = []
    for client in args.clients:
        try:
            paths.append(prober.probe(client))
        except (EdiscoError, OSError) as exc:
            print(f"edisco probe: {client}: {exc}", file=sys.stderr)
            return 1
    if args.json:
        _emit_document(args, paths_to_document(paths))
        return 0
    lines = []
    for path in paths:
        lines.append(f"# {path.client}" + (" (truncated)" if path.truncated else ""))
        for ttl, hop in enumerate(path.hops, start=1):
            if hop.known:
                lines.append(f"{ttl:3d}  {hop.address:<15s}  {hop.rtt_ms:.2f} ms")
            else:
                lines.append(f"{ttl:3d}  *")
    _emit(args, "\n".join(lines))
    return 0


def cmd_tree(args) -> int:
    _emit_document(args, _load_tree(args).to_document())
    return 0


def cmd_export_dot(args) -> int:
    _emit(args, export_dot(_load_tree(args)))
    return 0


def cmd_discover(args) -> int:
    servers = discover_local_edges(args.domain, make_resolver(args.zone))
    if args.transport != "both":
        servers = [s for s in servers if s.protocol.value == args.transport]
    if not servers:
        print(f"no edge servers advertised for {args.domain}", file=sys.stderr)
    if args.json:
        _emit_document(args, [s.to_document() for s in servers])
        return 0
    lines = [f"{'PRIO':>4}  {'WEIGHT':>6}  {'PORT':>5}  {'ADDRESS':<15}  PROTO  ZONE"]
    for s in servers:
        lines.append(
            f"{s.priority:>4}  {s.weight:>6}  {s.port:>5}  {s.address:<15}"
            f"  {s.protocol.value:<5}  {s.zone}"
        )
    _emit(args, "\n".join(lines))
    return 0


def cmd_plan(args) -> int:
    if args.whois and not args.zone:
        print("edisco plan: --whois needs --zone", file=sys.stderr)
        return 2
    tree = _load_tree(args)
    if args.zone:
        whois = FixtureWhois(load_json(args.whois)) if args.whois else None
        discover_phase(tree, make_resolver(args.zone), whois)
    services = load_service_profiles(load_json(args.services))
    capacity = FixtureCapacityService(load_json(args.capacity))
    plan = plan_round(tree, services, capacity, round_id=args.round_id)
    _emit_document(args, plan.to_document())
    if plan.unplaced:
        print(f"unplaced: {', '.join(plan.unplaced)}", file=sys.stderr)
    return 0


def _exit_by_signal(signum, frame):
    """Ctrl-C and SIGTERM in the edisco program, as Python's defaults act."""
    if signum == signal.SIGINT:
        raise KeyboardInterrupt
    signal.signal(signum, signal.SIG_DFL)
    signal.raise_signal(signum)


async def _serve(service: RedirectService, listen, banner, until=asyncio.Event.wait) -> int:
    """Bind the front end, print banner(url) to stderr and serve on this
    asyncio loop until `until(stopping)` returns. The loop owns Ctrl-C and
    SIGTERM, and any number of them only sets `stopping`. serve-redirect
    waits for the event itself; run waits for run_every, which returns once
    the round in progress has journaled, so the front end serves until then.
    Then the front end closes and the previous handlers come back; in place
    of `_exit_by_signal` the program ignores the signal for the rest of its
    exit, so a repeated one cannot end it otherwise."""
    sock = socket.create_server(listen)
    front = await FrontEnd(service).start(sock)
    loop, stopping = asyncio.get_running_loop(), asyncio.Event()
    previous = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    for sig in previous:
        loop.add_signal_handler(sig, stopping.set)
    try:
        host, port = sock.getsockname()[:2]
        print(banner(f"http://{host}:{port}"), file=sys.stderr)
        await until(stopping)
    finally:
        await front.close()
        for sig, handler in previous.items():
            loop.remove_signal_handler(sig)  # leaves the default, not `previous`
            signal.signal(sig, signal.SIG_IGN if handler is _exit_by_signal else handler)
    return 0


def cmd_serve_redirect(args) -> int:
    if not 0 < args.period_s < math.inf:  # nan fails both comparisons
        print("edisco serve-redirect: --period-s must be positive and finite", file=sys.stderr)
        return 2
    service = rules_from_plan_document(load_json(args.plan), time.time() + args.period_s)
    return asyncio.run(_serve(
        service,
        args.listen,
        lambda url: f"serving {service.rule_count} rules on {url} until +{args.period_s:.0f}s",
    ))


def cmd_run(args) -> int:
    config_path = args.config or os.environ.get("EDISCO_CONFIG")
    if not config_path:
        print(
            "edisco run: no --config given and EDISCO_CONFIG is unset",
            file=sys.stderr,
        )
        return 2
    setup = load_run_config(config_path)
    redirect = RedirectService()

    round_ids = itertools.count(1)

    def journaled_round():
        record = run_round(
            setup.config,
            setup.services,
            setup.make_providers(),
            redirect=redirect,
            round_id=next(round_ids),
        )
        if args.journal:
            append_journal(args.journal, record)
        return record

    if args.once:
        _emit_document(args, journaled_round().to_document())
        return 0

    def one_round():
        record = journaled_round()
        print(
            f"round {record.round_id}: digest {record.tree_digest[:12]}, "
            f"{len(record.plan.assignments)} assignments",
            file=sys.stderr,
        )

    period_s = setup.config.period_s
    if period_s < MIN_PERIOD_S:  # checked before the front end binds
        raise InvalidPeriodError(f"period {period_s}s is below the {MIN_PERIOD_S}s minimum")
    rounds = functools.partial(run_every, period_s, one_round)
    return asyncio.run(_serve(redirect, setup.listen, lambda url: f"redirect service on {url}", rounds))


def cmd_gen(args) -> int:
    spec = _from_flags(ScenarioSpec, args)
    bundle = generate_scenario(spec, include_expected=not args.no_expected)
    violations = validate_bundle(bundle)
    if violations:
        for v in violations:
            print(f"invalid bundle: {v.location}: {v.message}", file=sys.stderr)
        return 1
    files = bundle.write(args.out)
    if args.json:
        summary = {
            "directory": str(args.out),
            "files": [f.name for f in files],
            "clients": len(bundle.clients),
            "root": bundle.root_address,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"wrote {len(files)} files to {args.out}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edisco",
        description="Edge discovery and deployment: probe paths, build "
        "aggregation trees, discover edge servers, place services, and "
        "serve redirects.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="debug logging on stderr"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    p = sub.add_parser("probe", help="traceroute one or more clients (needs raw sockets)")
    p.add_argument("clients", nargs="+", metavar="CLIENT")
    p.add_argument("--method", choices=["udp", "icmp"], default=ProbeConfig.method)
    p.add_argument("--max-ttl", type=int, default=ProbeConfig.max_ttl)
    p.add_argument(
        "--probes", type=int, default=ProbeConfig.probes_per_hop, help="probes per hop",
        dest="probes_per_hop", metavar="PROBES",
    )
    p.add_argument("--timeout-s", type=float, default=ProbeConfig.timeout_s)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("tree", help="build an aggregation tree from recorded traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--prefix-len", type=int, default=DEFAULT_PREFIX_LEN)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("export-dot", help="render a tree as Graphviz DOT")
    p.add_argument("--tree", help="tree document file")
    p.add_argument("--traces", help="build the tree from traces instead")
    p.add_argument("--root")
    p.add_argument("--prefix-len", type=int, default=DEFAULT_PREFIX_LEN)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("discover", help="query _edge SRV records for a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--zone", help="zone fixture file (live DNS when omitted)")
    p.add_argument("--transport", choices=["tcp", "udp", "both"], default="both")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("plan", help="rank, score, and negotiate one deployment plan")
    p.add_argument("--tree", help="tree document (already annotated or with --zone)")
    p.add_argument("--traces", help="build the tree from traces instead")
    p.add_argument("--root")
    p.add_argument("--prefix-len", type=int, default=DEFAULT_PREFIX_LEN)
    p.add_argument("--zone", help="zone fixture for annotation")
    p.add_argument("--whois", help="whois fixture for annotation")
    p.add_argument("--services", required=True)
    p.add_argument("--capacity", required=True)
    p.add_argument("--round-id", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("serve-redirect", help="serve HTTP redirects from a plan")
    p.add_argument("--plan", required=True)
    p.add_argument(
        "--listen", type=parse_listen, default=("127.0.0.1", 8302), metavar="HOST:PORT"
    )
    p.add_argument("--period-s", type=float, default=RoundConfig.period_s)
    p.set_defaults(func=cmd_serve_redirect)

    p = sub.add_parser("run", help="run protocol rounds from a config")
    p.add_argument("--config", help="config file (default: $EDISCO_CONFIG)")
    p.add_argument("--once", action="store_true", help="single round, then exit")
    p.add_argument("--journal", help="append RoundRecords to this JSON-lines file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="generate a deterministic scenario bundle")
    p.add_argument("--clients", type=int, required=True)
    p.add_argument("--seed", type=int, default=ScenarioSpec.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--services", type=int, default=ScenarioSpec.services)
    p.add_argument("--depth-min", type=int, default=ScenarioSpec.depth_min)
    p.add_argument("--depth-max", type=int, default=ScenarioSpec.depth_max)
    p.add_argument("--branching", type=int, default=ScenarioSpec.branching)
    p.add_argument("--edge-density", type=float, default=ScenarioSpec.edge_density)
    p.add_argument("--unknown-hop-rate", type=float, default=ScenarioSpec.unknown_hop_rate)
    p.add_argument("--ptr-missing-rate", type=float, default=ScenarioSpec.ptr_missing_rate)
    p.add_argument("--no-expected", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if hasattr(args, "prefix_len") and not 0 <= args.prefix_len <= 32:  # before any read
        print(f"edisco {args.subcommand}: --prefix-len must be 0..32", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (EdiscoError, OSError) as exc:
        print(f"edisco: {exc}", file=sys.stderr)
        return 1


def program() -> int:
    """main() as the edisco program (console script, python -m edisco). Its
    Ctrl-C and SIGTERM act as Python's defaults until a serving loop owns
    them, and are ignored once that loop has stopped (see _serve); a Ctrl-C
    it has not handled ends it with one line and exit status 130."""
    defaults = {signal.SIGINT: signal.default_int_handler, signal.SIGTERM: signal.SIG_DFL}
    for sig, default in defaults.items():
        if signal.getsignal(sig) is default:  # not one the parent set to SIG_IGN
            signal.signal(sig, _exit_by_signal)
    try:
        return main()
    except KeyboardInterrupt:
        print("edisco: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(program())
