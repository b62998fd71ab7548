import dataclasses
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from edisco.cli import build_parser, main
from edisco.errors import ProbePermissionError, ProbeTimeoutError
from edisco.probing import ProbeConfig
from edisco.rounds import RoundConfig
from edisco.simharness import ScenarioSpec, generate_scenario
from edisco.topology import AggregationTree, paths_to_document

from conftest import REFERENCE_ZONE, make_path


@pytest.fixture
def bundle_dir(tmp_path):
    bundle = generate_scenario(ScenarioSpec(clients=12, seed=7, services=3))
    bundle.write(tmp_path)
    return tmp_path, bundle


# -- exit code contract --------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["tree", "--bogus"]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["tree", "--root", "240.0.0.1"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["tree", "--help"]) == 0


def test_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    gen = parser.parse_args(["gen", "--clients", "5", "--out", "D"])
    probe = parser.parse_args(["probe", "10.0.0.1"])
    for args, expected in ((gen, ScenarioSpec(clients=5)), (probe, ProbeConfig())):
        for name, value in dataclasses.asdict(expected).items():
            flag = getattr(args, name)
            assert (name, flag, type(flag)) == (name, value, type(value))
    config = RoundConfig("240.0.0.1", ("240.0.0.2",))
    for argv in (
        ["tree", "--traces", "traces.json", "--root", "240.0.0.1"],
        ["export-dot"],
        ["plan", "--services", "services.json", "--capacity", "capacity.json"],
    ):
        assert parser.parse_args(argv).prefix_len == config.prefix_len
    period_s = parser.parse_args(["serve-redirect", "--plan", "P"]).period_s
    assert (period_s, type(period_s)) == (config.period_s, float)


def test_missing_fixture_file_is_operational_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["tree", "--traces", str(missing), "--root", "240.0.0.1"])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


# -- tree / export-dot -----------------------------------------------------------


def test_tree_emits_valid_document(bundle_dir, capsys):
    directory, bundle = bundle_dir
    code = main(
        [
            "tree",
            "--traces",
            str(directory / "traces.json"),
            "--root",
            bundle.root_address,
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "edisco-tree/1"
    tree = AggregationTree.from_document(doc)
    assert len(tree.client_paths) == len(bundle.clients)


def test_tree_refuses_conflicting_duplicate_traces(tmp_path, capsys):
    traces = tmp_path / "traces.json"
    traces.write_text(json.dumps(paths_to_document(
        [make_path("172.16.0.9", "10.1.0.1"), make_path("172.16.0.9", "10.2.0.1")]
    )))
    assert main(["tree", "--traces", str(traces), "--root", "240.0.0.1"]) == 1
    assert capsys.readouterr().err == (
        "edisco: entry 1: conflicting duplicate path for client 172.16.0.9, first in entry 0\n"
    )


def test_tree_out_writes_file(bundle_dir, tmp_path, capsys):
    directory, bundle = bundle_dir
    out = tmp_path / "tree.json"
    code = main(
        [
            "tree",
            "--traces",
            str(directory / "traces.json"),
            "--root",
            bundle.root_address,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # data went to the file, not stdout
    assert str(out) in captured.err
    assert json.loads(out.read_text())["format"] == "edisco-tree/1"


def test_export_dot_from_tree_document(bundle_dir, tmp_path, capsys):
    directory, bundle = bundle_dir
    tree_file = tmp_path / "tree.json"
    main(
        [
            "tree",
            "--traces",
            str(directory / "traces.json"),
            "--root",
            bundle.root_address,
            "--out",
            str(tree_file),
        ]
    )
    capsys.readouterr()
    assert main(["export-dot", "--tree", str(tree_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "->" in out


def test_export_dot_needs_a_source(capsys):
    assert main(["export-dot"]) == 1
    assert "--tree" in capsys.readouterr().err


# -- discover ---------------------------------------------------------------------


def test_discover_json_lists_servers(tmp_path, capsys):
    zone = tmp_path / "zone.txt"
    zone.write_text(REFERENCE_ZONE)
    code = main(
        ["discover", "--domain", "domainA.com", "--zone", str(zone), "--json"]
    )
    assert code == 0
    servers = json.loads(capsys.readouterr().out)
    assert len(servers) == 4  # two transports, two servers each
    assert {s["address"] for s in servers} == {"192.168.121.30", "192.168.121.31"}


def test_discover_transport_filter(tmp_path, capsys):
    zone = tmp_path / "zone.txt"
    zone.write_text(REFERENCE_ZONE)
    code = main(
        [
            "discover",
            "--domain",
            "domainA.com",
            "--zone",
            str(zone),
            "--transport",
            "tcp",
            "--json",
        ]
    )
    assert code == 0
    servers = json.loads(capsys.readouterr().out)
    assert len(servers) == 2
    assert all(s["protocol"] == "tcp" for s in servers)


def test_discover_human_table(tmp_path, capsys):
    zone = tmp_path / "zone.txt"
    zone.write_text(REFERENCE_ZONE)
    assert main(["discover", "--domain", "domainA.com", "--zone", str(zone)]) == 0
    out = capsys.readouterr().out
    assert "PRIO" in out.splitlines()[0]
    assert "192.168.121.30" in out


def test_discover_absent_domain_is_not_an_error(tmp_path, capsys):
    zone = tmp_path / "zone.txt"
    zone.write_text(REFERENCE_ZONE)
    code = main(
        ["discover", "--domain", "other.org", "--zone", str(zone), "--json"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == []
    assert "no edge servers" in captured.err


# -- plan ---------------------------------------------------------------------------


def plan_args(directory, bundle):
    return [
        "plan",
        "--traces",
        str(directory / "traces.json"),
        "--root",
        bundle.root_address,
        "--zone",
        str(directory / "zone.txt"),
        "--whois",
        str(directory / "whois.json"),
        "--services",
        str(directory / "services.json"),
        "--capacity",
        str(directory / "capacity.json"),
    ]


def test_plan_matches_expected_golden(bundle_dir, tmp_path, capsys):
    # the second bundle takes the whois fallback and splices silent hops
    degraded = generate_scenario(
        ScenarioSpec(
            clients=12, seed=7, services=3, ptr_missing_rate=0.5, unknown_hop_rate=0.1
        )
    )
    degraded.write(tmp_path / "degraded")
    for directory, bundle in (bundle_dir, (tmp_path / "degraded", degraded)):
        assert main(plan_args(directory, bundle)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == bundle.expected["plan"]


def test_plan_whois_without_zone_is_usage_error(bundle_dir, capsys):
    directory, bundle = bundle_dir
    args = plan_args(directory, bundle)
    zone = args.index("--zone")
    del args[zone : zone + 2]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--whois needs --zone" in captured.err


def test_plan_strategy_flag_is_gone(bundle_dir, capsys):
    directory, bundle = bundle_dir
    assert main(plan_args(directory, bundle) + ["--strategy", "x"]) == 2


def assert_one_error_line(captured, *words):
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("edisco: ")
    assert "Traceback" not in captured.err
    for word in words:
        assert word in lines[0]


def test_plan_rejects_malformed_tree_document(bundle_dir, tmp_path, capsys):
    directory, bundle = bundle_dir
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "edisco-tree/1"}))
    args = plan_args(directory, bundle)
    args[1:5] = ["--tree", str(bad)]
    assert main(args) == 1
    assert_one_error_line(capsys.readouterr(), "is missing")


def test_plan_rejects_tree_edge_server_that_is_no_address(bundle_dir, tmp_path, capsys):
    directory, bundle = bundle_dir
    tree_file = tmp_path / "tree.json"
    args = ["tree", "--traces", str(directory / "traces.json"), "--root", bundle.root_address]
    assert main(args + ["--out", str(tree_file)]) == 0
    capsys.readouterr()
    doc = json.loads(tree_file.read_text())
    root = next(n for n in doc["nodes"] if n["subnet"] == doc["root_subnet"])
    root["edge_servers"] = [
        {"zone": "edgeco.test", "protocol": "tcp", "priority": 10, "weight": 10,
         "address": address, "port": 8080}
        for address in ("x", "y")
    ]
    tree_file.write_text(json.dumps(doc))
    args = plan_args(directory, bundle)
    del args[1 : args.index("--services")]
    assert main(args[:1] + ["--tree", str(tree_file)] + args[1:]) == 1
    assert_one_error_line(capsys.readouterr(), "edge server", "'x' is not an IPv4 address")


def test_broken_services_json_is_operational_error(bundle_dir, capsys):
    directory, bundle = bundle_dir
    services = directory / "services.json"
    services.write_text(services.read_text()[:-20])  # truncated mid-document
    assert main(plan_args(directory, bundle)) == 1
    assert_one_error_line(capsys.readouterr(), str(services), "not valid JSON")
    assert main(["run", "--config", str(directory / "config.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), str(services), "not valid JSON")


def test_non_string_service_id_is_operational_error(bundle_dir, capsys):
    directory, bundle = bundle_dir
    services = directory / "services.json"
    doc = json.loads(services.read_text())
    doc[-1]["service_id"] = 7
    services.write_text(json.dumps(doc))
    assert main(plan_args(directory, bundle)) == 1
    assert_one_error_line(capsys.readouterr(), f"service entry {len(doc) - 1}", "'service_id'")
    assert main(["run", "--config", str(directory / "config.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), f"service entry {len(doc) - 1}", "'service_id'")


def test_repeated_service_id_is_refused_before_run_binds(bundle_dir, capsys, monkeypatch):
    def no_bind(*args, **kwargs):
        raise AssertionError("the front end bound")

    monkeypatch.setattr("edisco.cli.socket.create_server", no_bind)
    directory, _ = bundle_dir
    services = directory / "services.json"
    doc = json.loads(services.read_text())
    doc.append(dict(doc[0]))
    services.write_text(json.dumps(doc))
    assert main(["run", "--config", str(directory / "config.json")]) == 1
    assert_one_error_line(
        capsys.readouterr(), f"service entry {len(doc) - 1}: service_id", "repeats entry 0"
    )


def test_non_ascii_ttl_in_zone_is_operational_error(bundle_dir, capsys):
    directory, _ = bundle_dir
    zone = directory / "zone.txt"
    lines = zone.read_text().splitlines() + ["x.test. \u00b2 IN A 10.0.0.1"]
    zone.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(directory / "config.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), f"line {len(lines)}:", "missing TTL")


def test_non_utf8_client_list_is_operational_error(bundle_dir, capsys):
    directory, _ = bundle_dir
    clients = directory / "clients.txt"
    clients.write_bytes(clients.read_bytes() + b"\xff\n")
    assert main(["run", "--config", str(directory / "config.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), str(clients), "not UTF-8")


@pytest.mark.parametrize("command", ["run", "plan", "discover"])
def test_non_utf8_zone_is_operational_error(bundle_dir, capsys, command):
    directory, bundle = bundle_dir
    zone = directory / "zone.txt"
    zone.write_bytes(zone.read_bytes() + b"; \xff\n")
    args = {
        "run": ["run", "--config", str(directory / "config.json"), "--once"],
        "plan": plan_args(directory, bundle),
        "discover": ["discover", "--domain", "domainA.com", "--zone", str(zone)],
    }[command]
    assert main(args) == 1
    assert_one_error_line(capsys.readouterr(), str(zone), "not UTF-8")


# -- serve-redirect -------------------------------------------------------------------


def sigterm_once_serving(ready=lambda: True) -> threading.Thread:
    """A thread that sends SIGTERM to this process, as an operator would,
    once ready() holds and the serving loop owns the signal. It never sends
    one while the default handler, which would end the test run, is in
    place; after 30 s it stops waiting for ready()."""
    default = signal.getsignal(signal.SIGTERM)

    def send():
        deadline = time.monotonic() + 30
        while not ready() and time.monotonic() < deadline:
            time.sleep(0.01)
        while signal.getsignal(signal.SIGTERM) is default and time.monotonic() < deadline + 30:
            time.sleep(0.01)
        if signal.getsignal(signal.SIGTERM) is not default:
            os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=send, daemon=True)
    thread.start()
    return thread


def served_port(err: str, banner: str) -> int:
    match = re.search(banner + r" on http://127\.0\.0\.1:(\d+)", err)
    assert match, err
    return int(match.group(1))


def assert_refused(port: int):
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_serve_redirect_starts_and_stops(bundle_dir, tmp_path, capsys):
    directory, bundle = bundle_dir
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(bundle.expected["plan"]))
    sender = sigterm_once_serving()
    code = main(
        ["serve-redirect", "--plan", str(plan_file), "--listen", "127.0.0.1:0"]
    )
    sender.join(timeout=5)
    assert code == 0
    err = capsys.readouterr().err
    assert "serving" in err
    assert_refused(served_port(err, r"serving \d+ rules"))


@pytest.mark.parametrize("command", ["serve-redirect", "run"])
def test_serving_commands_stop_cleanly_on_sigterm(bundle_dir, tmp_path, command):
    directory, bundle = bundle_dir
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(bundle.expected["plan"]))
    journal = tmp_path / "journal.jsonl"
    argv = [sys.executable, "-m", "edisco"] + {
        "serve-redirect": ["serve-redirect", "--plan", str(plan_file), "--listen", "127.0.0.1:0"],
        "run": ["run", "--config", str(directory / "config.json"), "--journal", str(journal)],
    }[command]
    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    ) as proc:
        watchdog = threading.Timer(30, proc.kill)
        watchdog.start()
        try:
            banner = proc.stderr.readline()
            assert b" on http://127.0.0.1:" in banner, banner
            proc.send_signal(signal.SIGTERM)
            rest = proc.stderr.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    assert code == 0
    assert b"Traceback" not in rest
    if command == "run":  # the round in progress finished before the exit
        assert len(journal.read_text().splitlines()) == 1


# `edisco run` whose rounds each take a second longer, so that a signal sent
# right after the banner finds the first round still in progress
SLOW_ROUNDS = """
import sys, time
import edisco.cli

run_round = edisco.cli.run_round

def slow_round(*args, **kwargs):
    time.sleep(1.0)
    return run_round(*args, **kwargs)

edisco.cli.run_round = slow_round
sys.exit(edisco.cli.main(sys.argv[1:]))
"""


def test_run_exits_cleanly_on_a_second_sigterm_while_it_stops(bundle_dir, tmp_path):
    directory, _ = bundle_dir
    journal = tmp_path / "journal.jsonl"
    argv = [sys.executable, "-c", SLOW_ROUNDS, "run", "--config", str(directory / "config.json"),
            "--journal", str(journal)]
    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    ) as proc:
        watchdog = threading.Timer(30, proc.kill)
        watchdog.start()
        try:
            banner = proc.stderr.readline()
            assert b"redirect service on http://127.0.0.1:" in banner, banner
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            rest = proc.stderr.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    assert code == 0, rest
    assert b"Traceback" not in rest
    assert len(journal.read_text().splitlines()) == 1


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_serve_redirect_exits_0_while_a_stop_signal_repeats_through_its_exit(
    bundle_dir, tmp_path, signum
):
    """SIGTERM (or Ctrl-C) every 5 ms from the first until the process is
    gone: once the loop has stopped, the program ignores the signal for the
    rest of its exit instead of letting the default action end it."""
    directory, bundle = bundle_dir
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(bundle.expected["plan"]))
    argv = [sys.executable, "-m", "edisco", "serve-redirect", "--plan", str(plan_file),
            "--listen", "127.0.0.1:0"]
    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    ) as proc:
        watchdog = threading.Timer(30, proc.kill)
        watchdog.start()
        try:
            banner = proc.stderr.readline()
            assert b" on http://127.0.0.1:" in banner, banner
            while proc.poll() is None:
                proc.send_signal(signum)
                time.sleep(0.005)
            rest = proc.stderr.read()
        finally:
            watchdog.cancel()
    assert proc.returncode == 0, rest
    assert b"Traceback" not in rest


def test_run_refuses_a_config_without_traces_before_it_binds(bundle_dir):
    directory, _ = bundle_dir
    config = json.loads((directory / "config.json").read_text())
    del config["traces"]
    (directory / "no-traces.json").write_text(json.dumps(config))
    argv = [sys.executable, "-m", "edisco", "run", "--config", str(directory / "no-traces.json")]
    proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, timeout=10)
    assert proc.returncode == 1
    (line,) = proc.stderr.decode().splitlines()  # no banner: nothing was bound
    assert line == "edisco: config: 'traces' is missing or not of type str"


def test_run_refuses_a_config_naming_a_missing_fixture_file_before_it_binds(bundle_dir):
    directory, _ = bundle_dir
    config = json.loads((directory / "config.json").read_text())
    config["zone"] = "nope.txt"
    (directory / "no-zone.json").write_text(json.dumps(config))
    argv = [sys.executable, "-m", "edisco", "run", "--config", str(directory / "no-zone.json")]
    proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, timeout=10)
    assert proc.returncode == 1
    (line,) = proc.stderr.decode().splitlines()  # no banner: nothing was bound
    assert line.startswith("edisco: ") and "nope.txt" in line


SLOW_LOAD = """
import sys, time
import edisco.cli

load_run_config = edisco.cli.load_run_config

def slow_load(*args, **kwargs):
    print("loading", file=sys.stderr, flush=True)
    time.sleep(30)
    return load_run_config(*args, **kwargs)

edisco.cli.load_run_config = slow_load
sys.exit(edisco.cli.program())
"""


def test_ctrl_c_before_the_serving_loop_owns_it_ends_the_program_with_one_line(bundle_dir):
    directory, _ = bundle_dir
    argv = [sys.executable, "-c", SLOW_LOAD, "run", "--config", str(directory / "config.json")]
    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    ) as proc:
        watchdog = threading.Timer(30, proc.kill)
        watchdog.start()
        try:
            assert proc.stderr.readline() == b"loading\n"
            proc.send_signal(signal.SIGINT)
            rest = proc.stderr.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    assert code == 130, rest
    assert rest == b"edisco: interrupted\n"


SLOW_PTR = """
import sys, threading, time
import edisco.cli
from edisco.zonefile import ZoneData

lookup_ptr = ZoneData.lookup_ptr
first_call = threading.Lock()

def slow_lookup_ptr(self, address):
    if first_call.acquire(blocking=False):  # never released: one line only
        print("looking up", file=sys.stderr, flush=True)
    time.sleep(2)
    return lookup_ptr(self, address)

ZoneData.lookup_ptr = slow_lookup_ptr
sys.exit(edisco.cli.program())
"""


def test_ctrl_c_during_a_rounds_lookups_ends_it_after_the_lookups_in_flight(tmp_path):
    """A round of 85 PTR lookups on at most 8 threads, each lookup 2 s, as
    a slow recursive server gives: Ctrl-C once the first has started ends
    the program after the lookups in flight, not after the rest of the 85
    (20 s or more)."""
    generate_scenario(ScenarioSpec(clients=30, seed=7, services=3)).write(tmp_path)
    argv = [sys.executable, "-c", SLOW_PTR, "run", "--once", "--config", str(tmp_path / "config.json")]
    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    ) as proc:
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            assert proc.stderr.readline() == b"looking up\n"
            proc.send_signal(signal.SIGINT)
            interrupted = time.monotonic()
            rest = proc.stderr.read()
            code = proc.wait(timeout=60)
            elapsed = time.monotonic() - interrupted
        finally:
            watchdog.cancel()
    assert code == 130, rest
    assert rest.endswith(b"edisco: interrupted\n") and b"Traceback" not in rest, rest
    assert elapsed < 6, elapsed


def test_serve_redirect_on_a_port_in_use_is_operational_error(bundle_dir, tmp_path):
    _, bundle = bundle_dir
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(bundle.expected["plan"]))
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        proc = subprocess.run(
            [sys.executable, "-m", "edisco", "serve-redirect", "--plan", str(plan_file),
             "--listen", f"127.0.0.1:{port}"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("edisco: ") and "in use" in lines[0], proc.stderr


@pytest.mark.parametrize("command", ["tree", "export-dot", "plan"])
@pytest.mark.parametrize("prefix_len", ["40", "-1", "33"])
def test_tree_commands_reject_a_prefix_length_outside_0_to_32_before_reading(
    capsys, monkeypatch, command, prefix_len
):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr("edisco.cli.load_json", no_read)
    args = [command, "--traces", "traces.json", "--root", "240.0.0.1", f"--prefix-len={prefix_len}"]
    if command == "plan":
        args += ["--services", "services.json", "--capacity", "capacity.json"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith(f"edisco {command}: ") and "--prefix-len" in line


def test_serve_redirect_bad_listen_is_usage_error(capsys):
    assert main(["serve-redirect", "--plan", "x.json", "--listen", "nope"]) == 2


@pytest.mark.parametrize("period", ["nan", "inf", "-inf", "0", "-5"])
def test_serve_redirect_rejects_a_bad_period_before_it_binds(
    bundle_dir, tmp_path, capsys, monkeypatch, period
):
    """nan or inf would make every covered request raise in the front end;
    0 or less would install rules that have already expired."""
    def no_bind(*args, **kwargs):
        raise AssertionError("the front end bound")

    monkeypatch.setattr("edisco.cli.socket.create_server", no_bind)
    _, bundle = bundle_dir
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(bundle.expected["plan"]))
    assert main(["serve-redirect", "--plan", str(plan_file), f"--period-s={period}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("edisco serve-redirect: ") and "--period-s" in line


def test_serve_redirect_rejects_malformed_plan(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"format": "edisco-plan/1"}))
    assert main(["serve-redirect", "--plan", str(plan_file)]) == 1
    assert_one_error_line(capsys.readouterr(), "'assignments' is missing")


# -- run ---------------------------------------------------------------------------------


def test_run_once_emits_record(bundle_dir, tmp_path, capsys):
    directory, bundle = bundle_dir
    journal = tmp_path / "journal.jsonl"
    code = main(
        [
            "run",
            "--config",
            str(directory / "config.json"),
            "--once",
            "--journal",
            str(journal),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["format"] == "edisco-round/1"
    assert record["tree_digest"] == bundle.expected["tree_digest"]
    assert record["plan"] == bundle.expected["plan"]
    assert len(journal.read_text().splitlines()) == 1


def test_run_accepts_config_with_old_strategy_key(bundle_dir, capsys):
    directory, bundle = bundle_dir
    config = directory / "config.json"
    doc = json.loads(config.read_text())
    doc["strategy"] = "bandwidth_clients"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--once"]) == 0
    assert json.loads(capsys.readouterr().out)["plan"] == bundle.expected["plan"]


@pytest.mark.parametrize(
    "table, words",
    [
        ({"x": "isp0.test"}, ("whois", "'x' is not a canonical IPv4 prefix")),
        ({"240.0.1.0/24": 5}, ("whois", "'240.0.1.0/24'", "not a string")),
        ({"240.0.1.0/24": "a..b"}, ("whois", "'240.0.1.0/24'", "bad label")),
    ],
)
def test_malformed_whois_json_is_operational_error(bundle_dir, capsys, table, words):
    directory, _ = bundle_dir
    (directory / "whois.json").write_text(json.dumps(table))
    assert main(["run", "--config", str(directory / "config.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), *words)


def test_capacity_entry_without_cpu_is_operational_error(bundle_dir, capsys):
    directory, bundle = bundle_dir
    capacity = dict(bundle.capacity)
    victim = sorted(capacity)[0]
    capacity[victim] = {"bandwidth": 10.0}
    (directory / "capacity.json").write_text(json.dumps(capacity))
    assert main(["run", "--config", str(directory / "config.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), victim, "'cpu' is missing")


def test_run_rejects_unknown_probe_setting(bundle_dir, capsys):
    directory, _ = bundle_dir
    config = json.loads((directory / "config.json").read_text())
    config.update(live_probe=True, probe={"bogus": 1})
    (directory / "live.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(directory / "live.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), "'probe'", "bogus")


@pytest.mark.parametrize(
    "key, value, words",
    [
        ("period_s", "abc", ("'period_s'", "'abc'")),
        ("period_s", True, ("'period_s'", "True")),
        ("root", "x", ("'root'", "'x' is not an IPv4 address")),
        ("prefix_len", "x", ("'prefix_len'", "'x'")),
        ("prefix_len", 40, ("'prefix_len'", "40")),
        ("listen", "nope", ("'listen'", "'nope'")),
        ("listen", "127.0.0.1:70000", ("'listen'", "70000")),
        ("live_dns", "false", ("'live_dns'", "'false'")),
        ("live_probe", 1, ("'live_probe'", "1")),
        ("live_whois", None, ("'live_whois'", "None")),
        ("nameservers", 5, ("'nameservers'", "5")),
        ("nameservers", "10.0.0.1", ("'nameservers'", "'10.0.0.1'")),
        ("nameservers", [], ("'nameservers'", "[]")),
        ("nameservers", ["10.0.0.1", "::1"], ("'nameservers'", "'::1'")),
        ("probe", [1], ("'probe'",)),
        ("probe", {"method": "tcp"}, ("'probe'", "'tcp'")),
        ("probe", {"probes_per_hop": True}, ("'probe'", "probes_per_hop")),
        ("probe", {"timeout_s": -1}, ("'probe'", "timeout_s")),
        ("probe", {"timeout_s": math.inf}, ("'probe'", "timeout_s")),
        ("probe", {"timeout_s": "1"}, ("'probe'", "timeout_s")),
        ("probe", {"max_ttl": 0}, ("'probe'", "max_ttl")),
        ("probe", {"max_ttl": 256}, ("'probe'", "max_ttl")),
        ("probe", {"base_port": 33434}, ("'probe'", "'base_port'")),  # no field any more
    ],
)
def test_run_rejects_bad_config_value(bundle_dir, capsys, key, value, words):
    directory, _ = bundle_dir
    config = json.loads((directory / "config.json").read_text())
    config[key] = value
    (directory / "bad.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(directory / "bad.json"), "--once"]) == 1
    assert_one_error_line(capsys.readouterr(), *words)


def test_run_with_an_empty_client_list_fails_before_it_binds(bundle_dir, capsys, monkeypatch):
    def no_bind(*args, **kwargs):
        raise AssertionError("the front end bound")

    monkeypatch.setattr("edisco.cli.socket.create_server", no_bind)
    directory, _ = bundle_dir
    (directory / "clients.txt").write_text("# no clients\n")
    assert main(["run", "--config", str(directory / "config.json")]) == 1
    assert_one_error_line(capsys.readouterr(), "'clients'", "no client addresses")


def test_run_once_is_deterministic(bundle_dir, capsys):
    directory, bundle = bundle_dir
    digests = []
    for _ in range(2):
        assert main(["run", "--config", str(directory / "config.json"), "--once"]) == 0
        digests.append(json.loads(capsys.readouterr().out)["tree_digest"])
    assert digests[0] == digests[1]


def test_run_uses_env_config(bundle_dir, capsys, monkeypatch):
    directory, _ = bundle_dir
    monkeypatch.setenv("EDISCO_CONFIG", str(directory / "config.json"))
    assert main(["run", "--once"]) == 0
    assert json.loads(capsys.readouterr().out)["round_id"] == 1


def test_run_without_config_anywhere(capsys, monkeypatch):
    monkeypatch.delenv("EDISCO_CONFIG", raising=False)
    assert main(["run", "--once"]) == 2
    assert "EDISCO_CONFIG" in capsys.readouterr().err


def test_run_loop_rejects_short_period(bundle_dir, capsys):
    directory, _ = bundle_dir
    config = json.loads((directory / "config.json").read_text())
    config["period_s"] = 30
    (directory / "short.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(directory / "short.json")]) == 1
    assert "minimum" in capsys.readouterr().err


def test_run_loop_serves_rounds_until_interrupted(bundle_dir, tmp_path, capsys):
    directory, bundle = bundle_dir
    journal = tmp_path / "journal.jsonl"
    sigterm_handler = signal.getsignal(signal.SIGTERM)
    threads = set(threading.enumerate())
    # stop as Ctrl-C would once the first round's journal line is complete
    sender = sigterm_once_serving(
        lambda: journal.exists() and journal.read_text().endswith("\n")
    )
    code = main(["run", "--config", str(directory / "config.json"), "--journal", str(journal)])
    sender.join(timeout=5)
    assert code == 0
    lines = journal.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["tree_digest"] == bundle.expected["tree_digest"]
    assert set(threading.enumerate()) == threads  # the round's worker thread is gone too
    assert signal.getsignal(signal.SIGTERM) is sigterm_handler
    err = capsys.readouterr().err
    assert "redirect service on http://127.0.0.1:" in err
    assert_refused(served_port(err, "redirect service"))


# -- gen ---------------------------------------------------------------------------------


def test_gen_writes_bundle(tmp_path, capsys):
    out = tmp_path / "scenario"
    code = main(
        ["gen", "--clients", "10", "--seed", "3", "--out", str(out), "--json"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["clients"] == 10
    assert "config.json" in summary["files"]
    assert "expected.json" in summary["files"]
    assert (out / "zone.txt").exists()


def test_gen_no_expected(tmp_path, capsys):
    out = tmp_path / "scenario"
    code = main(
        ["gen", "--clients", "5", "--out", str(out), "--no-expected", "--json"]
    )
    assert code == 0
    assert "expected.json" not in json.loads(capsys.readouterr().out)["files"]


def test_gen_invalid_spec_is_operational_error(tmp_path, capsys):
    code = main(["gen", "--clients", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "clients" in capsys.readouterr().err


def test_gen_then_run_round_trip(tmp_path, capsys):
    out = tmp_path / "scenario"
    assert main(["gen", "--clients", "8", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(out / "config.json"), "--once"]) == 0
    record = json.loads(capsys.readouterr().out)
    expected = json.loads((out / "expected.json").read_text())
    assert record["tree_digest"] == expected["tree_digest"]
    assert record["plan"] == expected["plan"]


# -- probe (prober faked; live probing needs raw sockets) ---------------------------------


def test_probe_human_output(capsys, monkeypatch):
    path = make_path("172.16.0.9", "10.0.0.1", None)

    class FakeProber:
        def __init__(self, config):
            pass

        def probe(self, client):
            return path

    monkeypatch.setattr("edisco.cli.TracerouteProber", FakeProber)
    assert main(["probe", "172.16.0.9"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "# 172.16.0.9",
        "  1  10.0.0.1         1.00 ms",
        "  2  *",  # the silent hop, numbered by its position
        "  3  172.16.0.9       3.00 ms",
    ]


def test_probe_json_output(capsys, monkeypatch):
    path = make_path("172.16.0.9", "10.0.0.1")

    class FakeProber:
        def __init__(self, config):
            pass

        def probe(self, client):
            return path

    monkeypatch.setattr("edisco.cli.TracerouteProber", FakeProber)
    assert main(["probe", "172.16.0.9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["client"] == "172.16.0.9"
    assert [hop["index"] for hop in doc[0]["hops"]] == [1, 2]  # each hop's position


def test_probe_permission_error_is_operational(capsys, monkeypatch):
    class DeniedProber:
        def __init__(self, config):
            pass

        def probe(self, client):
            raise ProbePermissionError("raw ICMP socket refused")

    monkeypatch.setattr("edisco.cli.TracerouteProber", DeniedProber)
    assert main(["probe", "172.16.0.9"]) == 1
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error", [ProbeTimeoutError("no hop answered any probe"), OSError("Network is unreachable")]
)
def test_probe_names_the_client_whose_probe_failed(capsys, monkeypatch, error):
    probed = []

    class SecondFails:
        def __init__(self, config):
            pass

        def probe(self, client):
            probed.append(client)
            if len(probed) == 2:
                raise error
            return make_path(client)

    monkeypatch.setattr("edisco.cli.TracerouteProber", SecondFails)
    assert main(["probe", "172.16.0.9", "172.16.1.9", "172.16.2.9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"edisco probe: 172.16.1.9: {error}"]
    assert probed == ["172.16.0.9", "172.16.1.9"]


@pytest.mark.parametrize(
    "flags, word",
    [
        (["--max-ttl", "0"], "max_ttl"),
        (["--max-ttl", "256"], "max_ttl"),
        (["--timeout-s", "-1"], "timeout_s"),
        (["--timeout-s", "nan"], "timeout_s"),
        (["--probes", "0"], "probes_per_hop"),
        (["example.com"], "'example.com' is not an IPv4 address"),
    ],
)
def test_probe_rejects_a_bad_setting_in_one_line(capsys, monkeypatch, flags, word):
    monkeypatch.setattr("edisco.cli.TracerouteProber", None)  # never reached
    assert main(["probe", "172.16.0.9", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("edisco probe: ") and word in line


def test_run_rejects_a_bad_probe_setting_before_it_binds(bundle_dir, capsys, monkeypatch):
    def no_bind(*args, **kwargs):
        raise AssertionError("the front end bound")

    monkeypatch.setattr("edisco.cli.socket.create_server", no_bind)
    directory, _ = bundle_dir
    config = json.loads((directory / "config.json").read_text())
    config.update(live_probe=True, probe={"max_ttl": 0}, period_s=60)
    (directory / "live.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(directory / "live.json")]) == 1
    assert_one_error_line(capsys.readouterr(), "'probe'", "max_ttl")


@pytest.mark.parametrize("domain", ["isp..test", "exämple.com"])
def test_discover_a_domain_dns_cannot_carry_is_one_error_line(capsys, monkeypatch, domain):
    """Live DNS, but the name fails before any socket opens."""

    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    assert main(["discover", "--domain", domain]) == 1
    assert_one_error_line(capsys.readouterr(), "bad label", domain)
