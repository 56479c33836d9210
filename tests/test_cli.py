"""End-to-end checks of the command line front end.

Every test drives loramesh.cli.main with an argv list and inspects the
files it writes, so these double as smoke tests for the packaged
scenario data.
"""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from loramesh import cli
from loramesh.cli import main
from loramesh.planner import plan_from_topology, plan_to_json
from loramesh.scenario import load_scenario


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--scenario", "standby_recovery", "--out-dir", str(out)])
        assert rc == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["delivered"] == 2
        assert metrics["generated"] == 2
        assert metrics["pdr"] == 1.0
        assert (out / "trace.ndjson").exists()
        assert (out / "battery.csv").exists()
        assert metrics["trace_sha256"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--scenario", "standby_recovery", "--out-dir", str(a)]) == 0
        assert main(["simulate", "--scenario", "standby_recovery", "--out-dir", str(b)]) == 0
        assert read_bytes(a / "metrics.json") == read_bytes(b / "metrics.json")
        assert read_bytes(a / "trace.ndjson") == read_bytes(b / "trace.ndjson")
        assert read_bytes(a / "battery.csv") == read_bytes(b / "battery.csv")

    def test_no_trace_flag(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--scenario",
                "standby_recovery",
                "--out-dir",
                str(out),
                "--no-trace",
            ]
        )
        assert rc == 0
        assert not (out / "trace.ndjson").exists()
        traced = tmp_path / "traced"
        assert main(["simulate", "--scenario", "standby_recovery", "--out-dir", str(traced)]) == 0
        # the digest is computed over the event stream, so skipping the
        # file must not change it
        assert (
            read_json(out / "metrics.json")["trace_sha256"]
            == read_json(traced / "metrics.json")["trace_sha256"]
        )

    def test_zero_packet_override(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--scenario",
                "standby_recovery",
                "--out-dir",
                str(out),
                "--packets",
                "0",
                "--no-trace",
            ]
        )
        assert rc == 0
        metrics = read_json(out / "metrics.json")
        # the budget override also clears the scripted schedule
        assert metrics["generated"] == 0
        assert metrics["pdr"] is None
        assert metrics["latency_ms"] is None

    def test_budget_and_rate_overrides_are_checked_together(self, tmp_path):
        # a file with no budget may hold any interval; the override fixes both
        path = tmp_path / "idle.json"
        path.write_text(json.dumps({**VALID_SCENARIO, "traffic": {"mean_interval_s": 0}}))
        argv = ["simulate", "--scenario", str(path), "--packets", "5", "--mean-interval-ms", "1000"]
        assert main(argv + ["--no-trace", "--out-dir", str(tmp_path / "run")]) == 0
        assert read_json(tmp_path / "run" / "metrics.json")["generated"] == 5

    def test_a_rate_without_a_budget_exits_2_naming_packets(self, tmp_path, capsys):
        # standby_recovery is scripted with no budget: the rate alone would
        # clear the schedule and send nothing
        argv = ["simulate", "--scenario", "standby_recovery", "--mean-interval-ms", "500"]
        assert main(argv + ["--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            "error: --mean-interval-ms needs a packet budget: 'standby_recovery' has none, "
            "so give --packets too\n"
        )
        assert not (tmp_path / "run").exists()

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--scenario",
                str(tmp_path / "nope.json"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_protocol_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--scenario",
                    "standby_recovery",
                    "--out-dir",
                    str(tmp_path),
                    "--protocol",
                    "carrier-pigeon",
                ]
            )
        assert exc.value.code == 2


# json writes these as NaN and Infinity, which its reader accepts back
NAN = float("nan")

VALID_SCENARIO = {
    "name": "fuzz",
    "topology": {
        "nodes": [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        "links": [
            {"a": 0, "b": 1, "distance_m": 100.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
        ],
    },
    "traffic": {"total_packets": 2},
}

MALFORMED_SCENARIOS = {
    "mac-value": {**VALID_SCENARIO, "mac": {"wait_min_s": "abc"}},
    # a busy channel would be sensed again at the same instant, forever
    "mac-wait-zero": {**VALID_SCENARIO, "mac": {"wait_min_s": 0.0, "wait_max_s": 0.0}},
    "phase-value": {**VALID_SCENARIO, "phases": {"beacon_rounds": "x"}},
    "budget-value": {**VALID_SCENARIO, "traffic": {"total_packets": "lots"}},
    "schedule-key": {**VALID_SCENARIO, "traffic": {"schedule": {"abc": [1.0]}}},
    "schedule-unknown-node": {**VALID_SCENARIO, "traffic": {"schedule": {"5": [1.0]}}},
    "traffic-list": {**VALID_SCENARIO, "traffic": [1, 2]},
    "seed-value": {**VALID_SCENARIO, "seed": "x"},
    "horizon-value": {**VALID_SCENARIO, "horizon_s": "x"},
    "nodes-not-a-list": {**VALID_SCENARIO, "topology": {"nodes": 5, "links": []}},
    "top-level-list": [],
    "schedule-negative-time": {**VALID_SCENARIO, "traffic": {"schedule": {"101": [-5.0]}}},
    "schedule-nan-time": {**VALID_SCENARIO, "traffic": {"schedule": {"101": [NAN]}}},
    "interval-nan": {**VALID_SCENARIO, "traffic": {"total_packets": 2, "mean_interval_s": NAN}},
    "interval-infinite": {
        **VALID_SCENARIO,
        "traffic": {"total_packets": 2, "mean_interval_s": math.inf},
    },
    "start-nan": {**VALID_SCENARIO, "traffic": {"total_packets": 2, "start_s": NAN}},
    "distance-nan": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "links": [
                {"a": 0, "b": 1, "distance_m": NAN},
                {"a": 101, "b": 1, "distance_m": 10.0},
            ],
        },
    },
    "horizon-nan": {**VALID_SCENARIO, "horizon_s": NAN},
    # a uid fills a signed 32-bit trace slot, where -1 means "none"
    "uid-negative": {
        **VALID_SCENARIO,
        "topology": {
            "nodes": [
                {"uid": 0, "role": "gateway"},
                {"uid": -1, "role": "repeater"},
                {"uid": 101, "role": "end_device", "attach": -1},
            ],
            "links": [
                {"a": 0, "b": -1, "distance_m": 100.0},
                {"a": 101, "b": -1, "distance_m": 10.0},
            ],
        },
    },
    "uid-too-large": {
        **VALID_SCENARIO,
        "topology": {
            "nodes": [
                {"uid": 0, "role": "gateway"},
                {"uid": 1, "role": "repeater"},
                {"uid": 2**32, "role": "end_device", "attach": 1},
            ],
            "links": [
                {"a": 0, "b": 1, "distance_m": 100.0},
                {"a": 2**32, "b": 1, "distance_m": 10.0},
            ],
        },
        "traffic": {"schedule": {str(2**32): [1.0]}},
    },
    # a flag must be a JSON boolean and an integer field a JSON integer;
    # each of these once loaded as a value the file did not mean
    "learning-phase-string": {**VALID_SCENARIO, "learning_phase": "false"},
    "standby-string": {**VALID_SCENARIO, "standby_enabled": "no"},
    "spreading-factor-fraction": {**VALID_SCENARIO, "radio": {"spreading_factor": 7.9}},
    "budget-fraction": {**VALID_SCENARIO, "traffic": {"total_packets": 2.5}},
    # a key that nothing reads, which a run would otherwise silently ignore
    "mac-unknown-key": {**VALID_SCENARIO, "mac": {"wait_max": 0.3}},
    "top-level-unknown-key": {**VALID_SCENARIO, "protcol": "flooding"},
    "role-capacity-at-top-level": {**VALID_SCENARIO, "gateway_capacity_mah": 50.0},
    "topology-unknown-key": {
        **VALID_SCENARIO,
        "topology": {**VALID_SCENARIO["topology"], "sensitivity": -100.0},
    },
    # node and link entries follow the same key and type rules; each of
    # these once loaded (uids 1 and 1, a label ignored) or exited 3
    "node-uid-fraction": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "nodes": [
                {"uid": 0, "role": "gateway"},
                {"uid": 1.7, "role": "repeater"},
                {"uid": 101, "role": "end_device", "attach": 1.2},
            ],
        },
    },
    "link-end-string": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "links": [
                {"a": 0, "b": "1", "distance_m": 100.0},
                {"a": 101, "b": 1, "distance_m": 10.0},
            ],
        },
    },
    "node-unknown-key": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "nodes": [
                {"uid": 0, "role": "gateway", "lable": "gw"},
                {"uid": 1, "role": "repeater"},
                {"uid": 101, "role": "end_device", "attach": 1},
            ],
        },
    },
    "node-missing-key": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "nodes": [
                {"uid": 0, "role": "gateway"},
                {"uid": 1},
                {"uid": 101, "role": "end_device", "attach": 1},
            ],
        },
    },
    "link-missing-key": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "links": [
                {"a": 0, "b": 1},
                {"a": 101, "b": 1, "distance_m": 10.0},
            ],
        },
    },
    "link-duplicate": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "links": VALID_SCENARIO["topology"]["links"] + [{"a": 1, "b": 0, "distance_m": 90.0}],
        },
    },
    "link-self": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "links": VALID_SCENARIO["topology"]["links"] + [{"a": 1, "b": 1, "distance_m": 5.0}],
        },
    },
    "links-object": {
        **VALID_SCENARIO,
        "topology": {**VALID_SCENARIO["topology"], "links": {"a": 1}},
    },
    # a schedule key is a uid in canonical decimal form; this one once
    # loaded as end device 101
    "schedule-key-padded": {**VALID_SCENARIO, "traffic": {"schedule": {" 1_01 ": [5.0]}}},
    "schedule-key-leading-zero": {**VALID_SCENARIO, "traffic": {"schedule": {"0101": [5.0]}}},
    "schedule-key-signed": {**VALID_SCENARIO, "traffic": {"schedule": {"+101": [5.0]}}},
    # longer than Python converts to an int by default
    "schedule-key-huge": {**VALID_SCENARIO, "traffic": {"schedule": {"1" * 5000: [5.0]}}},
    "schedule-list": {**VALID_SCENARIO, "traffic": {"schedule": [5.0]}},
    "schedule-times-number": {**VALID_SCENARIO, "traffic": {"schedule": {"101": 5.0}}},
    "ed-capacity-zero": {**VALID_SCENARIO, "energy": {"ed_capacity_mah": 0}},
    "gateway-capacity-negative": {**VALID_SCENARIO, "energy": {"gateway_capacity_mah": -5}},
    # integers too large for a float; each of these once exited 3
    "bandwidth-huge": {**VALID_SCENARIO, "radio": {"bandwidth_hz": 10**400}},
    "preamble-huge": {**VALID_SCENARIO, "radio": {"preamble_symbols": 10**400}},
    "chunk-rounds-huge": {**VALID_SCENARIO, "phases": {"chunk_rounds": 10**400}},
    # longer than json reads an integer literal; written as text, since
    # json cannot write it either
    "integer-literal-huge": json.dumps(VALID_SCENARIO).replace(
        '"total_packets": 2', '"total_packets": ' + "1" * 5000
    ),
    # json's reader recurses once per level
    "nesting-deep": "[" * 100_000,
    # reception follows links, so this end device would lose every packet
    "attach-unlinked": {
        **VALID_SCENARIO,
        "topology": {
            **VALID_SCENARIO["topology"],
            "links": [
                {"a": 0, "b": 1, "distance_m": 100.0},
                {"a": 101, "b": 0, "distance_m": 10.0},
            ],
        },
    },
}


# The message of each mistyped or unknown value names its key.
NAMED_KEYS = {
    "learning-phase-string": "learning_phase",
    "standby-string": "standby_enabled",
    "spreading-factor-fraction": "spreading_factor",
    "budget-fraction": "total_packets",
    "mac-unknown-key": "mac: unknown key 'wait_max'",
    "mac-wait-zero": "mac: wait_max_s must be positive",
    "top-level-unknown-key": "scenario: unknown key 'protcol'",
    "role-capacity-at-top-level": "scenario: unknown key 'gateway_capacity_mah'",
    "topology-unknown-key": "topology: unknown key 'sensitivity'",
    "node-uid-fraction": "nodes[1]: uid must be an integer, got 1.7",
    "link-end-string": "links[0]: b must be an integer, got '1'",
    "node-unknown-key": "nodes[0]: unknown key 'lable'",
    "node-missing-key": "nodes[1]: missing required key 'role'",
    "link-missing-key": "links[0]: missing required key 'distance_m'",
    "link-duplicate": "links[2]: duplicate link 1-0",
    "link-self": "links[2]: node 1 cannot link to itself",
    "links-object": "topology: links must be a JSON array, got dict",
    "nodes-not-a-list": "topology: nodes must be a JSON array, got int",
    "schedule-key": "traffic: schedule key 'abc' is not a node uid",
    "schedule-key-padded": "traffic: schedule key ' 1_01 ' is not a node uid",
    "schedule-key-leading-zero": "traffic: schedule key '0101' is not a node uid",
    "schedule-key-signed": "traffic: schedule key '+101' is not a node uid",
    "schedule-key-huge": f"traffic: schedule key '{'1' * 5000}' is not a node uid",
    "schedule-list": "traffic: schedule: expected a JSON object, got list",
    "schedule-times-number": "traffic: schedule of 101 must be a JSON array, got float",
    "ed-capacity-zero": "energy: ed_capacity_mah must be positive",
    "gateway-capacity-negative": "energy: gateway_capacity_mah must be positive",
    "bandwidth-huge": "radio: bandwidth_hz must be a finite number, got 1000",
    "preamble-huge": "radio: preamble_symbols must be a finite number, got 1000",
    "chunk-rounds-huge": "phases: chunk_rounds must be a finite number, got 1000",
    "integer-literal-huge": "scenario.json: scenario holds an integer too long to read",
    "nesting-deep": "scenario.json: scenario nests arrays or objects too deeply to read",
}


class TestMalformedScenario:
    def simulate(self, tmp_path, document):
        path = tmp_path / "scenario.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        return main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "run")])

    def test_valid_base_document_runs(self, tmp_path):
        assert self.simulate(tmp_path, VALID_SCENARIO) == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
    def test_malformed_value_exits_2(self, tmp_path, capsys, case):
        assert self.simulate(tmp_path, MALFORMED_SCENARIOS[case]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "runtime error" not in err
        assert NAMED_KEYS.get(case, "") in err

    def test_integral_float_and_null_horizon_load(self, tmp_path):
        document = {
            **VALID_SCENARIO,
            "radio": {"spreading_factor": 8.0},
            "horizon_s": None,
            "energy": {"ed_capacity_mah": 50},
        }
        assert self.simulate(tmp_path, document) == 0


# The 0-1 link is far beyond the 16 383.75 m wire range and far below
# sensitivity; repeater 1 reaches the gateway through repeater 2.
INAUDIBLE_LONG_LINK = {
    "name": "inaudible-long-link",
    "topology": {
        "nodes": [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 2, "role": "repeater"},
            {"uid": 100, "role": "end_device", "attach": 2},
        ],
        "links": [
            {"a": 0, "b": 1, "distance_m": 1e9},
            {"a": 0, "b": 2, "distance_m": 100.0},
            {"a": 1, "b": 2, "distance_m": 100.0},
            {"a": 100, "b": 2, "distance_m": 10.0},
        ],
    },
    "traffic": {"total_packets": 3},
}


class TestRender:
    def test_prints_one_json_line_per_event(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", "standby_recovery", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["render", "--trace", str(out / "trace.ndjson")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == sum(read_json(out / "metrics.json")["counts"].values())
        assert lines[0] == '{"t":5.0,"ev":"Generated","node":101,"pkt":0}'
        assert all(json.loads(line)["ev"] for line in lines)

    def test_a_reader_that_stops_early_is_not_an_error(self, tmp_path):
        out = tmp_path / "run"
        argv = ["simulate", "--scenario", "representative", "--protocol", "flooding"]
        assert main(argv + ["--packets", "100", "--out-dir", str(out)]) == 0
        # more output than a pipe buffers (64 KiB), so render is still writing
        assert (out / "trace.ndjson").stat().st_size > 1 << 18
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        render = [sys.executable, "-m", "loramesh", "render", "--trace", str(out / "trace.ndjson")]
        with subprocess.Popen(
            render, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline().startswith(b'{"t":')
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize(
        "case, text, where",
        [
            ("v1-ndjson", '{"t":5.0,"ev":"Generated","node":101,"pkt":0}\n', ":1: a version 1"),
            ("no-header", "AAAAAAAAFEAAZQAAAAAAAAD/////AAAAAAAA+H//\n", ":1: no trace header"),
            ("unknown-header", '{"format":"loramesh-trace","version":9}\n', ":1: unknown trace header"),
            ("bad-record", None, ":3: not one 40-character base64 record"),
            ("directory", None, ": cannot read trace: Is a directory"),
        ],
    )
    def test_a_wrong_file_exits_2_with_one_error_line(self, tmp_path, capsys, case, text, where):
        path = tmp_path / f"{case}.ndjson"
        if case == "directory":
            path.mkdir()
        else:
            if text is None:
                assert main(["simulate", "--scenario", "standby_recovery", "--out-dir", str(tmp_path)]) == 0
                lines = (tmp_path / "trace.ndjson").read_text().splitlines(keepends=True)
                text = "".join(lines[:2]) + "not base64\n" + "".join(lines[2:])
            path.write_text(text)
        capsys.readouterr()
        assert main(["render", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"error: {path}{where}")


class TestInaudibleLink:
    @pytest.mark.parametrize("protocol", ["flooding", "routing", "routing_no_energy"])
    def test_inaudible_link_is_left_out_of_the_plan(self, tmp_path, protocol):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(INAUDIBLE_LONG_LINK))
        out = tmp_path / "run"
        argv = ["simulate", "--scenario", str(path), "--protocol", protocol, "--out-dir", str(out)]
        assert main(argv) == 0
        assert read_json(out / "metrics.json")["delivered"] == 3


class TestSeedHandling:
    def test_seed_flag_overrides_the_scenario_seed(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--scenario",
                "standby_recovery",
                "--out-dir",
                str(out),
                "--seed",
                "3",
                "--no-trace",
            ]
        )
        assert rc == 0
        assert read_json(out / "metrics.json")["seed"] == 3


class TestPlan:
    def test_plans_from_reports_file(self, tmp_path, capsys):
        reports = {
            "gateways": [0],
            "reports": [
                {"node": 0, "neighbors": [{"uid": 1, "distance_m": 100.0}]},
                {
                    "node": 1,
                    "neighbors": [
                        {"uid": 0, "distance_m": 100.0},
                        {"uid": 2, "distance_m": 50.0},
                    ],
                },
                {
                    "node": 2,
                    "neighbors": [
                        {"uid": 1, "distance_m": 50.0},
                        # nobody reports the reverse direction of this one
                        {"uid": 0, "distance_m": 400.0},
                    ],
                },
            ],
        }
        path = tmp_path / "reports.json"
        path.write_text(json.dumps(reports))
        out = tmp_path / "out"
        rc = main(["plan", "--reports", str(path), "--out-dir", str(out)])
        assert rc == 0
        assert "warning" in capsys.readouterr().err
        tables = read_json(out / "routing_tables.json")["tables"]
        assert tables["0"]["distance_value"] == 0.0
        assert tables["1"]["distance_value"] == 100.0
        assert tables["1"]["upstream"] == 0
        # shortest path runs through node 1, but the one-sided direct
        # link still makes the gateway the lowest-value audible neighbor
        assert tables["2"]["distance_value"] == 150.0
        assert tables["2"]["upstream"] == 0

    def test_malformed_reports_exit_2(self, tmp_path, capsys):
        path = tmp_path / "reports.json"
        path.write_text(json.dumps({"reports": []}))
        rc = main(["plan", "--reports", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    def test_a_reports_file_nested_too_deeply_exits_2(self, tmp_path, capsys):
        # this once exited 3 with json's RecursionError
        path = tmp_path / "reports.json"
        path.write_text("[" * 100_000)
        assert main(["plan", "--reports", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: reports file nests arrays or objects too deeply to read\n"
        )

    # each of these once planned (a uid of true or 1.9 read as 1, a
    # distance "20" read as 20.0) or, for bytes that are not UTF-8, exited 3
    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("node", True, "reports[1]: node must be an integer, got True"),
            ("uid", 1.9, "reports[1].neighbors[0]: uid must be an integer, got 1.9"),
            ("distance_m", "20", "reports[1].neighbors[0]: distance_m must be a finite number, got '20'"),
            ("gateways", [0.5], "gateways entry must be an integer, got 0.5"),
            ("encoding", None, "cannot read reports file: 'utf-8' codec can't decode"),
        ],
        ids=["node-true", "uid-fraction", "distance-string", "gateway-fraction", "not-utf8"],
    )
    def test_a_mistyped_reports_value_exits_2_naming_it(self, tmp_path, capsys, field, value, named):
        reports = {
            "gateways": [0],
            "reports": [
                {"node": 0, "neighbors": [{"uid": 1, "distance_m": 20.0}]},
                {"node": 1, "neighbors": [{"uid": 0, "distance_m": 20.0}]},
            ],
        }
        path = tmp_path / "reports.json"
        if field == "encoding":
            path.write_bytes(b"\xff\xfe\x00\x01")
        else:
            if field == "gateways":
                reports["gateways"] = value
            elif field == "node":
                reports["reports"][1]["node"] = value
            else:
                reports["reports"][1]["neighbors"][0][field] = value
            path.write_text(json.dumps(reports))
        assert main(["plan", "--reports", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err

    # each of these once planned (a report lost, a self-link kept) or
    # printed a message that did not name the entry
    @pytest.mark.parametrize(
        "document, named",
        [
            (
                {"gateways": [0], "reports": [{"node": 1, "neighbors": []}] * 2},
                "reports[1]: node 1 is reported twice",
            ),
            (
                {"gateways": [0], "reports": [{"node": 1, "neighbors": [{"uid": 1, "distance_m": 5.0}]}]},
                "reports[0].neighbors[0]: node 1 cannot be its own neighbor",
            ),
            (
                {"gateways": [0], "reports": [{"node": 1, "neighbors": [{"uid": 0, "distance_m": 5.0}] * 2}]},
                "reports[0].neighbors[1]: node 0 is listed twice",
            ),
            ({"gateways": [True], "reports": []}, "reports file: gateways entry must be an integer, got True"),
            ({"gateways": [0], "reports": {"a": 1}}, "reports file: reports must be a JSON array, got dict"),
            ({"gateways": [0], "reports": ["a"]}, "reports[0]: expected a JSON object, got str"),
            ([], "reports file: expected a JSON object, got list"),
        ],
        ids=["node-twice", "own-neighbor", "neighbor-twice", "gateway-true", "reports-object",
             "report-string", "top-level-list"],
    )
    def test_a_malformed_reports_entry_exits_2_naming_it(self, tmp_path, capsys, document, named):
        path = tmp_path / "reports.json"
        path.write_text(json.dumps(document))
        assert main(["plan", "--reports", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"


class TestLearn:
    def test_learned_tables_match_offline_planner(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["learn", "--scenario", "representative", "--out-dir", str(out)])
        assert rc == 0
        learned = (out / "routing_tables.json").read_text()
        scenario = load_scenario("representative")
        heard = scenario.topology.links.hearing(scenario.radio.tx_power_dbm, scenario.seed)
        assert learned == plan_to_json(plan_from_topology(scenario.topology, heard))
        parsed = json.loads(learned)
        assert parsed["gateways"] == [0, 18]
        assert len(parsed["tables"]) == 19

    @pytest.mark.parametrize(
        "option", [["--protocol", "routing"], ["--packets", "5"], ["--mean-interval-ms", "500"]],
        ids=lambda option: option[0],
    )
    def test_an_option_learn_does_not_read_is_refused(self, tmp_path, capsys, option):
        # learn zeroes the traffic, and its control floods never read the protocol
        argv = ["learn", "--scenario", "representative", "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + option)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"loramesh: error: unrecognized arguments: {' '.join(option)}\n")
        assert not (tmp_path / "routing_tables.json").exists()

    def test_a_neighbor_beyond_the_distance_field_is_left_out_of_the_report(
        self, tmp_path, capsys
    ):
        # an audible 20 000 m link at path-loss exponent 2.0: the estimate
        # does not fit the 2-byte distance field, so neither end reports it
        path = tmp_path / "far.json"
        path.write_text(json.dumps(FAR_LINK))
        assert main(["learn", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert "warning: node 1 unreachable from every gateway\n" in captured.err
        assert captured.out.endswith("(0/1 repeaters installed their row)\n")

    def test_a_failed_plan_names_its_cause(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(DEEP_CHAIN))
        assert main(["learn", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error: discovery produced no usable plan: node 5's path to its nearest gateway "
            "is 17500.0 m; the distance field holds at most 16383.75 m\n"
        )


    @pytest.mark.parametrize("command", ["simulate", "learn"])
    def test_a_link_shorter_than_one_distance_step_is_routed(self, tmp_path, command):
        # 0.05 m once rounded to a 0.0 m wire distance, which the planner
        # refuses; with a 0.1 m reference distance the learning phase's
        # estimate is that short too
        path = tmp_path / "short.json"
        path.write_text(json.dumps(SHORT_LINK))
        out = tmp_path / "out"
        argv = [command, "--scenario", str(path), "--out-dir", str(out)]
        assert main(argv + (["--protocol", "routing"] if command == "simulate" else [])) == 0
        if command == "learn":
            tables = read_json(out / "routing_tables.json")["tables"]
            assert tables["1"]["distance_value"] == 0.25
        else:
            assert read_json(out / "metrics.json")["pdr"] == 1.0


# gateway 0 and repeater 1 a few centimetres apart
SHORT_LINK = {
    "name": "short-link",
    "topology": {
        "path_loss": {"ref_distance_m": 0.1},
        "nodes": [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        "links": [
            {"a": 0, "b": 1, "distance_m": 0.05},
            {"a": 1, "b": 101, "distance_m": 10.0},
        ],
    },
    "traffic": {"total_packets": 3},
}

FAR_LINK = {
    "name": "far-link",
    "topology": {
        "path_loss": {"exponent": 2.0},
        "nodes": [{"uid": 0, "role": "gateway"}, {"uid": 1, "role": "repeater"}],
        "links": [{"a": 0, "b": 1, "distance_m": 20000.0}],
    },
}

# Gateway 0 and repeaters 1-5 on audible 3 500 m links: node 5's 17 500 m
# path is longer than the distance field.
DEEP_CHAIN = {
    "name": "deep-chain",
    "topology": {
        "nodes": [{"uid": 0, "role": "gateway"}]
        + [{"uid": uid, "role": "repeater"} for uid in range(1, 6)],
        "links": [{"a": uid, "b": uid + 1, "distance_m": 3500.0} for uid in range(5)],
    },
}


class TestLoadtest:
    def test_small_ladder_structure(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "loadtest",
                "--scenario",
                "two_ed_battery",
                "--out-dir",
                str(out),
                "--intervals",
                "2.0,0.05",
                "--budgets",
                "40,80",
            ]
        )
        assert rc == 0
        report = read_json(out / "loadtest.json")
        assert report["scenario"] == "two_ed_battery"
        assert [row["interval_s"] for row in report["intervals"]] == [2.0, 0.05]
        for row in report["intervals"]:
            assert [p["budget"] for p in row["points"]] == [40, 80]
            for point in row["points"]:
                assert point["latency_mean_ms"] is not None
        assert "knee_interval_s" in report
        assert "knee_rate_pkt_per_s" in report

    def test_non_descending_intervals_exit_2(self, tmp_path, capsys):
        rc = main(
            [
                "loadtest",
                "--scenario",
                "two_ed_battery",
                "--out-dir",
                str(tmp_path),
                "--intervals",
                "1.0,2.0",
            ]
        )
        assert rc == 2
        assert "descending" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--packets", "5"], ["--mean-interval-ms", "500"]], ids=lambda option: option[0]
    )
    def test_an_option_loadtest_does_not_read_is_refused(self, tmp_path, capsys, option):
        # every rung sets its own budget and interval
        argv = ["loadtest", "--scenario", "standby_recovery", "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + option)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"loramesh: error: unrecognized arguments: {' '.join(option)}\n")
        assert not (tmp_path / "loadtest.json").exists()


class TestCompare:
    def test_writes_summary_with_ratios(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "compare",
                "--scenario",
                "two_ed_battery",
                "--out-dir",
                str(out),
                "--packets",
                "60",
                "--seeds",
                "1,2",
            ]
        )
        assert rc == 0
        summary = read_json(out / "compare.json")
        assert summary["seeds"] == [1, 2]
        for protocol in ("flooding", "routing"):
            row = summary[protocol]
            for key in ("pdr", "latency_mean_ms", "duty_max_pct", "energy_mah"):
                assert set(row[key]) == {"mean", "stddev"}
        ratios = summary["routing_over_flooding"]
        assert set(ratios) == {"pdr", "latency_mean_ms", "duty_max_pct", "energy_mah"}
        assert ratios["pdr"] is not None


class TestMalformedLists:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["loadtest", "--scenario", "two_ed_battery", "--intervals", "a"], "--intervals"),
            (["loadtest", "--scenario", "two_ed_battery", "--budgets", "x"], "--budgets"),
            (["compare", "--scenario", "two_ed_battery", "--seeds", "x"], "--seeds"),
        ],
        ids=["loadtest-intervals", "loadtest-budgets", "compare-seeds"],
    )
    def test_a_list_that_is_not_numbers_exits_2(self, tmp_path, capsys, argv, named):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} ")

    @pytest.mark.parametrize(
        "flag, text, prefix",
        [
            pytest.param(flag, text, prefix, id=f"{flag}-{text}")
            for flag, text, prefix in [
                ("--intervals", "1.0,2.0", "--intervals must be strictly "),
                ("--intervals", "1.0,1.0", "--intervals must be strictly "),
                # in order, but a rung no traffic can have
                ("--intervals", "1.0,0", "mean interval must be positive"),
                ("--intervals", "1.0,-1", "mean interval must be positive"),
                ("--budgets", "50,20", "--budgets must be strictly "),
                ("--budgets", "20,20", "--budgets must be strictly "),
                ("--budgets", "0,20", "--budgets must be strictly "),
            ]
        ],
    )
    def test_a_ladder_out_of_order_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, flag, text, prefix
    ):
        def no_run(*_args):
            raise AssertionError("ran with a ladder out of order")

        monkeypatch.setattr(cli, "_run_once", no_run)
        argv = ["loadtest", "--scenario", "standby_recovery", flag, text]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {prefix}")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_a_threshold_that_is_not_finite_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, threshold
    ):
        def no_run(*_args):
            raise AssertionError("ran with a threshold no growth can be compared with")

        monkeypatch.setattr(cli, "_run_once", no_run)
        argv = ["loadtest", "--scenario", "standby_recovery", f"--threshold={threshold}"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --threshold must be a finite number, got {threshold}\n"

    def test_plan_reports_directory_exits_2(self, tmp_path, capsys):
        rc = main(["plan", "--reports", str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read reports")


class TestOutDir:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "standby_recovery"],
            ["plan", "--reports", "reports.json"],
            ["learn", "--scenario", "standby_recovery"],
            ["loadtest", "--scenario", "two_ed_battery"],
            ["compare", "--scenario", "two_ed_battery"],
        ],
        ids=["simulate", "plan", "learn", "loadtest", "compare"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_an_out_dir_that_a_file_blocks_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, argv, below
    ):
        def no_run(*_args):
            raise AssertionError("ran before checking --out-dir")

        monkeypatch.setattr(cli, "_run_once", no_run)
        monkeypatch.setattr(cli, "plan", no_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "reports.json").write_text('{"gateways": [0], "reports": []}')
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out-dir {out}: ")
        assert err.count("\n") == 1


# Help and argparse errors as argparse prints them, recorded with COLUMNS=80
# so that help wraps the same way on every terminal.
TOP_USAGE = "usage: loramesh [-h] {simulate,plan,learn,loadtest,compare,render} ...\n"
SIMULATE_USAGE = """\
usage: loramesh simulate [-h] --scenario SCENARIO [--seed SEED]
                         [--out-dir OUT_DIR]
                         [--protocol {flooding,routing,routing_no_energy}]
                         [--packets PACKETS]
                         [--mean-interval-ms MEAN_INTERVAL_MS] [--no-trace]
"""
# simulate's and loadtest's first options
SCENARIO_OPTIONS = """\
  -h, --help            show this help message and exit
  --scenario SCENARIO   bundled name or path to a scenario JSON
  --seed SEED           override the scenario seed
  --out-dir OUT_DIR     directory for output files
  --protocol {flooding,routing,routing_no_energy}
"""
# name -> (argv, stdout, stderr, exit code)
HELP_AND_ERRORS = {
    "no-argument": (
        [],
        "",
        TOP_USAGE + "loramesh: error: the following arguments are required: command\n",
        2,
    ),
    "help": (
        ["--help"],
        TOP_USAGE
        + """
Simulate subterranean LoRa mesh scenarios and plan routes.

positional arguments:
  {simulate,plan,learn,loadtest,compare,render}
    simulate            run one scenario and write metrics
    plan                run the offline planner over a reports file
    learn               run the discovery phase and export the planned tables
    loadtest            sweep interval and budget ladders for saturation
    compare             flooding vs routing across seeds
    render              print a trace file as one JSON line per event

options:
  -h, --help            show this help message and exit
""",
        "",
        0,
    ),
    "simulate-help": (
        ["simulate", "--help"],
        SIMULATE_USAGE
        + "\noptions:\n"
        + SCENARIO_OPTIONS
        + """\
  --packets PACKETS     override the packet budget
  --mean-interval-ms MEAN_INTERVAL_MS
                        override the mean generation interval
  --no-trace            skip writing trace.ndjson
""",
        "",
        0,
    ),
    "plan-help": (
        ["plan", "--help"],
        """\
usage: loramesh plan [-h] --reports REPORTS [--out-dir OUT_DIR]

options:
  -h, --help         show this help message and exit
  --reports REPORTS  neighbor reports JSON
  --out-dir OUT_DIR
""",
        "",
        0,
    ),
    "learn-help": (
        ["learn", "--help"],
        """\
usage: loramesh learn [-h] --scenario SCENARIO [--seed SEED]
                      [--out-dir OUT_DIR]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO  bundled name or path to a scenario JSON
  --seed SEED          override the scenario seed
  --out-dir OUT_DIR    directory for output files
""",
        "",
        0,
    ),
    "loadtest-help": (
        ["loadtest", "--help"],
        """\
usage: loramesh loadtest [-h] --scenario SCENARIO [--seed SEED]
                         [--out-dir OUT_DIR]
                         [--protocol {flooding,routing,routing_no_energy}]
                         [--intervals INTERVALS] [--budgets BUDGETS]
                         [--threshold THRESHOLD]

options:
"""
        + SCENARIO_OPTIONS
        + """\
  --intervals INTERVALS
                        descending seconds
  --budgets BUDGETS     ascending packet budgets
  --threshold THRESHOLD
                        latency growth marking saturation
""",
        "",
        0,
    ),
    "compare-help": (
        ["compare", "--help"],
        """\
usage: loramesh compare [-h] --scenario SCENARIO [--seeds SEEDS]
                        [--out-dir OUT_DIR] [--packets PACKETS]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO
  --seeds SEEDS        comma separated seed list
  --out-dir OUT_DIR
  --packets PACKETS
""",
        "",
        0,
    ),
    "render-help": (
        ["render", "--help"],
        """\
usage: loramesh render [-h] --trace TRACE

options:
  -h, --help     show this help message and exit
  --trace TRACE  trace.ndjson written by simulate
""",
        "",
        0,
    ),
    "unknown-command": (
        ["bogus"],
        "",
        TOP_USAGE
        + "loramesh: error: argument command: invalid choice: 'bogus' (choose from "
        "'simulate', 'plan', 'learn', 'loadtest', 'compare', 'render')\n",
        2,
    ),
    "missing-required": (
        ["simulate"],
        "",
        SIMULATE_USAGE
        + "loramesh simulate: error: the following arguments are required: --scenario\n",
        2,
    ),
    "invalid-protocol": (
        ["simulate", "--scenario", "standby_recovery", "--protocol", "carrier-pigeon"],
        "",
        SIMULATE_USAGE
        + "loramesh simulate: error: argument --protocol: invalid choice: 'carrier-pigeon' "
        "(choose from 'flooding', 'routing', 'routing_no_energy')\n",
        2,
    ),
    "unrecognized-argument": (
        ["simulate", "--scenario", "standby_recovery", "--bogus"],
        "",
        TOP_USAGE + "loramesh: error: unrecognized arguments: --bogus\n",
        2,
    ),
}


class TestHelpAndErrors:
    @pytest.mark.parametrize("case", HELP_AND_ERRORS)
    def test_prints_what_argparse_printed(self, monkeypatch, capsys, case):
        argv, stdout, stderr, code = HELP_AND_ERRORS[case]
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert capsys.readouterr() == (stdout, stderr)
        assert exc.value.code == code

    def test_a_well_formed_call_builds_its_command_parser_alone(self, tmp_path, monkeypatch):
        def no_tree():
            raise AssertionError("built the full parser tree")

        monkeypatch.setattr(cli, "build_parser", no_tree)
        argv = ["simulate", "--scenario", "standby_recovery", "--no-trace"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "s", "--seed", "3", "--no-trace"],
            ["plan", "--reports", "r.json"],
            ["learn", "--scenario", "s", "--seed", "5", "--out-dir", "o"],
            ["loadtest", "--scenario", "s", "--threshold", "0.5", "--budgets", "1,2"],
            ["compare", "--scenario", "s", "--packets", "9"],
            ["render", "--trace", "t"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_command_parses_as_the_full_tree_does(self, argv):
        tree = vars(cli.build_parser().parse_args(argv))
        assert tree.pop("command") == argv[0]
        assert cli._parse(argv) == (argv[0], argparse.Namespace(**tree))


class TestConsoleScript:
    def test_module_entry_point(self):
        # the package must stay runnable as python -m loramesh
        import loramesh.__main__  # noqa: F401

        assert callable(main)
