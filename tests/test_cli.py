"""Command-line behaviour: dispatch, outputs, exit codes."""

import os
import subprocess
import sys

import pytest

from slicesim.cli import main

from conftest import REPO_ROOT, scenario_path


def test_compose_reference_reproduces_six_blocks(tmp_path, capsys):
    status = main(["compose", "--catalog", "reference",
                   "--out-dir", str(tmp_path)])
    assert status == 0
    text = (tmp_path / "grouping.txt").read_text()
    for bb in ("bb AF", "bb CM", "bb MM", "bb SAM", "bb FM", "bb CGHF"):
        assert bb in text
    assert "# refinement: accept" in text


def test_run_is_deterministic_at_the_byte_level(tmp_path):
    scenario = str(scenario_path("attach-two-slices.scn"))
    main(["run", "--scenario", scenario, "--seed", "7",
          "--out-dir", str(tmp_path / "one")])
    main(["run", "--scenario", scenario, "--seed", "7",
          "--out-dir", str(tmp_path / "two")])
    assert (tmp_path / "one" / "trace.log").read_bytes() == \
        (tmp_path / "two" / "trace.log").read_bytes()
    assert (tmp_path / "one" / "metrics.txt").read_bytes() == \
        (tmp_path / "two" / "metrics.txt").read_bytes()


def test_run_with_fabric_override(tmp_path):
    status = main(["run", "--scenario", str(scenario_path("paging.scn")),
                   "--seed", "7", "--out-dir", str(tmp_path),
                   "--fabric", "dispatcher"])
    assert status == 0
    assert "CPD." in (tmp_path / "trace.log").read_text()


def test_validate_blueprint_reports_violations(tmp_path, capsys):
    bad = tmp_path / "missing-sam.bp"
    bad.write_text("""
blueprint broken
  type: embb
  fabric: full_mesh
  anchors: a1
  bb AF
  bb CM
  bb FM
end
""")
    status = main(["validate", "--blueprint", str(bad)])
    assert status == 1
    assert "mandatory BB SAM absent" in capsys.readouterr().out


def test_validate_good_blueprint(capsys):
    status = main(["validate", "--blueprint", str(scenario_path("bp-embb.bp"))])
    assert status == 0


def test_validate_scenario(capsys):
    status = main(["validate", "--scenario",
                   str(scenario_path("attach-two-slices.scn"))])
    assert status == 0


def test_trace_check_green_on_run_output(tmp_path, capsys):
    main(["run", "--scenario", str(scenario_path("handover-mbb.scn")),
          "--seed", "7", "--out-dir", str(tmp_path)])
    status = main(["trace-check", "--trace", str(tmp_path / "trace.log")])
    assert status == 0
    assert "no violations" in capsys.readouterr().out


def test_trace_check_flags_corruption(tmp_path, capsys):
    main(["run", "--scenario", str(scenario_path("paging.scn")),
          "--seed", "7", "--out-dir", str(tmp_path)])
    trace = tmp_path / "trace.log"
    lines = trace.read_text().splitlines()
    lines.append(lines[-1])   # duplicated record breaks the total order
    trace.write_text("\n".join(lines) + "\n")
    status = main(["trace-check", "--trace", str(trace)])
    assert status == 1
    seq = lines[-1].split("|")[1]
    assert f"duplicate sequence number {seq}" in capsys.readouterr().out
    # a truncated record fails the parse and names its line
    lines[3] = lines[3][:20]
    trace.write_text("\n".join(lines) + "\n")
    status = main(["trace-check", "--trace", str(trace)])
    assert status == 1
    assert f"{trace}:4: malformed" in capsys.readouterr().err


def test_compare_fabrics_writes_table(tmp_path, capsys):
    status = main(["compare-fabrics", "--scenario",
                   str(scenario_path("attach-two-slices.scn")),
                   "--seed", "7", "--out-dir", str(tmp_path)])
    assert status == 0
    table = (tmp_path / "compare.txt").read_text()
    for model in ("full_mesh", "relay", "dispatcher", "pubsub"):
        assert model in table


def test_domain_error_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.scn"
    missing.write_text("scenario x\nend\n")
    status = main(["validate", "--scenario", str(missing)])
    assert status == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run"])   # missing --scenario
    assert exc.value.code == 2


def test_file_io_names_its_encoding(tmp_path):
    # An open() without encoding= follows the locale, so the output bytes would too.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cli = [sys.executable, "-X", "warn_default_encoding",
           "-W", "error::EncodingWarning", "-m", "slicesim.cli"]
    scenario = str(scenario_path("paging.scn"))
    for args in (["compose", "--catalog", "reference", "--out-dir", str(tmp_path)],
                 ["run", "--scenario", scenario, "--out-dir", str(tmp_path)],
                 ["compare-fabrics", "--scenario", scenario, "--out-dir", str(tmp_path)],
                 ["trace-check", "--trace", str(tmp_path / "trace.log")]):
        done = subprocess.run(cli + args, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (args[0], done.stderr)


#: Values that do not parse, each as (file, text, replacement) on a copy of
#: the corpus; every one must fail at load as a domain error.
UNPARSED_VALUES = {
    "traffic-rate": ("teardown.scn", "rate=1", "rate=abc"),
    "attach-method": ("teardown.scn", "dT1 method=2", "dT1 method=two"),
    "inject-latency": ("teardown.scn", "  at 30 teardown",
                       "  at 20 inject-latency fT high\n  at 30 teardown"),
    "event-tick": ("paging.scn", "at 16 page", "at x page"),
    "max-ticks": ("paging.scn", "max-ticks: 120", "max-ticks: lots"),
    "device-mode": ("paging.scn", "mode: via_af", "mode: relayed"),
    "fabric-override": ("paging.scn", "  max-ticks: 120",
                        "  max-ticks: 120\n  fabric-override: ring"),
    "topology-node-kind": ("topo-core.txt", "i1 kind=ingress", "i1 kind=entry"),
}


@pytest.mark.parametrize("case", sorted(UNPARSED_VALUES))
def test_unparsed_value_is_a_domain_error_at_load(case, tmp_path, capsys):
    from slicesim.engine import load_scenario
    from slicesim.errors import ScenarioError, SchemaError

    name, old, new = UNPARSED_VALUES[case]
    for path in scenario_path(".").iterdir():
        text = path.read_text()
        if path.name == name:
            assert old in text
            text = text.replace(old, new)
        (tmp_path / path.name).write_text(text)
    scenario = tmp_path / ("paging.scn" if name == "topo-core.txt" else name)
    with pytest.raises(SchemaError if name == "topo-core.txt" else ScenarioError):
        load_scenario(scenario)
    status = main(["run", "--scenario", str(scenario), "--out-dir",
                   str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_unknown_fabric_option_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(scenario_path("paging.scn")),
              "--out-dir", str(tmp_path), "--fabric", "ring"])
    assert exc.value.code == 2
    assert "unknown fabric model 'ring'" in capsys.readouterr().err
