"""Command-line behaviour: dispatch, outputs, exit codes."""

import os
import subprocess
import sys

import pytest

from slicesim import cli
from slicesim.catalog import DEFAULT_CROSS_BB_THRESHOLD
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


def test_trace_check_flags_a_topic_source(tmp_path, capsys):
    # a topic only receives: the parse reads `topic:x` as any endpoint, and
    # the audit reports the role pair
    trace = tmp_path / "trace.log"
    trace.write_text("MSG|1|0|FlowConfigure|topic:x|FM:FM.s.1|IBB|c1|1|||{}\n")
    assert main(["trace-check", "--trace", str(trace)]) == 1
    assert "seq 1: interface-role mismatch: InterBB is CN block to CN block" \
        in capsys.readouterr().out


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


def test_missing_input_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "absent.scn"
    assert main(["run", "--scenario", str(missing), "--out-dir",
                 str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")
    assert not (tmp_path / "out").exists()


def test_input_path_naming_a_directory_exits_one(tmp_path, capsys):
    # `topology: .` names the scenario's own directory
    scenario = tmp_path / "x.scn"
    scenario.write_text("scenario x\n  topology: .\nend\n")
    assert main(["validate", "--scenario", str(scenario)]) == 1
    assert capsys.readouterr().err == (
        f"error: ScenarioError: {scenario}: field 'topology' names "
        f"{tmp_path}, which cannot be read: Is a directory\n")


def test_run_that_breaks_an_invariant_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "trace_check", lambda trace: ["planted violation"])
    assert main(["run", "--scenario", str(scenario_path("paging.scn")),
                 "--out-dir", str(tmp_path)]) == 1
    assert "invariant violation: planted violation\n" in capsys.readouterr().out


def test_compose_names_the_procedures_to_redefine(tmp_path):
    sfs = "".join(f"""
sf {sf}
  name: {sf}
  domain: {domain}
  originator: 3gpp
  placement: core
  reusability: multi_service
  optionality: all_use_cases
  evolution: slow
end
""" for sf, domain in (("a", "mobility"), ("b", "security")))
    crossings = 2 * DEFAULT_CROSS_BB_THRESHOLD + 1
    steps = "  step a -> b\n" * crossings
    catalog = tmp_path / "chatty.cat"
    catalog.write_text(sfs + f"procedure chatty\n{steps}end\n")
    assert main(["compose", "--catalog", str(catalog),
                 "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "grouping.txt").read_text()
    assert text.endswith("# refinement: revisit-step1 chatty\n")


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
    "topology-node-kind": ("topo-core.txt", "i1 kind=ingress", "i1 kind=entry"),
}


#: Values that parse but lie outside their range, in the same form: a flow
#: sends `rate` units on each of `duration` ticks, so neither may be negative.
OUT_OF_RANGE_VALUES = {
    "traffic-rate-negative": ("handover-mbb.scn", "rate=1 duration=40",
                              "rate=-3 duration=5"),
    "traffic-duration-negative": ("handover-mbb.scn", "rate=1 duration=40",
                                  "rate=1 duration=-5"),
}


#: Documents whose structure the loaders refuse, in the same form: a second
#: top-level block, an item line with the wrong arity, a reference that
#: does not resolve.  A scenario's end in ScenarioError, a topology's in
#: SchemaError.
STRUCTURAL_ERRORS = {
    "second-scenario-block": ("paging.scn", "  at 16 page d6\nend",
                              "  at 16 page d6\nend\nscenario again\nend"),
    "blueprint-line-two-paths": ("paging.scn", "blueprint bp-mob-mbb.bp",
                                 "blueprint bp-mob-mbb.bp bp-embb.bp"),
    "device-at-unknown-node": ("paging.scn", "node: n1", "node: n9"),
    "at-line-without-action": ("paging.scn", "at 16 page d6", "at 16"),
    "unknown-event-action": ("paging.scn", "at 16 page d6", "at 16 ring d6"),
    "teardown-of-unknown-slice": ("paging.scn", "at 16 page d6",
                                  "at 16 teardown ghost-slice"),
    "inject-latency-without-value": ("paging.scn", "at 16 page d6",
                                     "at 16 inject-latency f1"),
    "move-to-unknown-node": ("paging.scn", "at 16 page d6", "at 16 move d6 n9"),
    "second-topology-block": ("topo-core.txt", "ingress=i3\nend",
                              "ingress=i3\nend\ntopology again\nend"),
    "node-line-two-ids": ("topo-core.txt", "node t2 kind", "node t2 t3 kind"),
    "link-line-one-id": ("topo-core.txt", "link t1 t2 capacity",
                         "link t1 capacity"),
    "link-latency-zero": ("topo-core.txt", "link t1 t2 capacity=50 latency=1",
                          "link t1 t2 capacity=50 latency=0"),
    "access-line-two-ids": ("topo-core.txt", "access n3 tech",
                            "access n3 n4 tech"),
}


#: Structure that no loader reads, each as (file, text, replacement), the
#: scenario that loads the file, the error the load ends in and the words
#: its message names: a block after the scenario's end, words after a
#: block's identifier, a block nested where none is read, and a positional
#: word on a blueprint's mobility line.
SURPLUS_STRUCTURE = {
    "device-after-the-scenario": (
        ("handover-mbb.scn", "at 24 move d5 n2\nend",
         "at 24 move d5 n2\nend\ndevice d9\n  node: n1\nend"),
        "handover-mbb.scn", "ScenarioError", "device d9"),
    "words-after-a-device-id": (("handover-mbb.scn", "device d5",
                                 "device d5 extra"),
                                "handover-mbb.scn", "SchemaError", "extra"),
    "words-after-a-scenario-id": (("paging.scn", "scenario paging",
                                   "scenario paging twice"),
                                  "paging.scn", "SchemaError", "twice"),
    "device-inside-a-device": (("handover-mbb.scn", "    node: n1\n",
                                "    node: n1\n  device d9\n  end\n"),
                               "handover-mbb.scn", "SchemaError", "device d9"),
    "words-after-a-topology-id": (("topo-core.txt", "topology ",
                                   "topology spare "),
                                  "paging.scn", "SchemaError", "spare"),
    "words-on-the-mobility-line": (("bp-mob-mbb.bp", "allow=cellular,wifi",
                                    "allow=cellular,wifi bbm"),
                                   "handover-mbb.scn", "SchemaError", "bbm"),
}


#: Identifiers that would break the addresses built from them, each as
#: (file, text, replacement) on a copy of the corpus for
#: attach-two-slices.scn, the line the refusal names and what it says of
#: the identifier: a ':' in a slice id ends the slice early in its plane's
#: `DP:<slice>:<node>`, a '.' in one ends it early in its block ids
#: `<ROLE>.<slice>.1` (metrics.txt would count `hops.slice.embb`), the
#: slice id `global` spells the common part's block ids, one ':' in a
#: device id splits its correlation ids `<device>:<family>:<n>`, and a '.'
#: in a device id can spell a block id `<ROLE>.<scope>.1`.  A '|' in any id
#: that a trace line names (a scenario, slice, device, plane node or flow)
#: splits the line's columns, and a ',' in a slice id splits the block ids
#: of its mediators and recipients columns: `trace-check` would refuse the
#: trace that the run wrote.
_TRAFFIC_START = "at 14 traffic-start d1 flow=f1 rate=1 duration=8"
ADDRESS_BREAKING_IDS = {
    "slice-id-with-a-colon": (("bp-embb.bp", "blueprint embb-a",
                               "blueprint embb:a"), 3, "holds ':'"),
    "slice-id-with-a-dot": (("bp-embb.bp", "blueprint embb-a",
                             "blueprint embb.a"), 3, "holds '.'"),
    "slice-id-global": (("bp-embb.bp", "blueprint embb-a",
                         "blueprint global"), 3, "is 'global'"),
    "device-id-with-a-colon": (("attach-two-slices.scn", "device d1\n",
                                "device d:1\n"), 10, "holds ':'"),
    "device-id-that-spells-a-block-id": (
        ("attach-two-slices.scn", "device d1\n", "device CM.embb-a.1\n"), 10,
        "holds '.'"),
    "scenario-id-with-a-pipe": (("attach-two-slices.scn",
                                 "scenario attach-two-slices",
                                 "scenario attach|two"), 5, "holds '|'"),
    "slice-id-with-a-pipe": (("bp-embb.bp", "blueprint embb-a",
                              "blueprint embb|a"), 3, "holds '|'"),
    "slice-id-with-a-comma": (("bp-embb.bp", "blueprint embb-a",
                               "blueprint embb,a"), 3, "holds ','"),
    "device-id-with-a-pipe": (("attach-two-slices.scn", "device d1\n",
                               "device d|1\n"), 10, "holds '|'"),
    "node-id-with-a-pipe": (("topo-core.txt", "node t1 kind=transport",
                             "node t|1 kind=transport"), 8, "holds '|'"),
    "flow-id-with-a-pipe": (
        ("attach-two-slices.scn", _TRAFFIC_START,
         _TRAFFIC_START.replace("f1", "f|1")), 28, "holds '|'"),
    "latency-flow-id-with-a-pipe": (
        ("attach-two-slices.scn", _TRAFFIC_START, "at 14 inject-latency f|1 5"),
        28, "holds '|'"),
}


@pytest.mark.parametrize("case", sorted(ADDRESS_BREAKING_IDS))
def test_address_breaking_id_is_refused_at_load(case, tmp_path, capsys):
    edit, line, refusal = ADDRESS_BREAKING_IDS[case]
    _copy_corpus(edit, tmp_path)
    scenario = str(tmp_path / "attach-two-slices.scn")
    for args in (["validate", "--scenario", scenario],
                 ["run", "--scenario", scenario, "--out-dir",
                  str(tmp_path / "out")]):
        assert main(args) == 1
        refused = capsys.readouterr().err
        assert refused.startswith(f"error: SchemaError: {tmp_path / edit[0]}:"
                                  f"{line}: {edit[2].strip()}: identifier "
                                  f"{refusal}, "), refused
    assert not (tmp_path / "out").exists()


#: Scenarios that load but that set-up refuses, each as (file, text,
#: replacement) on a copy of the corpus for cghf-reselect.scn, with the
#: error `run` exits on: too little capacity for the blueprint's five
#: blocks.
SETUP_REFUSALS = {
    "infra-capacity": (("cghf-reselect.scn", "  max-ticks: 160",
                        "  max-ticks: 160\n  infra-capacity: 3"),
                       "InfraCapacityError"),
}


def _copy_corpus(edit, tmp_path):
    name, old, new = edit
    for path in scenario_path(".").iterdir():
        text = path.read_text()
        if path.name == name:
            assert old in text
            text = text.replace(old, new)
        (tmp_path / path.name).write_text(text)


def _assert_refused_at_load(edit, tmp_path, capsys):
    from slicesim.engine import load_scenario
    from slicesim.errors import ScenarioError, SchemaError

    name = edit[0]
    _copy_corpus(edit, tmp_path)
    scenario = tmp_path / ("paging.scn" if name == "topo-core.txt" else name)
    with pytest.raises(SchemaError if name == "topo-core.txt" else ScenarioError):
        load_scenario(scenario)
    status = main(["run", "--scenario", str(scenario), "--out-dir",
                   str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(UNPARSED_VALUES))
def test_unparsed_value_is_a_domain_error_at_load(case, tmp_path, capsys):
    _assert_refused_at_load(UNPARSED_VALUES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_VALUES))
def test_out_of_range_value_is_a_domain_error_at_load(case, tmp_path, capsys):
    _assert_refused_at_load(OUT_OF_RANGE_VALUES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(STRUCTURAL_ERRORS))
def test_structural_error_is_a_domain_error_at_load(case, tmp_path, capsys):
    _assert_refused_at_load(STRUCTURAL_ERRORS[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(SURPLUS_STRUCTURE))
def test_surplus_structure_is_refused_at_load(case, tmp_path, capsys):
    edit, name, error, words = SURPLUS_STRUCTURE[case]
    _copy_corpus(edit, tmp_path)
    scenario = str(tmp_path / name)
    assert main(["validate", "--scenario", scenario]) == 1
    refused = capsys.readouterr().err
    assert refused.startswith(f"error: {error}: {tmp_path / edit[0]}: ")
    assert words in refused


@pytest.mark.parametrize("case", sorted(SETUP_REFUSALS))
def test_validate_refuses_what_run_refuses_at_set_up(case, tmp_path, capsys):
    edit, error = SETUP_REFUSALS[case]
    _copy_corpus(edit, tmp_path)
    scenario = str(tmp_path / "cghf-reselect.scn")
    assert main(["run", "--scenario", scenario, "--out-dir",
                 str(tmp_path / "out")]) == 1
    refused = capsys.readouterr().err
    assert refused.startswith(f"error: {error}: ")
    assert main(["validate", "--scenario", scenario]) == 1
    assert capsys.readouterr().err == refused
    # the blueprint alone breaks no composition rule
    assert main(["validate", "--blueprint",
                 str(tmp_path / "bp-cghf.bp")]) == 0


#: The knobs that the configuration no longer has, each as an edit on a
#: copy of the corpus for paging.scn, the words added to its `run` command,
#: the exit status and what the refusal says: an SF subset on a `bb` line
#: (a slice deploys whole blocks), a relay target in a blueprint and on the
#: command line (the relay is the slice's CM), and a fabric model set by
#: the scenario (`run --fabric` and `compare-fabrics` choose a run's).
REMOVED_KNOBS = {
    "bb-sf-subset": (("bp-mob-mbb.bp", "  bb MM\n",
                      "  bb MM sfs=device-paging\n"),
                     (), 1, "unknown option 'sfs'"),
    "blueprint-relay-target": (("bp-mob-mbb.bp", "fabric: full_mesh",
                                "fabric: relay:MM"), (), 1, "'relay:MM'"),
    "scenario-fabric-override": (("paging.scn", "  max-ticks: 120",
                                  "  max-ticks: 120\n  fabric-override: relay"),
                                 (), 1, "unknown field 'fabric-override'"),
    "run-relay-target": (("paging.scn", "", ""),      # the corpus as it is
                         ("--fabric", "relay:CM"), 2,
                         "unknown fabric model 'relay:CM'"),
}


@pytest.mark.parametrize("case", sorted(REMOVED_KNOBS))
def test_removed_knob_is_refused(case, tmp_path, capsys):
    edit, words, status, refusal = REMOVED_KNOBS[case]
    _copy_corpus(edit, tmp_path)
    try:
        exit_status = main(["run", "--scenario", str(tmp_path / "paging.scn"),
                            "--out-dir", str(tmp_path / "out"), *words])
    except SystemExit as exc:       # the parser refuses a usage error
        exit_status = exc.code
    assert exit_status == status
    refused = capsys.readouterr().err
    assert refusal in refused
    if status == 1:
        assert refused.startswith(f"error: SchemaError: {tmp_path / edit[0]}:")
    assert not (tmp_path / "out").exists()


def test_unknown_fabric_option_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(scenario_path("paging.scn")),
              "--out-dir", str(tmp_path), "--fabric", "ring"])
    assert exc.value.code == 2
    assert "unknown fabric model 'ring'" in capsys.readouterr().err
