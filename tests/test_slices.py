"""Blueprint validation and slice lifecycle tests."""

import itertools
import re

import pytest

from slicesim.blocks.common import HandoverStyle, MobilityPolicy
from slicesim import cli
from slicesim.errors import (
    InfraCapacityError, LifecycleOrderError, ScenarioError, SchemaError,
)
from slicesim.engine import load_scenario
from slicesim.fabric import FabricModelKind
from slicesim.messages import Role
from slicesim.netsim import load_topology, load_topology_file
from slicesim.slices import (
    LifecycleState, SimInfrastructure, SliceBlueprint, SliceType,
    anchor_latency, instantiate, load_blueprint, load_blueprint_file,
    teardown, validate_blueprint,
)

from conftest import implied_link_count, scenario_path


def make_blueprint(roles=(Role.AF, Role.CM, Role.SAM, Role.FM),
                   mobility=None, anchors=("a1",), **overrides):
    kwargs = dict(
        slice_id="test-slice", slice_type=SliceType.EMBB,
        bb_set=frozenset(roles),
        fabric_model=FabricModelKind.FULL_MESH,
        mobility_policy=mobility, anchors=anchors)
    kwargs.update(overrides)
    return SliceBlueprint(**kwargs)


@pytest.fixture(scope="module")
def topology():
    return load_topology_file(scenario_path("topo-core.txt"))


class TestValidateBlueprint:
    def test_fixed_access_without_mm_is_valid(self):
        bp = make_blueprint(slice_type=SliceType.FIXED_ACCESS)
        assert validate_blueprint(bp).ok

    def test_missing_sam_rejected(self):
        bp = make_blueprint(roles=(Role.AF, Role.CM, Role.FM))
        verdict = validate_blueprint(bp)
        assert not verdict.ok
        assert "mandatory BB SAM absent" in verdict.violations

    def test_mobility_policy_without_mm_rejected(self):
        bp = make_blueprint(mobility=MobilityPolicy(
            style=HandoverStyle.MAKE_BEFORE_BREAK))
        verdict = validate_blueprint(bp)
        assert any("mobility policy set but MM absent" in v
                   for v in verdict.violations)

    def test_mandatory_rule_over_the_full_role_lattice(self):
        # every subset of the six roles: valid iff it contains the
        # four mandatory blocks
        all_roles = (Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM, Role.CGHF)
        mandatory = {Role.AF, Role.CM, Role.SAM, Role.FM}
        for n in range(len(all_roles) + 1):
            for subset in itertools.combinations(all_roles, n):
                mobility = (MobilityPolicy(style=HandoverStyle.MAKE_BEFORE_BREAK)
                            if Role.MM in subset else None)
                bp = make_blueprint(roles=subset, mobility=mobility)
                verdict = validate_blueprint(bp)
                assert verdict.ok == (mandatory <= set(subset)), subset

    def test_mm_without_mobility_policy_rejected(self):
        bp = make_blueprint(roles=(Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM))
        assert validate_blueprint(bp).violations == (
            "MM present but no mobility policy",)

    def test_role_that_is_no_slice_block_rejected(self):
        bp = make_blueprint(roles=(Role.AF, Role.CM, Role.SAM, Role.FM, Role.UE))
        assert validate_blueprint(bp).violations == (
            "UE is not a slice block role",)


class TestBlueprintFiles:
    def test_corpus_blueprints_load_and_validate(self):
        for name in ("bp-embb.bp", "bp-miot.bp", "bp-default.bp", "bp-fixed.bp",
                     "bp-mob-mbb.bp", "bp-mob-bbm.bp", "bp-cghf.bp"):
            bp = load_blueprint_file(scenario_path(name))
            assert validate_blueprint(bp).ok, name

    def test_malformed_blueprint_rejected(self):
        with pytest.raises(SchemaError):
            load_blueprint("blueprint x\n  type: nonsense\n  bb AF\nend\n")

    @pytest.mark.parametrize("text,problem", [
        ("blueprint x\n  type: embb\nend\nblueprint y\n  type: embb\nend\n",
         "expected exactly one blueprint block"),
        ("blueprint x\n  type: embb\n  bb AF CM\nend\n", "bb line needs one role"),
        ("blueprint x\n  type: embb\n  context-model\nend\n",
         "context-model line needs a topic"),
        ("blueprint x\n  type: embb\n  subscribe CM\nend\n",
         "subscribe line is '<role> <topic>'"),
        ("blueprint x\n  type: embb\n  subscribe UE t\nend\n",
         "<blueprint>: subscribe UE t: UE is not a block role"),
        ("blueprint\n  type: embb\nend\n", "block 'blueprint' missing identifier"),
    ], ids=["two-blocks", "bb-arity", "context-model-arity", "subscribe-arity",
            "subscribe-role", "no-identifier"])
    def test_structural_error_rejected(self, text, problem):
        with pytest.raises(SchemaError, match=re.escape(problem)):
            load_blueprint(text)

    def test_unknown_role_rejected(self):
        with pytest.raises(SchemaError):
            load_blueprint("blueprint x\n  type: embb\n  bb XX\nend\n")


def _knob_blueprint(old, new, name="bp-cghf.bp"):
    text = scenario_path(name).read_text()
    assert old in text
    return text.replace(old, new)


class TestBlueprintKnobs:
    """A numeric knob is refused at load where a run with it would raise,
    and accepted otherwise."""

    def test_cghf_reselect_with_zero_window_is_a_schema_error(self, tmp_path):
        for name in ("topo-core.txt", "cghf-reselect.scn"):
            (tmp_path / name).write_text(scenario_path(name).read_text())
        (tmp_path / "bp-cghf.bp").write_text(
            _knob_blueprint("window=8", "window=0"))
        with pytest.raises(SchemaError, match="window must be >= 1"):
            load_scenario(tmp_path / "cghf-reselect.scn")
        assert cli.main(["validate", "--scenario",
                         str(tmp_path / "cghf-reselect.scn")]) == 1

    @pytest.mark.parametrize("old,new", [
        ("window=8", "window=-2"), ("window=8", "window=1.5"),
        ("factor=1.5", "factor=abc"), ("shortest", "shortest\n  stretch: -0.5"),
        ("shortest", "shortest\n  stretch: nan"),
        ("bb CGHF", "bb CGHF\n  subscribe XX dplane-latency"),
        ("bb CGHF", "bb CGHF\n  subscribe UE dplane-latency"),
        ("bb CGHF", "bb CGHF\n  subscribe PS dplane-latency"),
        ("bb CGHF", "bb CGHF\n  subscribe DP dplane-latency"),
        ("bb CGHF", "bb CGHF\n  subscribe topic dplane-latency"),
        # a ':' in a slice id would end the slice early in `DP:<slice>:<node>`
        ("blueprint ctx-a", "blueprint ctx:a"),
        # a '.' would end it early in a block id `<ROLE>.<slice>.1`, and
        # `global` would spell the common part's block ids
        ("blueprint ctx-a", "blueprint ctx.a"),
        ("blueprint ctx-a", "blueprint global")])
    def test_refused(self, old, new):
        with pytest.raises(SchemaError):
            load_blueprint(_knob_blueprint(old, new))

    @pytest.mark.parametrize("old,new,name", [
        ("window=8", "window=1", "bp-cghf.bp"),
        ("window=8", "window=8 min_samples=0", "bp-cghf.bp"),
        ("factor=1.5", "factor=-1", "bp-cghf.bp"),
        ("shortest", "shortest\n  stretch: 0", "bp-cghf.bp"),
        ("centralised", "centralised timeout=0", "bp-mob-mbb.bp")])
    def test_accepted(self, old, new, name):
        load_blueprint(_knob_blueprint(old, new, name))


class TestLifecycle:
    def instance(self, topology, **kwargs):
        infra = kwargs.pop("infra", SimInfrastructure(capacity_units=16))
        return instantiate(make_blueprint(**kwargs), infra, topology)

    def test_instantiate_returns_an_operating_slice(self, topology):
        inst = self.instance(topology)
        assert inst.lifecycle_state is LifecycleState.OPERATING

    def test_six_block_blueprint_yields_six_instances(self, topology):
        inst = self.instance(
            topology,
            roles=(Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM, Role.CGHF),
            mobility=MobilityPolicy(style=HandoverStyle.MAKE_BEFORE_BREAK))
        assert len(inst.states) == 6
        assert implied_link_count(inst.fabric) == 15

    def test_two_instances_share_no_state(self, topology):
        infra = SimInfrastructure(capacity_units=16)
        bp = make_blueprint()
        first = instantiate(bp, infra, topology)
        second = instantiate(bp, infra, topology)
        first.states[Role.CM].device_table["dX"] = "poked"
        first.dplane.rules["i1"] = {"f": "t1"}
        assert "dX" not in second.states[Role.CM].device_table
        assert second.dplane.rules == {}

    def test_zero_capacity_infrastructure_declines(self, topology):
        with pytest.raises(InfraCapacityError):
            self.instance(topology, infra=SimInfrastructure(capacity_units=0))

    @staticmethod
    def load_paging_with(tmp_path, old, new):
        """`load_scenario` on a copy of paging.scn's files whose blueprint
        has `old` replaced by `new`."""
        for name in ("paging.scn", "topo-core.txt", "bp-mob-mbb.bp"):
            text = scenario_path(name).read_text()
            if name == "bp-mob-mbb.bp":
                assert old in text
                text = text.replace(old, new)
            (tmp_path / name).write_text(text)
        return load_scenario(tmp_path / "paging.scn")

    def test_invalid_blueprint_refused(self, tmp_path):
        # set-up trusts loading to refuse it: instantiation checks no rule
        with pytest.raises(ScenarioError, match="mandatory BB SAM absent"):
            self.load_paging_with(tmp_path, "  bb SAM\n", "")

    def test_unknown_anchor_refused(self, tmp_path):
        with pytest.raises(ScenarioError,
                           match="mob-a anchor 'missing-node' unknown"):
            self.load_paging_with(tmp_path, "anchors: a1 a2",
                                  "anchors: a1 missing-node")

    @pytest.mark.parametrize("kind", list(FabricModelKind))
    def test_topic_table_skips_absent_blocks_and_sorts(self, topology, kind):
        bp = make_blueprint(roles=(Role.AF, Role.CM, Role.SAM, Role.FM, Role.CGHF),
                            subscriptions=((Role.MM, "t"), (Role.FM, "t"),
                                           (Role.CM, "t"), (Role.CM, "t"),
                                           (Role.MM, "u")),
                            fabric_model=kind)
        instance = instantiate(bp, SimInfrastructure(8), topology)
        assert instance.fabric.subscriptions == {
            "t": tuple(sorted((instance.peers[Role.CM], instance.peers[Role.FM])))}

    def test_unreachable_anchor_has_no_latency_entry(self):
        spec = load_topology(
            "topology t\n  node i1 kind=ingress\n  node a1 kind=anchor\n"
            "  node a2 kind=anchor\n  link i1 a1 capacity=5 latency=2\n"
            "  access n1 ingress=i1\nend\n")
        assert anchor_latency(spec, ["a1", "a2"]) == {("i1", "a1"): 2}

    def test_second_teardown_rejected(self, topology):
        inst = self.instance(topology)
        teardown(inst)
        with pytest.raises(LifecycleOrderError):
            teardown(inst)

    def test_teardown_traces_one_detach_per_attached_device(self, topology):
        inst = self.instance(topology)
        events = teardown(inst, ("d1", "d2"))
        assert [(e.kind, e.subject) for e in events] == [
            ("detach", "d1"), ("detach", "d2"),
            ("slice-torn-down", "test-slice")]
        assert inst.lifecycle_state is LifecycleState.TORN_DOWN
