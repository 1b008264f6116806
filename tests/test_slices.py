"""Blueprint validation and slice lifecycle tests."""

import itertools

import pytest

from slicesim.blocks.common import HandoverStyle, MobilityPolicy
from slicesim import cli
from slicesim.catalog import (
    derive_separation_constraints, group_into_bbs, load_catalog,
)
from slicesim.errors import (
    BlueprintError, InfraCapacityError, LifecycleOrderError, SchemaError,
)
from slicesim.engine import load_scenario
from slicesim.fabric import FabricModel, FabricModelKind
from slicesim.messages import Role
from slicesim.netsim import load_topology_file
from slicesim.slices import (
    LifecycleState, SimInfrastructure, SliceBlueprint, SliceType,
    instantiate, load_blueprint, load_blueprint_file, operate, teardown,
    validate_blueprint,
)

from conftest import implied_link_count, reference_catalog_text, scenario_path


def make_blueprint(roles=(Role.AF, Role.CM, Role.SAM, Role.FM),
                   mobility=None, anchors=("a1",), **overrides):
    kwargs = dict(
        slice_id="test-slice", slice_type=SliceType.EMBB,
        bb_set={r: frozenset() for r in roles},
        fabric_model=FabricModel(FabricModelKind.FULL_MESH),
        mobility_policy=mobility, anchors=anchors)
    kwargs.update(overrides)
    return SliceBlueprint(**kwargs)


@pytest.fixture(scope="module")
def topology():
    return load_topology_file(scenario_path("topo-core.txt"))


@pytest.fixture(scope="module")
def reference_bbs():
    cat = load_catalog(reference_catalog_text())
    return group_into_bbs(cat, derive_separation_constraints(cat))


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

    def test_sf_subset_must_belong_to_the_block(self, reference_bbs):
        bp = make_blueprint()
        bp.bb_set[Role.SAM] = frozenset({"device-paging"})   # an MM sub-function
        verdict = validate_blueprint(bp, reference_bbs)
        assert any("does not belong to SAM" in v for v in verdict.violations)

    def test_valid_sf_subset_accepted(self, reference_bbs):
        bp = make_blueprint()
        bp.bb_set[Role.SAM] = frozenset({"authentication", "identity-management"})
        assert validate_blueprint(bp, reference_bbs).ok


class TestBlueprintFiles:
    def test_corpus_blueprints_load_and_validate(self, reference_bbs):
        for name in ("bp-embb.bp", "bp-miot.bp", "bp-default.bp", "bp-fixed.bp",
                     "bp-mob-mbb.bp", "bp-mob-bbm.bp", "bp-cghf.bp"):
            bp = load_blueprint_file(scenario_path(name))
            assert validate_blueprint(bp, reference_bbs).ok, name

    def test_malformed_blueprint_rejected(self):
        with pytest.raises(SchemaError):
            load_blueprint("blueprint x\n  type: nonsense\n  bb AF\nend\n")

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
        ("bb CGHF", "bb CGHF\n  subscribe XX dplane-latency")])
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

    def test_instantiate_then_operate(self, topology):
        inst = self.instance(topology)
        assert inst.lifecycle_state is LifecycleState.INSTANTIATED
        operate(inst)
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

    def test_invalid_blueprint_refused(self, topology):
        bp = make_blueprint(roles=(Role.AF, Role.CM, Role.FM))
        with pytest.raises(BlueprintError):
            instantiate(bp, SimInfrastructure(16), topology)

    def test_unknown_anchor_refused(self, topology):
        bp = make_blueprint(anchors=("missing-node",))
        with pytest.raises(BlueprintError):
            instantiate(bp, SimInfrastructure(16), topology)

    def test_operate_on_torn_down_slice_rejected(self, topology):
        inst = self.instance(topology)
        operate(inst)
        teardown(inst)
        with pytest.raises(LifecycleOrderError):
            operate(inst)
        with pytest.raises(LifecycleOrderError):
            teardown(inst)

    def test_teardown_traces_detaches_and_zeroes_reservations(self, topology):
        from slicesim.blocks.fm import fm_define_path

        inst = self.instance(topology)
        operate(inst)
        inst.attached_devices.update({"d1", "d2"})
        fm_state = inst.states[Role.FM]
        fm_state.sessions["s-1"] = type(
            "B", (), {"device": "d1", "anchor": "a1", "ingress": "i1",
                      "flows": ["f1"]})()
        fm_define_path(fm_state, "f1", "i1", "a1", "default")
        assert any(l.reserved for l in fm_state.view.links.values())
        events = teardown(inst)
        detaches = [e for e in events if e[0] == "detach"]
        assert [e[1] for e in detaches] == ["d1", "d2"]
        assert all(l.reserved == 0 for l in fm_state.view.links.values())
        assert inst.lifecycle_state is LifecycleState.TORN_DOWN
