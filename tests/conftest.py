import dataclasses
import importlib.resources
import importlib.util
import sys
from pathlib import Path

from slicesim.blocks.sam import AuditEntry, SAMState
from slicesim.engine import Environment, ScriptEvent
from slicesim.errors import SliceSimError
from slicesim.fabric import Fabric, FabricModelKind
from slicesim.trace import MessageRecord

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

#: The corpus: the name of every scenario under `scenarios/`, so a new one
#: gets every per-scenario check without an edit.
CORPUS = tuple(sorted(path.stem for path in SCENARIO_DIR.glob("*.scn")))


def reference_catalog_text() -> str:
    return importlib.resources.files("slicesim.data").joinpath("reference.cat").read_text()


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


def perfbench_module(name: str):
    """A module of the benchmark's own code, `perfbench/<name>.py`, imported
    under its own name as the benchmark's tests import it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, REPO_ROOT / "perfbench" / f"{name}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


class NoContextError(SliceSimError):
    """Single sign-on for a device without a security context."""


def sam_single_sign_on(state: SAMState, device: str, service: str,
                       tick: int) -> str:
    """Grant access to a service off the existing security context, without a
    new credential exchange.  Returns the grant token."""
    context = state.security_contexts.get(device)
    if context is None:
        raise NoContextError(f"device {device} holds no security context")
    state.audit_log.append(AuditEntry(tick=tick, kind="sso", subject=device, ok=True))
    return f"sso-{device}-{service}-{context.ordinal}"


def attach_once(scenario, device: str, method: int, seed: int = 7):
    """Run `scenario` with one attach of `device` at tick 0 as its whole
    script.  Returns the device's bound slice after the run and the message
    records of that attach's correlation."""
    script = (ScriptEvent(0, "attach", (device,), {"method": method}),)
    env = Environment(dataclasses.replace(scenario, script=script), seed)
    corr = f"{device}:attach:1"
    records = [r for r in env.run().trace if isinstance(r, MessageRecord)
               and r.correlation_id == corr]
    return env.devices[device].bound_slice, records


def implied_link_count(fabric: Fabric) -> int:
    """The links a fabric's interconnection model implies between members."""
    n = len(fabric.members)
    if fabric.model is FabricModelKind.FULL_MESH:
        return n * (n - 1) // 2
    if fabric.model is FabricModelKind.RELAY:
        return n - 1
    return n   # star towards the external dispatcher or broker


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    # what a test records with `record_property`, such as tolerated cases
    for key, value in report.user_properties:
        print(f"\n{name}: {key} {value}", flush=True)
    # one visible pass/fail line per acceptance criterion
    if "test_acceptance" not in report.nodeid:
        return
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {outcome}: {name}", flush=True)
