import importlib.resources
from pathlib import Path

from slicesim.blocks.sam import AuditEntry, SAMState
from slicesim.errors import SliceSimError
from slicesim.fabric import Fabric, FabricModelKind

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def reference_catalog_text() -> str:
    return importlib.resources.files("slicesim.data").joinpath("reference.cat").read_text()


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


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


def implied_link_count(fabric: Fabric) -> int:
    """The links a fabric's interconnection model implies between members."""
    n = len(fabric.members)
    if fabric.model.kind is FabricModelKind.FULL_MESH:
        return n * (n - 1) // 2
    if fabric.model.kind is FabricModelKind.RELAY:
        return n - 1
    return n   # star towards the external dispatcher or broker


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {outcome}: {name}", flush=True)
