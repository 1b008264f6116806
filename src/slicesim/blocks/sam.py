"""Security and AAA management: mutual authentication with abstract key
agreement, pseudonym issuance and the security audit log.

Credentials are opaque tokens matched against the identity database; key
material is an opaque derivation, not real cryptography.  The permanent
subscriber identity never leaves this block after the first authentication:
peers only ever see the current pseudonym.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..messages import (
    ProcedureKind, SignalMessage, draft, mint_context_token,
    mint_key_material, mint_pseudonym,
)
from .common import AuthScheme, BlockContext, BlockEvent


@dataclass(frozen=True)
class IdentityRecord:
    device: str
    permanent_id: str
    proof: str


@dataclass
class SecurityContext:
    ordinal: int
    key: str
    token: str
    low_secure: bool


@dataclass(frozen=True)
class AuditEntry:
    tick: int
    kind: str      # "auth" | "sso"
    subject: str
    ok: bool


@dataclass(frozen=True)
class AuthVerdict:
    ok: bool
    device: str
    pseudonym: str | None = None
    token: str | None = None
    reason: str | None = None


@dataclass
class SAMState:
    identity_db: dict = field(default_factory=dict)        # permanent id -> IdentityRecord
    security_contexts: dict = field(default_factory=dict)  # device -> SecurityContext
    pseudonym_map: dict = field(default_factory=dict)      # current pseudonym -> permanent id
    audit_log: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # permanent id -> current pseudonym; not a field, so no digest holds it
        self._pseudonym_of = {pid: p for p, pid in self.pseudonym_map.items()}

    def current_pseudonym(self, permanent_id: str) -> str | None:
        return self._pseudonym_of.get(permanent_id)


def sam_authenticate(state: SAMState, device: str, alias: str, proof: str,
                     scheme: AuthScheme, seed: int, tick: int) -> AuthVerdict:
    """Match presented credentials and derive a fresh security context.

    The alias may be the permanent identity (first contact) or the current
    pseudonym.  Success mints a new pseudonym and invalidates the old one;
    the low-secure scheme skips key derivation strength but still yields a
    flagged context.  Every attempt appends exactly one audit entry.
    """
    permanent_id = alias if alias in state.identity_db else state.pseudonym_map.get(alias)
    record = state.identity_db.get(permanent_id) if permanent_id else None
    ok = record is not None and record.proof == proof and record.device == device
    state.audit_log.append(AuditEntry(tick=tick, kind="auth", subject=device, ok=ok))
    if not ok:
        reason = "unknown-subscriber" if record is None else "credential-mismatch"
        return AuthVerdict(ok=False, device=device, reason=reason)

    previous = state.security_contexts.get(device)
    ordinal = previous.ordinal + 1 if previous else 1
    old_pseudonym = state.current_pseudonym(permanent_id)
    if old_pseudonym:
        del state.pseudonym_map[old_pseudonym]
    pseudonym = mint_pseudonym(seed, permanent_id, ordinal)
    state.pseudonym_map[pseudonym] = permanent_id
    state._pseudonym_of[permanent_id] = pseudonym
    context = SecurityContext(
        ordinal=ordinal,
        key=mint_key_material(seed, device, ordinal),
        token=mint_context_token(seed, device, ordinal),
        low_secure=scheme is AuthScheme.LOW_SECURE)
    state.security_contexts[device] = context
    return AuthVerdict(ok=True, device=device, pseudonym=pseudonym,
                       token=context.token)


def handle(state: SAMState, msg, ctx: BlockContext):
    """AuthChallenge in, AuthResponse out; everything else is internal."""
    drafts: list[SignalMessage] = []
    events: list[BlockEvent] = []
    if msg.kind is ProcedureKind.AUTH_CHALLENGE:
        device = msg.payload["device"]
        scheme = ctx.policy.auth_scheme
        verdict = sam_authenticate(
            state, device=device, alias=msg.payload.get("alias", ""),
            proof=msg.payload.get("proof", ""), scheme=scheme,
            seed=ctx.seed, tick=ctx.tick)
        events.append(BlockEvent("auth", device,
                                 {"ok": verdict.ok, "scheme": scheme.value,
                                  "reason": verdict.reason}))
        payload = {"device": device, "ok": verdict.ok}
        if verdict.ok:
            payload.update(pseudonym=verdict.pseudonym, token=verdict.token)
        drafts.append(draft(ProcedureKind.AUTH_RESPONSE, ctx.self_endpoint,
                            msg.source, msg.correlation_id, payload))
    return state, drafts, events
