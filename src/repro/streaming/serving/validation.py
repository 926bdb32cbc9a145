"""Serving-layer validation helpers shared across the package."""

from __future__ import annotations

from ..._validation import check_decay
from ...exceptions import ValidationError

__all__ = ["_check_decay_group", "_check_decay_groups", "_check_tenant_roster"]


def _check_decay_groups(decays) -> tuple[float, ...]:
    """Validate a declared tuple of shared-Gram γ groups (PRIMO serving).

    ``None`` means the single plain group ``(1.0,)``.  Each entry must be
    a valid forgetting factor (``γ ∈ (0, 1]``) and the entries must be
    distinct — one shared Gram mechanism is built per group, so a repeat
    would silently spend gram budget twice on the same weighting.
    """
    if decays is None:
        return (1.0,)
    groups = tuple(
        check_decay(f"decays[{i}]", g) for i, g in enumerate(decays)
    )
    if not groups:
        raise ValidationError("decays must declare at least one γ group")
    if len(set(groups)) != len(groups):
        raise ValidationError(f"decays entries must be distinct, got {groups!r}")
    return groups


def _check_decay_group(decay, decays: tuple[float, ...]) -> float:
    """``decay`` as one of the declared groups (``None``: ``decays[0]``)."""
    g = decays[0] if decay is None else float(decay)
    if g not in decays:
        raise ValidationError(
            f"decay {g!r} is not a declared γ group (decays={decays!r}); "
            f"declare every served γ up front — the gram budget is split "
            f"across the groups"
        )
    return g


def _check_tenant_roster(names, tenant_decays, decays):
    """Validate a PRIMO tenant roster; return ``(names, tenant_decays, decays)``.

    Names must be non-empty and unique; ``decays`` goes through
    :func:`_check_decay_groups`, and each tenant is assigned one declared
    group (``tenant_decays=None`` puts every tenant on ``decays[0]``).
    """
    names = tuple(str(name) for name in names)
    if not names:
        raise ValidationError("tenants must name at least one tenant")
    if len(set(names)) != len(names):
        raise ValidationError(f"tenant names must be unique, got {names!r}")
    if any(not name for name in names):
        raise ValidationError("tenant names must be non-empty")
    decays = _check_decay_groups(decays)
    if tenant_decays is None:
        tenant_decays = (None,) * len(names)
    tenant_decays = tuple(_check_decay_group(g, decays) for g in tenant_decays)
    if len(tenant_decays) != len(names):
        raise ValidationError(
            f"need one decay per tenant: {len(names)} tenants, "
            f"{len(tenant_decays)} tenant_decays"
        )
    return names, tenant_decays, decays
